"""Correctness checks of every answer, run outside the timed window.

Each answer is compared with a reference computed through code paths the
query did not take:

* CLI queries: the graph is rebuilt through ``app.build`` (the frozen
  ``build_graph`` path, not the CLI's fused one) and simulated with the
  LogGOPS level engine; ``runtime_us`` must equal the makespan and
  ``lambda_L`` the slope of ``forward_envelope`` at ``L0``.
* ``trace_validate``: the trace is re-read by the monolithic reader and
  rebuilt by ``ScheduleGenerator.build_from_trace``; its content digest must
  equal the streamed graph's, and the sweep must agree with the simulator
  and the envelope, with an RRMSE below the paper's 2 %.

References depend only on the query, so each is computed once per run.
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps import ALL_APPS
from repro.core.envelope import forward_envelope
from repro.schedgen.builder import ProtocolConfig, ScheduleGenerator
from repro.schedgen.collectives import CollectiveAlgorithms
from repro.simulator import simulate
from repro.simulator.columnar import simulate_sweep
from repro.trace.format import load_trace

from workloads import CURVE_L_MAX, CURVE_POINTS, SWEEP_POINTS, Query

#: relative agreement required between LP/envelope answers and the simulator
#: (measured agreement is at most 3e-14)
REL_TOL = 1e-9
#: the paper's accuracy bound on measured-vs-predicted runtime
MAX_RRMSE_PCT = 2.0
DEGRADATIONS = (0.01, 0.02, 0.05)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def reference(query: Query) -> dict:
    """Reference numbers for ``query`` computed without the query's code path."""
    params = query.params
    if query.kind == "trace_validate":
        generator = ScheduleGenerator(protocol=ProtocolConfig.from_params(params))
        graph = generator.build_from_trace(load_trace(query.trace_path))
        deltas = np.linspace(0.0, query.max_delta, SWEEP_POINTS)
        return {
            "digest": graph.content_digest(),
            "makespans": simulate_sweep(graph, params, deltas).runtimes,
            "envelope": forward_envelope(graph, params, l_min=params.L, l_max=math.inf),
        }
    graph = ALL_APPS[query.app].build(
        query.nranks, params, algorithms=CollectiveAlgorithms(allreduce=query.allreduce)
    )
    ref = {"events": graph.num_events}
    if query.kind == "analyze":
        ref["makespan"] = simulate(graph, params).makespan
        ref["envelope"] = forward_envelope(graph, params, l_min=params.L, l_max=math.inf)
    else:
        Ls = np.linspace(params.L, CURVE_L_MAX, CURVE_POINTS)
        ref["L_us"] = Ls
        ref["makespans"] = simulate_sweep(graph, params, Ls - params.L).runtimes
    return ref


def _check_tolerances(L0, T0, tolerances, envelope, problems) -> None:
    previous = L0
    for degradation, tol in zip(DEGRADATIONS, tolerances):
        if not previous <= tol:
            problems.append(f"tolerance at {degradation:.0%} ({tol}) below {previous}")
        previous = tol
        if math.isfinite(tol) and not _close(envelope.value(tol), (1 + degradation) * T0):
            problems.append(f"T(tolerance {degradation:.0%}) = {envelope.value(tol)} "
                            f"is not {(1 + degradation) * T0}")


def check_analyze(query: Query, answer: dict, ref: dict) -> list[str]:
    problems = []
    L0 = query.params.L
    T0, lam = answer["runtime_us"], answer["lambda_L"]
    if answer["events"] != ref["events"]:
        problems.append(f"events {answer['events']} != {ref['events']}")
    if not _close(T0, ref["makespan"]):
        problems.append(f"runtime_us {T0} != simulated makespan {ref['makespan']}")
    if not _close(lam, ref["envelope"].slope(L0)):
        problems.append(f"lambda_L {lam} != envelope slope {ref['envelope'].slope(L0)}")
    if not _close(answer["rho_L"], L0 * lam / T0):
        problems.append(f"rho_L {answer['rho_L']} != L0*lambda_L/T0")
    tolerances = [answer[f"tolerance_{round(d * 100)}pct_us"] for d in DEGRADATIONS]
    _check_tolerances(L0, T0, tolerances, ref["envelope"], problems)
    return problems


def check_curve(query: Query, answer: dict, ref: dict) -> list[str]:
    problems = []
    if answer["lp_solves"] != 0:
        problems.append(f"curve made {answer['lp_solves']} LP solves, expected 0")
    Ls = np.asarray(answer["L_us"])
    T = np.asarray(answer["runtime_us"])
    lam = np.asarray(answer["lambda_L"])
    if Ls.shape != ref["L_us"].shape or not np.allclose(Ls, ref["L_us"], rtol=REL_TOL, atol=0):
        return problems + ["sampled latencies differ from the requested grid"]
    bad = ~np.isclose(T, ref["makespans"], rtol=REL_TOL, atol=0)
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(f"T({Ls[i]}) = {T[i]} != simulated {ref['makespans'][i]}")
    # T is convex: the slope at each sample lies between the secants around it
    secants = np.diff(T) / np.diff(Ls)
    slack = 4 * REL_TOL * float(np.max(np.abs(T))) / float(np.min(np.diff(Ls)))
    if np.any(lam[:-1] > secants + slack) or np.any(lam[1:] < secants - slack):
        problems.append("lambda_L is not a subgradient of the sampled T(L)")
    crit = answer["critical_latencies_us"]
    if crit != sorted(crit) or (crit and not Ls[0] <= crit[0] <= crit[-1] <= Ls[-1]):
        problems.append("critical latencies unsorted or outside the swept interval")
    return problems


def check_trace(query: Query, answer, ref: dict) -> list[str]:
    sweep, graph = answer
    problems = []
    L0 = query.params.L
    if graph.content_digest() != ref["digest"]:
        problems.append("streamed graph digest differs from the monolithic trace build")
    predicted = np.asarray(sweep.predicted)
    bad = ~np.isclose(predicted, ref["makespans"], rtol=REL_TOL, atol=0)
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(f"predicted {predicted[i]} != simulated {ref['makespans'][i]} "
                        f"at dL={sweep.delta_L[i]}")
    envelope = ref["envelope"]
    slopes = [envelope.slope(L0 + d) for d in sweep.delta_L]
    if not np.allclose(sweep.latency_sensitivity, slopes, rtol=REL_TOL, atol=0):
        problems.append("lambda_L differs from the envelope slopes")
    T0 = sweep.tolerance.baseline_runtime
    tolerances = [sweep.tolerance.tolerance(d) for d in DEGRADATIONS]
    _check_tolerances(L0, T0, tolerances, envelope, problems)
    if not sweep.rrmse * 100 < MAX_RRMSE_PCT:
        problems.append(f"RRMSE {sweep.rrmse * 100:.3f} % is not below {MAX_RRMSE_PCT} %")
    return problems


CHECKS = {"analyze": check_analyze, "curve": check_curve, "trace_validate": check_trace}


class Checker:
    """Checks answers against per-query references computed once per run."""

    def __init__(self) -> None:
        self._references: dict[Query, dict] = {}

    def __call__(self, query: Query, answer) -> list[str]:
        """Problems found in ``answer`` (empty when it is correct)."""
        ref = self._references.get(query)
        if ref is None:
            ref = self._references[query] = reference(query)
        return CHECKS[query.kind](query, answer, ref)
