"""Seeded query lists of the three workloads and the code that runs one query.

The seed permutes the query order and draws each query's latency ``L`` and
overhead ``o`` within ±20 % of ``CSCS_TESTBED`` (and, for
``trace_validate``, the ΔL span of the validation sweep).  The eager/
rendezvous threshold ``S`` is never drawn, and
``ProtocolConfig.from_params`` depends on ``S`` only, so graph structure and
every count but the trace file sizes are the same for every seed.  The program receives only the
generated argv and trace files.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import cli
from repro.analysis import validation
from repro.core import analyzer
from repro.network.params import CSCS_TESTBED
from repro.schedgen import streaming

ANALYZE_APPS = ("lulesh", "milc", "hpcg", "icon", "lammps", "cloverleaf", "openmx")
ANALYZE_RANKS = 8
CURVE_APPS = (("lulesh", 125), ("milc", 128), ("icon", 64), ("hpcg", 64))
TRACE_APPS = (("lulesh", 8), ("milc", 8), ("icon", 16), ("lammps", 8))

#: validation sweep shape of trace_validate: points and repetitions per point
SWEEP_POINTS = 6
SWEEP_REPETITIONS = 10
#: largest latency of every curve query (the CLI default) and its point count
CURVE_L_MAX = 1000.0
CURVE_POINTS = 11


@dataclass(frozen=True)
class Query:
    """One query of a workload: a CLI argv, or a trace-validation request."""

    kind: str  # "analyze", "curve" or "trace_validate"
    app: str
    nranks: int
    latency: float
    overhead: float
    allreduce: str = "recursive_doubling"
    max_delta: float = 0.0
    trace_path: str = ""

    @property
    def label(self) -> str:
        ring = " ring" if self.allreduce == "ring" else ""
        return f"{self.kind} {self.app}{ring} {self.nranks}"

    @property
    def params(self):
        return CSCS_TESTBED.replace(L=self.latency, o=self.overhead)

    def argv(self) -> list[str]:
        """The ``llamp`` argv of a CLI query."""
        argv = ["--latency", repr(self.latency), "--overhead", repr(self.overhead),
                self.kind, self.app, "--nranks", str(self.nranks), "--json"]
        if self.allreduce != "recursive_doubling":
            argv += ["--allreduce", self.allreduce]
        return argv

    def trace_argv(self) -> list[str]:
        """The ``llamp trace`` argv that writes this query's input trace."""
        return ["--latency", repr(self.latency), "--overhead", repr(self.overhead),
                "trace", self.app, "--nranks", str(self.nranks),
                "--output", self.trace_path]


def _jitter(rng: random.Random, value: float) -> float:
    return value * rng.uniform(0.8, 1.2)


def make_queries(workload: str, seed: int, work_dir: Path) -> list[Query]:
    """The seeded query list of ``workload`` (trace inputs live in ``work_dir``)."""
    rng = random.Random(f"{workload}:{seed}")
    L, o = CSCS_TESTBED.L, CSCS_TESTBED.o
    if workload == "analyze_mix":
        specs = [("analyze", app, ANALYZE_RANKS, "recursive_doubling") for app in ANALYZE_APPS]
        specs.append(("analyze", "icon", ANALYZE_RANKS, "ring"))
    elif workload == "curve_large":
        specs = [("curve", app, n, "recursive_doubling") for app, n in CURVE_APPS]
    elif workload == "trace_validate":
        specs = [("trace_validate", app, n, "recursive_doubling") for app, n in TRACE_APPS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    queries = []
    for kind, app, nranks, allreduce in specs:
        extra = {}
        if kind == "trace_validate":
            extra = {"max_delta": _jitter(rng, 100.0),
                     "trace_path": str(work_dir / f"{app}-{nranks}.trace")}
        queries.append(Query(kind, app, nranks, _jitter(rng, L), _jitter(rng, o),
                             allreduce, **extra))
    rng.shuffle(queries)
    return queries


def warmup_query(workload: str, work_dir: Path) -> Query:
    """A small fixed query of the workload's kind, run during set-up."""
    L, o = CSCS_TESTBED.L, CSCS_TESTBED.o
    if workload == "analyze_mix":
        return Query("analyze", "icon", 4, L, o)
    if workload == "curve_large":
        return Query("curve", "icon", 16, L, o)
    return Query("trace_validate", "icon", 4, L, o, max_delta=100.0,
                 trace_path=str(work_dir / "warmup-icon-4.trace"))


def write_trace(query: Query) -> None:
    """Write the query's input trace with ``llamp trace`` (set-up work)."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(query.trace_argv())
    if code != 0:
        raise RuntimeError(f"llamp trace exited with {code} for {query.label}")


def run_query(query: Query):
    """Run one query through the user-facing entry point; return its answer.

    CLI queries return the parsed ``--json`` output; trace queries return the
    :class:`~repro.analysis.validation.ValidationSweep` and the analysed graph.
    Functions are looked up on their modules at call time, so the tracer's
    wrappers are seen.
    """
    if query.kind == "trace_validate":
        params = query.params
        batches = streaming.batches_from_trace_chunked(query.trace_path)
        graph = analyzer.LatencyAnalyzer.from_batches(batches, batches.nranks, params).graph
        sweep = validation.run_validation_sweep(
            graph, params, app=query.app,
            delta_Ls=np.linspace(0.0, query.max_delta, SWEEP_POINTS),
            repetitions=SWEEP_REPETITIONS,
        )
        return sweep, graph
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(query.argv())
    if code != 0:
        raise RuntimeError(f"llamp exited with {code} for {query.label}")
    return out.getvalue()


def parse_answer(query: Query, raw):
    """Turn a raw answer into what the checks read (JSON text → dict)."""
    return raw if query.kind == "trace_validate" else json.loads(raw)
