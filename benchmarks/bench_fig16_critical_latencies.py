"""Figure 16 / Algorithm 2 — critical latencies within an interval.

Beyond the toy example (covered in ``bench_fig04_running_example``), this
benchmark sweeps an application graph and cross-checks the LP-based
breakpoint search (our Algorithm 2 equivalent) against the exact parametric
envelope: both must find the same critical latencies, and λ_L must be
constant between consecutive breakpoints.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import CSCS_TESTBED
from repro.apps import lulesh
from repro.core import build_lp, find_critical_latencies, forward_envelope
from repro.core.critical_latency import critical_latency_curve

from _bench_utils import emit_json, print_header, print_rows

NRANKS = 8
ITERATIONS = 4
L_MIN, L_MAX = CSCS_TESTBED.L, 400.0


def _run():
    graph = lulesh.build(NRANKS, params=CSCS_TESTBED, iterations=ITERATIONS)
    lp = build_lp(graph, CSCS_TESTBED)
    lp_breakpoints = find_critical_latencies(lp, L_MIN, L_MAX)
    parametric = forward_envelope(graph, CSCS_TESTBED, l_min=0.0, l_max=L_MAX)
    exact_breakpoints = [b for b in parametric.breakpoints() if L_MIN < b < L_MAX]
    tangents = critical_latency_curve(lp, L_MIN, L_MAX)
    return lp_breakpoints, exact_breakpoints, tangents, parametric, lp


def test_fig16_critical_latencies(run_once):
    lp_breakpoints, exact_breakpoints, tangents, parametric, lp = run_once(_run)

    print_header("Algorithm 2 / Fig. 16 — critical latencies of LULESH "
                 f"({NRANKS} ranks) in [{L_MIN}, {L_MAX}] µs")
    print(f"LP-based search found   : {[round(b, 3) for b in lp_breakpoints]}")
    print(f"parametric engine found : {[round(b, 3) for b in exact_breakpoints]}")
    print("\nλ_L per segment (probed at segment mid-points):")
    print_rows(["segment mid L [µs]", "T [µs]", "λ_L"],
               [[t.L, t.value, t.slope] for t in tangents])

    emit_json("fig16_critical_latencies", {
        "lp_breakpoints_us": list(lp_breakpoints),
        "exact_breakpoints_us": list(exact_breakpoints),
        "segments": [{"L_us": t.L, "T_us": t.value, "lambda_L": t.slope}
                     for t in tangents],
    })

    # every breakpoint the LP search reports must be a genuine breakpoint of
    # the exact envelope (the envelope may additionally contain breakpoints
    # whose runtime effect is below the LP search's numerical tolerance)
    assert lp_breakpoints, "the interval must contain at least one critical latency"
    for a in lp_breakpoints:
        assert min(abs(a - b) for b in exact_breakpoints) < 1.0
    # λ_L is a non-decreasing step function across the segments
    slopes = [t.slope for t in tangents]
    assert all(b >= a - 1e-9 for a, b in zip(slopes, slopes[1:]))
    # and matches the parametric slope inside each segment
    for t in tangents:
        assert t.slope == pytest.approx(parametric.slope(t.L), abs=1e-6)
    # the two methods agree on T(L) across the whole interval
    for L in np.linspace(L_MIN, L_MAX, 7):
        assert parametric.value(L) == pytest.approx(
            lp.solve_runtime(L=float(L)).objective, rel=1e-9)
