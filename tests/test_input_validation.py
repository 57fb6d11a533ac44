"""Public entry points reject non-finite inputs with a message naming the argument."""

import math

import pytest

from repro.core import find_critical_latencies, forward_envelope
from repro.network.params import LogGPSParams
from repro.simulator import simulate, simulate_sweep
from repro.testing import build_running_example

PARAMS = LogGPSParams(L=0.5, o=0.0, g=0.0, G=0.0)
NAN, INF = math.nan, math.inf


def _graph():
    return build_running_example()


CASES = {
    "params_L_nan": (lambda: LogGPSParams(L=NAN), "L must be finite"),
    "params_o_inf": (lambda: LogGPSParams(o=INF), "o must be finite"),
    "params_G_nan": (lambda: LogGPSParams(G=NAN), "G must be finite"),
    "simulate_delta_L_nan": (
        lambda: simulate(_graph(), PARAMS, delta_L=NAN), "delta_L must be finite"
    ),
    "simulate_delta_L_inf": (
        lambda: simulate(_graph(), PARAMS, delta_L=INF), "delta_L must be finite"
    ),
    "simulate_sweep_deltas_nan": (
        lambda: simulate_sweep(_graph(), PARAMS, [0.0, NAN]), "deltas must be finite"
    ),
    "forward_envelope_l_max_nan": (
        lambda: forward_envelope(_graph(), PARAMS, l_max=NAN),
        r"require 0 <= l_min < l_max",
    ),
    "forward_envelope_l_min_nan": (
        lambda: forward_envelope(_graph(), PARAMS, l_min=NAN, l_max=5.0),
        r"require 0 <= l_min < l_max",
    ),
    "critical_latencies_l_max_nan": (
        lambda: find_critical_latencies(_graph(), 0.0, NAN, params=PARAMS),
        r"require 0 <= l_min < l_max",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_input_rejected(case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_infinite_upper_latency_still_accepted():
    unbounded = forward_envelope(_graph(), PARAMS, l_max=INF)
    bounded = forward_envelope(_graph(), PARAMS, l_max=10.0)
    assert unbounded.value(0.5) == bounded.value(0.5)
