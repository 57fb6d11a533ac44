"""Public entry points reject non-finite inputs with a message naming the argument."""

import math

import pytest

from repro.analysis.validation import run_validation_sweep
from repro.cli import main as cli_main
from repro.core import (
    BatchedSweep,
    LatencyAnalyzer,
    build_lp,
    find_critical_latencies,
    forward_envelope,
)
from repro.network.params import LogGPSParams
from repro.simulator import simulate, simulate_sweep
from repro.testing import build_running_example

PARAMS = LogGPSParams(L=0.5, o=0.0, g=0.0, G=0.0)
NAN, INF = math.nan, math.inf


def _graph():
    return build_running_example()


def _analyzer():
    return LatencyAnalyzer(_graph(), PARAMS)


def _per_pair_gap_lp():
    """An LP outside the forward engine's contract: its envelope comes from
    the HiGHS tangent search."""
    return build_lp(_graph(), PARAMS, gap_mode="per_pair")


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
    "batched_sweep_l_min_nan": (
        lambda: BatchedSweep(_per_pair_gap_lp(), l_min=NAN).envelope,
        r"require 0 <= l_min < l_max",
    ),
    "batched_sweep_l_max_nan": (
        lambda: BatchedSweep(_per_pair_gap_lp(), l_max=NAN).envelope,
        r"require 0 <= l_min < l_max",
    ),
    "batched_sweep_lp_l_max_inf": (
        lambda: BatchedSweep(_per_pair_gap_lp(), l_max=INF).envelope,
        "argument 'l_max' to tangent_envelope: .* finite",
    ),
    "batched_sweep_max_solves_zero": (
        lambda: BatchedSweep(_per_pair_gap_lp(), max_solves=0),
        "max_solves must be positive",
    ),
    "lp_oracle_l_max_inf": (
        lambda: BatchedSweep(build_lp(_graph(), PARAMS), l_max=INF).lp_envelope(),
        "argument 'l_max' to tangent_envelope",
    ),
    "tangent_envelope_l_min_nan": (
        lambda: _per_pair_gap_lp().tangent_envelope(NAN, 5.0),
        r"require 0 <= l_min < l_max",
    ),
    "predict_runtime_delta_L_nan": (
        lambda: _analyzer().predict_runtime(NAN),
        "argument 'delta_L' to predict_runtime: must be finite and non-negative",
    ),
    "predict_runtime_delta_L_inf": (
        lambda: _analyzer().predict_runtime(INF),
        "argument 'delta_L' to predict_runtime",
    ),
    "latency_sensitivity_delta_L_negative": (
        lambda: _analyzer().latency_sensitivity(-5.0),
        "argument 'delta_L' to latency_sensitivity",
    ),
    "l_ratio_delta_L_negative": (
        lambda: _analyzer().l_ratio(-5.0), "argument 'delta_L' to l_ratio"
    ),
    "latency_tolerance_degradation_nan": (
        lambda: _analyzer().latency_tolerance(NAN),
        "argument 'degradation' to latency_tolerance",
    ),
    "parametric_tolerance_degradation_negative": (
        lambda: _analyzer().parametric().latency_tolerance(-0.01),
        "argument 'degradation' to latency_tolerance",
    ),
    "tolerance_report_degradation_inf": (
        lambda: _analyzer().tolerance_report([0.01, INF]),
        "argument 'degradation' to latency_tolerance",
    ),
    "sensitivity_curve_delta_Ls_nan": (
        lambda: _analyzer().sensitivity_curve([0.0, NAN]),
        "argument 'delta_Ls' to sensitivity_curve",
    ),
    "run_validation_sweep_delta_Ls_nan": (
        lambda: run_validation_sweep(_graph(), PARAMS, delta_Ls=[NAN]),
        "argument 'delta_Ls' to run_validation_sweep",
    ),
    "run_validation_sweep_repetitions_zero": (
        lambda: run_validation_sweep(_graph(), PARAMS, repetitions=0),
        "argument 'repetitions' to run_validation_sweep",
    ),
    "run_validation_sweep_noise_sigma_nan": (
        lambda: run_validation_sweep(_graph(), PARAMS, noise_sigma=NAN),
        "argument 'noise_sigma' to run_validation_sweep",
    ),
    "run_validation_sweep_noise_sigma_negative": (
        lambda: run_validation_sweep(_graph(), PARAMS, noise_sigma=-0.01),
        "argument 'noise_sigma' to run_validation_sweep",
    ),
    "run_validation_sweep_injector_unknown": (
        lambda: run_validation_sweep(_graph(), PARAMS, injector="warp"),
        "argument 'injector' to run_validation_sweep",
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
    # the LP-backed sweep of a forward-compatible LP takes the forward path
    sweep = BatchedSweep(build_lp(_graph(), PARAMS), l_max=INF)
    assert sweep.value(0.5) == bounded.value(0.5) and sweep.num_solves == 0


CLI_CASES = {
    "nranks_zero": (["analyze", "icon", "--nranks", "0"], "--nranks"),
    "nranks_not_int": (["analyze", "icon", "--nranks", "four"], "--nranks"),
    "points_zero": (["curve", "icon", "--nranks", "4", "--points", "0"], "--points"),
    "l_max_inf": (["curve", "icon", "--nranks", "4", "--l-max", "inf", "--json"], "--l-max"),
    "max_delta_nan": (["sweep", "icon", "--nranks", "4", "--max-delta", "nan"], "--max-delta"),
    "sweep_points_negative": (["sweep", "icon", "--points", "-2"], "--points"),
    "latency_negative": (["--latency", "-1", "analyze", "icon"], "--latency"),
    "overhead_nan": (["--overhead", "nan", "analyze", "icon"], "--overhead"),
    "gap_inf": (["--gap", "inf", "analyze", "icon"], "--gap"),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_rejects_bad_argument(case, capsys):
    argv, flag = CLI_CASES[case]
    with pytest.raises(SystemExit) as exit_info:
        cli_main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}: " in captured.err
    assert captured.out == ""
