"""Determinism of the validation sweep: noise seeding, plan reuse, batching.

Covers the :func:`repro.analysis.validation.noise_seed` scheme that replaced
the colliding ``rep * 7919 + point`` arithmetic, the per-graph
``_LevelPlan`` cache that lets every level-engine simulation of the same
``(graph, params)`` pair skip the plan rebuild, and the batched measurement:
one ``simulate_sweep`` call over every ``(repetition, ΔL)`` row must
reproduce the separate ``simulate`` runs bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.validation import noise_seed, run_validation_sweep
from repro.core import LatencyAnalyzer
from repro.network.params import LogGPSParams
from repro.simulator.columnar import _LEVEL_PLAN_CACHE_SIZE, get_level_plan
from repro.simulator import (
    INJECTOR_NAMES,
    LogGOPSSimulator,
    make_injector,
    simulate,
    simulate_sweep,
)
from repro.simulator.noise import GaussianNoise, NoNoise, OSJitterNoise
from repro.testing import build_random_dag

PARAMS = LogGPSParams(L=1.0, o=0.1, g=0.1, G=0.001, S=1024, P=2)


class TestNoiseSeed:
    def test_deterministic(self):
        a = np.random.default_rng(noise_seed(2, 5)).random(8)
        b = np.random.default_rng(noise_seed(2, 5)).random(8)
        assert np.array_equal(a, b)

    def test_old_collision_pair_now_distinct(self):
        # the arithmetic scheme mapped (rep=0, point=7919) and (rep=1,
        # point=0) to the same seed; the SeedSequence keying must not
        a = np.random.default_rng(noise_seed(0, 7919)).random(8)
        b = np.random.default_rng(noise_seed(1, 0)).random(8)
        assert not np.array_equal(a, b)

    def test_streams_pairwise_independent(self):
        draws = {}
        for rep in range(3):
            for point in range(4):
                key = tuple(np.random.default_rng(noise_seed(rep, point)).random(4))
                assert key not in draws.values()
                draws[(rep, point)] = key

    def test_gaussian_noise_accepts_seed_sequence(self):
        noise = GaussianNoise(sigma=0.1, seed=noise_seed(1, 2))
        noise.reset()
        first = [noise.perturb(1.0) for _ in range(5)]
        noise.reset()
        replay = [noise.perturb(1.0) for _ in range(5)]
        assert first == replay


class TestLevelPlanCache:
    def test_same_params_reuses_plan_instance(self):
        graph = build_random_dag(17)
        first = get_level_plan(graph, PARAMS)
        second = get_level_plan(graph, PARAMS)
        assert second is first
        assert first.reuse_count == 1

    def test_cache_keyed_by_params_digest(self):
        graph = build_random_dag(17)
        a = get_level_plan(graph, PARAMS)
        b = get_level_plan(graph, PARAMS.replace(L=9.0))
        assert b is not a
        assert len(graph._level_plan_cache) == 2

    def test_cache_is_bounded_fifo(self):
        graph = build_random_dag(17)
        plans = [get_level_plan(graph, PARAMS.replace(L=float(i + 1)))
                 for i in range(_LEVEL_PLAN_CACHE_SIZE + 1)]
        assert len(graph._level_plan_cache) == _LEVEL_PLAN_CACHE_SIZE
        # the oldest entry was evicted; re-requesting it builds a new plan
        again = get_level_plan(graph, PARAMS.replace(L=1.0))
        assert again is not plans[0]

    def test_validation_sweep_builds_plan_once(self):
        graph = build_random_dag(23, nranks=4, rounds=15)
        deltas = [0.0, 5.0, 10.0]
        repetitions = 3
        run_validation_sweep(
            graph,
            PARAMS,
            delta_Ls=deltas,
            repetitions=repetitions,
        )
        # the prediction's envelope builds the single (graph, params) plan;
        # every (rep, delta) run is a row of the one batched simulation call,
        # which reuses it once
        plans = list(graph._level_plan_cache.values())
        assert len(plans) == 1
        assert plans[0].reuse_count == 1

    def test_analyzer_envelope_and_simulation_share_plan(self):
        graph = build_random_dag(23, nranks=4, rounds=15)
        analyzer = LatencyAnalyzer(graph, PARAMS)
        analyzer.summary()
        analyzer.simulate()
        plans = list(graph._level_plan_cache.values())
        assert len(plans) == 1
        assert plans[0].reuse_count == 1


class TestSweepReproducibility:
    def test_identical_runs_bitwise_equal(self):
        graph = build_random_dag(29)
        kwargs = dict(delta_Ls=[0.0, 4.0, 8.0], repetitions=2)
        a = run_validation_sweep(graph, PARAMS, **kwargs)
        b = run_validation_sweep(graph, PARAMS, **kwargs)
        assert np.array_equal(a.measured, b.measured)
        assert np.array_equal(a.predicted, b.predicted)

    def test_level_and_legacy_measurements_agree(self):
        # the sweep's level-engine measurements vs the per-vertex reference
        # walk under the same injector and noise seeds
        graph = build_random_dag(31)
        deltas, repetitions = [0.0, 6.0], 2
        level = run_validation_sweep(
            graph, PARAMS, delta_Ls=deltas, repetitions=repetitions
        )
        reference = [
            np.mean([
                LogGOPSSimulator(
                    graph, PARAMS, injector=make_injector("delay_thread", delta),
                    noise=GaussianNoise(sigma=0.002, seed=noise_seed(rep, i)),
                ).run().makespan
                for rep in range(repetitions)
            ])
            for i, delta in enumerate(deltas)
        ]
        assert level.measured == pytest.approx(reference, rel=1e-12, abs=1e-9)


class TestBatchedMeasurement:
    DELTAS = (0.0, 2.5, 9.0)
    REPETITIONS = 10  # the paper's count; more than 8 samples sum pairwise
    #: run_validation_sweep keywords -> the noise of run (rep, point)
    NOISE_CASES = {
        "gaussian": ({}, lambda rep, i: GaussianNoise(sigma=0.002, seed=noise_seed(rep, i))),
        "none": ({"noise_sigma": 0.0}, lambda rep, i: NoNoise()),
        "explicit_jitter": (
            {"noise": OSJitterNoise(probability=0.3, spike=7.0, seed=5)},
            lambda rep, i: OSJitterNoise(probability=0.3, spike=7.0, seed=5),
        ),
    }

    @pytest.mark.parametrize("injector", INJECTOR_NAMES)
    @pytest.mark.parametrize("noise_case", sorted(NOISE_CASES))
    def test_measured_equals_per_run_loop(self, injector, noise_case):
        graph = build_random_dag(37, nranks=4, rounds=14)
        kwargs, run_noise = self.NOISE_CASES[noise_case]
        sweep = run_validation_sweep(
            graph, PARAMS, delta_Ls=self.DELTAS, repetitions=self.REPETITIONS,
            injector=injector, **kwargs,
        )
        loop = [
            np.mean([
                simulate(
                    graph, PARAMS, injector=make_injector(injector, delta),
                    noise=run_noise(rep, i),
                ).makespan
                for rep in range(self.REPETITIONS)
            ])
            for i, delta in enumerate(self.DELTAS)
        ]
        np.testing.assert_array_equal(sweep.measured, loop)

    @pytest.mark.parametrize("injector", INJECTOR_NAMES)
    def test_sweep_per_point_noise_list(self, injector):
        graph = build_random_dag(41, nranks=4, rounds=12)
        deltas = [0.0, 4.0, 4.0, 12.0]
        models = [GaussianNoise(sigma=0.05, seed=noise_seed(0, i)) for i in range(len(deltas))]
        sweep = simulate_sweep(graph, PARAMS, deltas, injector=injector, noise=models)
        for i, delta in enumerate(deltas):
            point = simulate(
                graph, PARAMS, injector=make_injector(injector, delta),
                noise=GaussianNoise(sigma=0.05, seed=noise_seed(0, i)),
            )
            assert sweep.makespan[i] == point.makespan
            np.testing.assert_array_equal(sweep.rank_finish[i], point.rank_finish)
        # the two rows at ΔL = 4 differ only in their noise streams
        assert sweep.makespan[1] != sweep.makespan[2]

    def test_wrong_length_noise_rejected(self):
        graph = build_random_dag(41)
        with pytest.raises(ValueError, match="argument 'noise'"):
            simulate_sweep(graph, PARAMS, [0.0, 1.0], noise=[NoNoise()])
