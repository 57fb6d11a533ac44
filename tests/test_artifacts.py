"""Tests for the content-addressed artifact layer (:mod:`repro.artifacts`).

Covers the three npz round trips (graphs, LPs, envelopes), the content
digests they are keyed by, the on-disk :class:`ArtifactStore`, and the
cached paths wired through :class:`LatencyAnalyzer.batched_sweep`,
:func:`batched_sweep_graphs` and the ``llamp cache`` CLI.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import CSCS_TESTBED
from repro.artifacts import (
    ArtifactFormatError,
    ArtifactStore,
    combine_digests,
    envelope_key,
    load_envelope,
    load_graph,
    load_lp,
    save_envelope,
    save_graph,
    save_lp,
)
from repro.core import BatchedSweep, LatencyAnalyzer, batched_sweep_graphs, build_lp
from repro.lp.assembler import assembly_counts
from repro.network.params import LogGPSParams
from repro.schedgen.builder import build_graph
from repro.schedgen.graph import ExecutionGraph
from repro.testing import (
    build_random_dag,
    build_random_program,
    build_running_example,
    build_staircase,
)

PARAMS = LogGPSParams(L=1.0, o=0.1, g=0.1, G=0.001, S=1024, P=2)

#: golden digests — these pin the byte-level digest contract; they must only
#: ever change together with a bump of the digest domain prefixes
GOLDEN_GRAPH_DIGEST = "6878605d1a185873a249488aba29e5372915132f94495b55cd46e6d663b3f78c"
GOLDEN_PARAMS_DIGEST = "d4072c2920e5006030a28322a6bc4b183a1002f632b9dbd58285e07b884cfbf2"


def graph_cases() -> list[tuple[str, ExecutionGraph]]:
    return [
        ("running-example", build_running_example()),
        ("staircase", build_staircase(6)),
        ("random-dag", build_random_dag(3)),
        ("random-dag-wide", build_random_dag(11, nranks=5, rounds=25)),
    ]


# ---------------------------------------------------------------------------
# content digests
# ---------------------------------------------------------------------------


class TestContentDigests:
    def test_graph_golden_digest_pinned(self):
        # byte-level contract: if this changes, every existing store on disk
        # silently misses — bump the domain prefix instead of re-pinning
        assert build_running_example().content_digest() == GOLDEN_GRAPH_DIGEST

    def test_params_golden_digest_pinned(self):
        assert CSCS_TESTBED.content_digest() == GOLDEN_PARAMS_DIGEST

    def test_graph_digest_deterministic_across_builds(self):
        assert (
            build_random_dag(7).content_digest()
            == build_random_dag(7).content_digest()
        )

    def test_graph_digest_distinguishes_graphs(self):
        digests = {g.content_digest() for _, g in graph_cases()}
        assert len(digests) == len(graph_cases())

    def test_graph_digest_sensitive_to_cost(self):
        assert (
            build_running_example(c0=0.1).content_digest()
            != build_running_example(c0=0.2).content_digest()
        )

    def test_graph_digest_cached_on_instance(self):
        graph = build_running_example()
        assert graph._content_digest is None
        first = graph.content_digest()
        assert graph._content_digest == first
        assert graph.content_digest() == first

    def test_legacy_and_columnar_builds_hash_identically(self):
        # the deterministic-order contract makes content addressing sound:
        # the golden digests were recorded while an op-by-op reference
        # builder and the columnar engine agreed on them
        golden = json.loads(
            (Path(__file__).parent / "data" / "schedgen_golden.json").read_text()
        )
        for seed in (0, 1, 2):
            graph = build_graph(build_random_program(seed, nranks=4, rounds=15))
            assert graph.content_digest() == golden[f"random/default/seed{seed}"]

    def test_params_digest_sensitive_to_every_field(self):
        base = LogGPSParams(L=1.0, o=0.2, g=0.3, G=0.004, S=512, P=4)
        variants = [
            base.replace(L=2.0),
            base.replace(o=0.5),
            base.replace(g=0.6),
            base.replace(G=0.008),
            base.replace(S=1024),
            base.replace(P=8),
        ]
        digests = {p.content_digest() for p in [base, *variants]}
        assert len(digests) == len(variants) + 1

    def test_combine_digests_injective_over_parts(self):
        assert combine_digests("ab", "c") != combine_digests("a", "bc")
        assert combine_digests("a", "b") != combine_digests("a", "b", "")

    def test_envelope_key_ignores_config_order(self):
        graph = build_running_example()
        k1 = envelope_key(graph, PARAMS, l_min=0.0, l_max=5.0, a=1, b=2)
        k2 = envelope_key(graph, PARAMS, l_min=0.0, l_max=5.0, b=2, a=1)
        assert k1 == k2
        assert k1 != envelope_key(graph, PARAMS, l_min=0.0, l_max=6.0, a=1, b=2)


# ---------------------------------------------------------------------------
# graph round trip
# ---------------------------------------------------------------------------


class TestGraphRoundTrip:
    @pytest.mark.parametrize("name,graph", graph_cases(), ids=lambda c: c if isinstance(c, str) else "")
    def test_columns_bit_identical(self, tmp_path, name, graph):
        path = tmp_path / f"{name}.npz"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded.nranks == graph.nranks
        assert loaded.labels == graph.labels
        for column, _ in ExecutionGraph.CONTENT_COLUMNS:
            original = getattr(graph, column)
            restored = getattr(loaded, column)
            assert restored.dtype == original.dtype, column
            assert np.array_equal(restored, original), column

    @pytest.mark.parametrize("name,graph", graph_cases(), ids=lambda c: c if isinstance(c, str) else "")
    def test_digest_preserved(self, tmp_path, name, graph):
        path = tmp_path / f"{name}.npz"
        save_graph(graph, path)
        assert load_graph(path).content_digest() == graph.content_digest()

    def test_same_lp_objective_after_reload(self, tmp_path):
        for name, graph in graph_cases():
            path = tmp_path / f"{name}.npz"
            save_graph(graph, path)
            loaded = load_graph(path)
            original = build_lp(graph, PARAMS).solve_runtime(L=3.0).objective
            restored = build_lp(loaded, PARAMS).solve_runtime(L=3.0).objective
            assert restored == original

    def test_cached_level_structure_restored(self, tmp_path):
        graph = build_random_dag(5)
        graph.topological_order()  # populate the cached views
        assert graph._topo_order is not None and graph._level_indptr is not None
        path = tmp_path / "g.npz"
        save_graph(graph, path)
        loaded = load_graph(path)
        assert loaded._topo_order is not None
        assert np.array_equal(loaded._topo_order, graph._topo_order)
        assert np.array_equal(loaded._level_indptr, graph._level_indptr)

    def test_load_without_level_structure_rederives_lazily(self, tmp_path):
        graph = build_running_example()
        path = tmp_path / "g.npz"
        save_graph(graph, path)
        # strip the stored views to emulate a file saved before they existed
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files
                      if k not in ("topo_order", "level_indptr")}
        np.savez(path, **arrays)
        loaded = load_graph(path)
        assert loaded._topo_order is None
        # and the lazy derivation still works on the loaded instance
        assert np.array_equal(loaded.topological_order(), graph.topological_order())

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "g.npz"
        save_graph(build_running_example(), path)
        with pytest.raises(ArtifactFormatError, match="expected a 'lp'"):
            load_lp(path)
        with pytest.raises(ArtifactFormatError, match="expected a 'envelope'"):
            load_envelope(path)

    def test_not_an_artifact_rejected(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises(ArtifactFormatError, match="not a repro artifact"):
            load_graph(path)

    def test_newer_format_version_rejected(self, tmp_path):
        from repro.artifacts.serialize import FORMAT_VERSION

        path = tmp_path / "g.npz"
        save_graph(build_running_example(), path)
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
        arrays["__version__"] = np.int64(FORMAT_VERSION + 1)
        np.savez(path, **arrays)
        with pytest.raises(ArtifactFormatError, match="newer than supported"):
            load_graph(path)


# ---------------------------------------------------------------------------
# LP round trip
# ---------------------------------------------------------------------------


class TestLPRoundTrip:
    @pytest.mark.parametrize("engine", ["symbolic", "compiled"])
    def test_same_solution_after_reload(self, tmp_path, engine):
        graph = build_random_dag(9)
        model = build_lp(graph, PARAMS, latency_mode="global", engine=engine).model
        expected = model.solve(backend="highs").objective
        path = tmp_path / "m.npz"
        save_lp(model, path)
        loaded, meta = load_lp(path)
        assert meta == {}
        assert loaded.num_vars == model.num_vars
        assert [v.name for v in loaded.variables] == [v.name for v in model.variables]
        assert loaded.solve(backend="highs").objective == pytest.approx(
            expected, rel=1e-12
        )

    def test_compiled_rows_round_trip_exactly(self, tmp_path):
        model = build_lp(
            build_random_dag(4), PARAMS, latency_mode="global", engine="compiled"
        ).model
        original = model.to_arrays()
        path = tmp_path / "m.npz"
        save_lp(model, path)
        restored = load_lp(path)[0].to_arrays()
        assert restored["row_sense"] == original["row_sense"]
        for key in ("lb", "ub", "row_indptr", "row_cols", "row_vals", "row_consts"):
            assert np.array_equal(restored[key], original[key]), key

    def test_meta_round_trip(self, tmp_path):
        graph = build_running_example()
        model = build_lp(graph, PARAMS, latency_mode="global").model
        meta = {"graph": graph.content_digest(), "params": PARAMS.content_digest()}
        path = tmp_path / "m.npz"
        save_lp(model, path, meta=meta)
        assert load_lp(path)[1] == meta

    def test_loaded_model_needs_no_assembly(self, tmp_path):
        # from_arrays pre-populates the assembled cache: solving the loaded
        # model must not lower anything at the Python level
        model = build_lp(
            build_random_dag(2), PARAMS, latency_mode="global", engine="compiled"
        ).model
        path = tmp_path / "m.npz"
        save_lp(model, path)
        loaded, _ = load_lp(path)
        before = assembly_counts()
        loaded.solve(backend="highs")
        after = assembly_counts()
        assert after == before


# ---------------------------------------------------------------------------
# envelope round trip
# ---------------------------------------------------------------------------


class TestEnvelopeRoundTrip:
    def test_piecewise_exact(self, tmp_path):
        graph = build_staircase(5)
        sweep = BatchedSweep(
            build_lp(graph, PARAMS, latency_mode="global"), l_min=0.0, l_max=10.0
        )
        envelope = sweep.envelope
        path = tmp_path / "e.npz"
        save_envelope(envelope, path)
        loaded = load_envelope(path)
        assert loaded.lo == envelope.lo and loaded.hi == envelope.hi
        assert [(ln.slope, ln.intercept) for ln in loaded.lines] == [
            (ln.slope, ln.intercept) for ln in envelope.lines
        ]
        xs = np.linspace(0.0, 10.0, 57)
        assert np.array_equal(loaded.sample(xs), envelope.sample(xs))
        assert loaded.breakpoints() == envelope.breakpoints()

    def test_tangent_exact(self, tmp_path):
        graph_lp = build_lp(build_staircase(4), PARAMS, latency_mode="global")
        envelope = graph_lp.tangent_envelope(0.0, 8.0)
        path = tmp_path / "e.npz"
        save_envelope(envelope, path)
        loaded = load_envelope(path)
        assert [(t.L, t.value, t.slope) for t in loaded.tangents] == [
            (t.L, t.value, t.slope) for t in envelope.tangents
        ]
        assert loaded.breakpoints == envelope.breakpoints
        assert (loaded.lo, loaded.hi, loaded.num_solves) == (
            envelope.lo,
            envelope.hi,
            envelope.num_solves,
        )

    def test_sweep_restored_from_envelope_answers_without_model(self, tmp_path):
        graph = build_staircase(4)
        sweep = BatchedSweep(
            build_lp(graph, PARAMS, latency_mode="global"), l_min=0.0, l_max=8.0
        )
        path = tmp_path / "e.npz"
        save_envelope(sweep.envelope, path)
        restored = BatchedSweep.from_envelope(load_envelope(path))
        assert restored.graph_lp is None
        assert restored.num_solves == 0
        xs = np.linspace(0.0, 8.0, 33)
        assert np.array_equal(restored.values(xs), sweep.values(xs))
        with pytest.raises(ValueError, match="restored from a cached envelope"):
            restored._build_envelope()

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="PiecewiseLinear or TangentEnvelope"):
            save_envelope(object(), tmp_path / "e.npz")


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class TestArtifactStore:
    def test_get_or_build_miss_then_hit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        graph = build_running_example()
        key = graph.content_digest()
        builds = []

        def builder():
            builds.append(1)
            return graph

        first = store.get_or_build_graph(key, builder)
        second = store.get_or_build_graph(key, builder)
        assert len(builds) == 1
        assert first.content_digest() == second.content_digest() == key
        assert store.misses["graph"] == 1 and store.hits["graph"] == 1
        assert store.contains("graph", key)

    def test_layout_uses_two_char_fanout(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = "abcdef0123"
        assert store.path_for("graph", key) == tmp_path / "graph" / "ab" / f"{key}.npz"

    def test_bad_key_and_kind_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError, match="hex digest"):
            store.path_for("graph", "../../evil")
        with pytest.raises(ValueError, match="hex digest"):
            store.path_for("graph", "abc")  # too short
        with pytest.raises(ValueError, match="unknown artifact kind"):
            store.path_for("plan", "abcdef")

    def test_corrupt_entry_deleted_and_rebuilt(self, tmp_path):
        store = ArtifactStore(tmp_path)
        graph = build_running_example()
        key = graph.content_digest()
        store.put("graph", key, graph)
        path = store.path_for("graph", key)
        path.write_bytes(b"not an npz archive")
        assert store.get("graph", key) is None
        assert not path.exists()
        rebuilt = store.get_or_build_graph(key, lambda: graph)
        assert rebuilt.content_digest() == key
        assert store.contains("graph", key)

    def test_get_or_build_lp_returns_model_both_paths(self, tmp_path):
        store = ArtifactStore(tmp_path)
        model = build_lp(build_running_example(), PARAMS, latency_mode="global").model
        key = combine_digests("lp", "test")
        cold = store.get_or_build_lp(key, lambda: model)
        warm = store.get_or_build_lp(key, lambda: model)
        assert cold is model
        assert warm.num_vars == model.num_vars  # loaded copy, not a tuple

    def test_stats_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        graph = build_running_example()
        store.put("graph", graph.content_digest(), graph)
        sweep = BatchedSweep(
            build_lp(graph, PARAMS, latency_mode="global"), l_min=0.0, l_max=5.0
        )
        store.put("envelope", envelope_key(graph, PARAMS, l_min=0.0, l_max=5.0),
                  sweep.envelope)
        stats = store.stats()
        assert stats["kinds"]["graph"]["entries"] == 1
        assert stats["kinds"]["envelope"]["entries"] == 1
        assert stats["total_entries"] == 2
        assert stats["total_bytes"] > 0
        assert store.clear("envelope") == 1
        assert store.stats()["total_entries"] == 1
        assert store.clear() == 1
        assert store.stats()["total_entries"] == 0


# ---------------------------------------------------------------------------
# the cached analyzer path (the PR's acceptance criterion)
# ---------------------------------------------------------------------------


class TestAnalyzerCache:
    def test_repeat_sweep_performs_zero_new_assemblies(self, tmp_path):
        graph = build_random_dag(13)
        xs = np.linspace(PARAMS.L, 50.0, 31)

        cold = LatencyAnalyzer(graph, PARAMS, cache_dir=str(tmp_path))
        cold_values = cold.batched_sweep(l_max=50.0).values(xs)
        assert cold.store.misses["envelope"] == 1

        warm = LatencyAnalyzer(graph, PARAMS, cache_dir=str(tmp_path))
        before = assembly_counts()
        sweep = warm.batched_sweep(l_max=50.0)
        warm_values = sweep.values(xs)
        after = assembly_counts()

        assert after == before  # zero new CSR assemblies, full or rows
        assert warm._lp is None  # the LP was never even built
        assert warm.store.hits["envelope"] == 1
        assert sweep.num_solves == 0
        assert np.array_equal(warm_values, cold_values)

    def test_cache_key_separates_intervals_and_params(self, tmp_path):
        graph = build_running_example()
        analyzer = LatencyAnalyzer(graph, PARAMS, cache_dir=str(tmp_path))
        analyzer.batched_sweep(l_max=5.0)
        analyzer.batched_sweep(l_max=7.0)
        other = LatencyAnalyzer(
            graph, PARAMS.replace(G=0.01), cache_dir=str(tmp_path)
        )
        other.batched_sweep(l_max=5.0)
        assert ArtifactStore(tmp_path).stats()["kinds"]["envelope"]["entries"] == 3

    def test_uncached_analyzer_has_no_store(self):
        analyzer = LatencyAnalyzer(build_running_example(), PARAMS)
        assert analyzer.store is None


class TestSharedEnvelopeKey:
    """Analyzer, ``batched_sweep_graphs`` and the sweep pool share one key."""

    def test_analyzer_warmed_entry_hits_graph_sweeps_and_pool_tasks(
        self, tmp_path, monkeypatch
    ):
        from repro.parallel import SweepTask

        graph = build_random_dag(27)
        warmed = LatencyAnalyzer(graph, PARAMS, cache_dir=str(tmp_path))
        reference = warmed.batched_sweep(l_max=40.0).envelope
        store = ArtifactStore(tmp_path)
        assert store.stats()["kinds"]["envelope"]["entries"] == 1

        task = SweepTask(
            graph.content_digest(), PARAMS.content_digest(),
            l_min=PARAMS.L, l_max=40.0,
        )
        assert store.contains("envelope", task.store_key())

        # a hit must never build: make every envelope builder fail
        def refuse(*args, **kwargs):
            raise AssertionError("envelope rebuilt instead of served from the store")

        monkeypatch.setattr("repro.core.envelope.forward_envelope", refuse)
        monkeypatch.setattr("repro.core.lp_builder.build_lp", refuse)
        served = batched_sweep_graphs(
            [graph], PARAMS, l_min=PARAMS.L, l_max=40.0, cache_dir=str(tmp_path)
        )
        xs = np.linspace(PARAMS.L, 40.0, 17)
        assert np.array_equal(served[0].sample(xs), reference.sample(xs))
        assert store.stats()["kinds"]["envelope"]["entries"] == 1

    def test_gap_symbolic_is_the_global_gap_mode(self, tmp_path):
        graph = build_random_dag(27)
        LatencyAnalyzer(
            graph, PARAMS, gap_symbolic=True, cache_dir=str(tmp_path)
        ).batched_sweep(l_max=40.0)
        key = envelope_key(
            graph, PARAMS, l_min=PARAMS.L, l_max=40.0, gap_mode="global"
        )
        assert ArtifactStore(tmp_path).contains("envelope", key)

    def test_lp_engine_and_defaults_do_not_split_the_key(self):
        graph = build_running_example()
        base = envelope_key(graph, PARAMS, l_min=0.0, l_max=5.0)
        assert base == envelope_key(
            graph, PARAMS, l_min=0.0, l_max=5.0, engine="symbolic",
            latency_mode="global", gap_mode="constant", max_pieces=50_000,
        )
        assert base != envelope_key(graph, PARAMS, l_min=0.0, l_max=5.0, max_pieces=9)


class TestBatchedSweepGraphsCache:
    def test_duplicate_graphs_share_one_entry(self, tmp_path):
        graph = build_random_dag(21)
        envelopes = batched_sweep_graphs(
            [graph, build_random_dag(21)], PARAMS,
            l_min=PARAMS.L, l_max=40.0, cache_dir=str(tmp_path),
        )
        store = ArtifactStore(tmp_path)
        assert store.stats()["kinds"]["envelope"]["entries"] == 1
        xs = np.linspace(PARAMS.L, 40.0, 17)
        assert np.array_equal(envelopes[0].sample(xs), envelopes[1].sample(xs))

        # a second run over the same inputs is answered purely from disk
        before = assembly_counts()
        again = batched_sweep_graphs(
            [graph], PARAMS, l_min=PARAMS.L, l_max=40.0, cache_dir=str(tmp_path)
        )
        assert assembly_counts() == before
        assert np.array_equal(again[0].sample(xs), envelopes[0].sample(xs))


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------


class TestCacheCLI:
    def test_warm_stats_clear_cycle(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        assert main(["cache", "warm", "lulesh", "--dir", store_dir,
                     "--nranks", "4", "--l-max", "50", "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["app"] == "lulesh"
        assert len(warm["graph_key"]) == 64

        assert main(["cache", "stats", "--dir", store_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["kinds"]["graph"]["entries"] == 1
        assert stats["kinds"]["lp"]["entries"] == 1
        assert stats["kinds"]["envelope"]["entries"] == 1

        # warming again is pure hits: entry counts do not grow
        assert main(["cache", "warm", "lulesh", "--dir", store_dir,
                     "--nranks", "4", "--l-max", "50", "--json"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", store_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["total_entries"] == 3

        assert main(["cache", "clear", "--dir", store_dir, "--kind", "lp"]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--dir", store_dir]) == 0
        assert "removed 2 entries" in capsys.readouterr().out

    def test_warm_requires_app(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="application skeleton"):
            main(["cache", "warm", "--dir", str(tmp_path)])

    def test_stats_human_readable(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "total" in out and "0 entries" in out
