"""Parity tests: the vectorised LP compiler vs the symbolic Algorithm 1 sweep.

The compiled engine must produce a *bit-compatible* LP structure — the same
variables in the same order and row-equivalent constraints in the same row
order — so that objectives, duals and every reduced-cost sensitivity agree
with the symbolic build, and the parametric machinery (bound-only updates,
the tangent-envelope search, placement) runs unchanged on compiled models.
"""

import numpy as np
import pytest

from repro.core import build_lp
from repro.core.parametric import BatchedSweep
from repro.lp.assembler import assemble
from repro.lp.model import LPModel
from repro.network.params import LogGPSParams
from repro.testing import build_random_dag, build_running_example, build_staircase

PARAMS = LogGPSParams(L=1.2, o=0.25, g=0.0, G=0.005)

LATENCY_MODES = ("global", "per_pair", "constant")
GAP_MODES = ("constant", "global", "per_pair")
OVERHEAD_MODES = ("constant", "global")
ALL_MODES = [
    (lm, gm, om)
    for lm in LATENCY_MODES
    for gm in GAP_MODES
    for om in OVERHEAD_MODES
]

#: ≥10 random DAGs (varying shape/rank count) + the two structured graphs.
DAGS = [build_random_dag(seed, nranks=3 + seed % 3, rounds=8 + seed % 5) for seed in range(10)]
GRAPHS = [build_running_example(), build_staircase(4), *DAGS]


def _build_pair(graph, lm, gm, om):
    symbolic = build_lp(
        graph, PARAMS, latency_mode=lm, gap_mode=gm, overhead_mode=om,
        engine="symbolic",
    )
    compiled = build_lp(
        graph, PARAMS, latency_mode=lm, gap_mode=gm, overhead_mode=om,
        engine="compiled",
    )
    return symbolic, compiled


class TestStructuralIdentity:
    @pytest.mark.parametrize("lm,gm,om", ALL_MODES)
    def test_same_variables_and_rows(self, lm, gm, om):
        for graph in GRAPHS:
            symbolic, compiled = _build_pair(graph, lm, gm, om)
            assert [v.name for v in symbolic.model.variables] == [
                v.name for v in compiled.model.variables
            ]
            assert [v.lb for v in symbolic.model.variables] == [
                v.lb for v in compiled.model.variables
            ]
            assert symbolic.model.num_constraints == compiled.model.num_constraints
            assert symbolic.sink_rows == compiled.sink_rows
            assert symbolic.num_messages == compiled.num_messages

            a_sym = assemble(symbolic.model)
            a_comp = assemble(compiled.model)
            A_sym = a_sym.A_ub.copy()
            A_comp = a_comp.A_ub.copy()
            A_sym.sort_indices()
            A_comp.sort_indices()
            assert np.array_equal(A_sym.indptr, A_comp.indptr)
            assert np.array_equal(A_sym.indices, A_comp.indices)
            np.testing.assert_allclose(A_sym.data, A_comp.data, atol=1e-12)
            np.testing.assert_allclose(a_sym.b_ub, a_comp.b_ub, atol=1e-12)
            np.testing.assert_allclose(a_sym.c, a_comp.c, atol=1e-12)

    def test_pair_variable_keys_match(self):
        for graph in DAGS[:4]:
            symbolic, compiled = _build_pair(graph, "per_pair", "per_pair", "constant")
            assert list(symbolic.pair_latency) == list(compiled.pair_latency)
            assert list(symbolic.pair_gap) == list(compiled.pair_gap)
            for key in symbolic.pair_latency:
                assert symbolic.pair_latency[key].index == compiled.pair_latency[key].index


class TestSolutionParity:
    @pytest.mark.parametrize("lm,gm,om", ALL_MODES)
    def test_objective_duals_and_sensitivities(self, lm, gm, om):
        for graph in DAGS:
            symbolic, compiled = _build_pair(graph, lm, gm, om)
            s_sol = symbolic.model.solve(backend="highs")
            c_sol = compiled.model.solve(backend="highs")
            assert c_sol.objective == pytest.approx(s_sol.objective, abs=1e-6)
            np.testing.assert_allclose(s_sol.duals, c_sol.duals, atol=1e-6)
            np.testing.assert_allclose(
                s_sol.reduced_costs, c_sol.reduced_costs, atol=1e-6
            )
            if lm == "global":
                assert compiled.latency_sensitivity(c_sol) == pytest.approx(
                    symbolic.latency_sensitivity(s_sol), abs=1e-6
                )
            if lm == "per_pair":
                np.testing.assert_allclose(
                    symbolic.pair_latency_sensitivities(s_sol),
                    compiled.pair_latency_sensitivities(c_sol),
                    atol=1e-6,
                )
            if gm == "per_pair":
                np.testing.assert_allclose(
                    symbolic.pair_gap_sensitivities(s_sol),
                    compiled.pair_gap_sensitivities(c_sol),
                    atol=1e-6,
                )

    def test_latency_sweep_parity(self):
        for graph in DAGS[:5]:
            symbolic, compiled = _build_pair(graph, "global", "constant", "constant")
            for L in (0.0, 0.7, 2.5, 10.0):
                s = symbolic.solve_runtime(L=L, backend="highs")
                c = compiled.solve_runtime(L=L, backend="highs")
                assert c.objective == pytest.approx(s.objective, abs=1e-6)


class TestCompiledModelProtocol:
    """A model built ``from_arrays`` must satisfy the full LPModel protocol."""

    def test_tangent_envelope_on_compiled_model(self):
        graph = build_staircase(6)
        params = LogGPSParams(L=0.0, o=0.0, g=0.0, G=0.0)
        compiled = build_lp(graph, params, engine="compiled")
        envelope = compiled.tangent_envelope(0.0, 10.0, backend="highs")
        breakpoints = sorted(round(bp, 6) for bp in envelope.breakpoints)
        assert breakpoints == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0], abs=1e-6)

    def test_batched_sweep_zero_reassemblies(self):
        graph = build_random_dag(3, nranks=4, rounds=10)
        compiled = build_lp(graph, PARAMS, engine="compiled")
        version_before = compiled.model.structure_version
        sweep = BatchedSweep(compiled, l_min=PARAMS.L, l_max=PARAMS.L + 50.0)
        values = sweep.values(np.linspace(PARAMS.L, PARAMS.L + 50.0, 20))
        assert compiled.model.structure_version == version_before
        symbolic = build_lp(graph, PARAMS, engine="symbolic")
        reference = BatchedSweep(symbolic, l_min=PARAMS.L, l_max=PARAMS.L + 50.0)
        np.testing.assert_allclose(
            values, reference.values(np.linspace(PARAMS.L, PARAMS.L + 50.0, 20)),
            atol=1e-6,
        )

    def test_solve_max_latency_materialises_and_restores(self):
        graph = build_random_dag(5, nranks=3, rounds=10)
        symbolic, compiled = _build_pair(graph, "global", "constant", "constant")
        n_rows = compiled.model.num_constraints
        compiled.set_latency_bound(PARAMS.L)
        symbolic.set_latency_bound(PARAMS.L)
        bound = 1.05 * compiled.solve_runtime(backend="highs").objective
        s = symbolic.solve_max_latency(bound, backend="highs")
        c = compiled.solve_max_latency(bound, backend="highs")
        assert c.objective == pytest.approx(s.objective, abs=1e-6)
        assert compiled.model.num_constraints == n_rows
        # and the model still re-solves correctly after the pop
        again = compiled.solve_runtime(L=PARAMS.L, backend="highs")
        assert again.objective == pytest.approx(
            symbolic.solve_runtime(L=PARAMS.L, backend="highs").objective, abs=1e-6
        )

    def test_materialised_constraints_match_assembled_rows(self):
        graph = build_random_dag(7, nranks=3, rounds=8)
        compiled = build_lp(graph, PARAMS, engine="compiled")
        assembled = assemble(compiled.model)
        A = assembled.A_ub.copy()
        A.sort_indices()
        # touching .constraints materialises Constraint objects lazily; the
        # re-lowered dict form must reproduce the pre-lowered arrays exactly
        constraints = compiled.model.constraints
        assert [c.index for c in constraints] == list(range(len(constraints)))
        compiled.model.invalidate()
        relowered = assemble(compiled.model)
        B = relowered.A_ub.copy()
        B.sort_indices()
        assert np.array_equal(A.indptr, B.indptr)
        assert np.array_equal(A.indices, B.indices)
        np.testing.assert_allclose(A.data, B.data, atol=1e-15)
        np.testing.assert_allclose(assembled.b_ub, relowered.b_ub, atol=1e-15)

    def test_tight_constraints_work_on_compiled_model(self):
        graph = build_running_example()
        compiled = build_lp(graph, PARAMS, engine="compiled")
        solution = compiled.solve_runtime(L=PARAMS.L, backend="highs")
        assert len(solution.tight_constraints()) >= 1

    def test_from_arrays_validation(self):
        with pytest.raises(ValueError):
            LPModel.from_arrays(
                var_names=["x"], lb=[1.0], ub=[0.0],
                row_indptr=np.array([0]), row_cols=np.array([]),
                row_vals=np.array([]), row_consts=np.array([]),
            )
        with pytest.raises(ValueError):
            LPModel.from_arrays(
                var_names=["x", "y"], lb=[0.0],
                row_indptr=np.array([0]), row_cols=np.array([]),
                row_vals=np.array([]), row_consts=np.array([]),
            )


class TestEngineSelection:
    def test_default_is_compiled_at_every_size(self):
        small = build_running_example()
        big = build_random_dag(11, nranks=6, rounds=40)
        for graph in (small, big):
            # compiled CSR rows stay deferred until first touched
            assert build_lp(graph, PARAMS).model._deferred_rows is not None
        assert build_lp(small, PARAMS, engine="symbolic").model._deferred_rows is None

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            build_lp(build_running_example(), PARAMS, engine="weird")


class TestCompileFromBatches:
    """``compile_lp_from_batches``: op batches → CSR with no frozen graph."""

    @staticmethod
    def _workload():
        from repro.mpi import run_program
        from repro.schedgen.columnar import batches_from_program

        def app(comm):
            for it in range(3):
                comm.compute(1.0)
                comm.allreduce(2048)
                nxt = (comm.rank + 1) % comm.size
                prv = (comm.rank - 1) % comm.size
                req = comm.irecv(prv, 256, tag=it)
                comm.send(nxt, 256, tag=it)
                comm.wait(req)

        program = run_program(app, 4)
        return batches_from_program(program), program.nranks

    @pytest.mark.parametrize("lm,gm", [("global", "constant"), ("per_pair", "per_pair")])
    def test_bit_identical_to_freeze_then_compile(self, lm, gm):
        from repro.lp.compiler import compile_lp, compile_lp_from_batches
        from repro.schedgen.builder import ProtocolConfig
        from repro.schedgen.collectives import CollectiveAlgorithms
        from repro.schedgen.columnar import build_columnar

        batches, nranks = self._workload()
        algorithms = CollectiveAlgorithms()
        protocol = ProtocolConfig.from_params(PARAMS)
        frozen_graph = build_columnar(
            batches, nranks, algorithms=algorithms, protocol=protocol
        )
        frozen = compile_lp(frozen_graph, PARAMS, latency_mode=lm, gap_mode=gm)
        fused = compile_lp_from_batches(
            batches, nranks, PARAMS, latency_mode=lm, gap_mode=gm,
            algorithms=algorithms, protocol=protocol,
        )
        a, b = frozen.model.to_arrays(), fused.model.to_arrays()
        assert a.keys() == b.keys()
        for key in a:
            if isinstance(a[key], np.ndarray):
                np.testing.assert_array_equal(a[key], b[key], err_msg=key)
            else:
                assert a[key] == b[key], key
        f_sol = frozen.model.solve(backend="highs")
        g_sol = fused.model.solve(backend="highs")
        assert g_sol.objective == f_sol.objective
        np.testing.assert_array_equal(g_sol.duals, f_sol.duals)

    def test_analyze_only_graph_attached(self):
        from repro.lp.compiler import compile_lp_from_batches
        from repro.schedgen import build_graph
        from repro.mpi import run_program

        def app(comm):
            comm.compute(1.0)
            comm.allreduce(512)

        program = run_program(app, 4)
        from repro.schedgen.columnar import batches_from_program

        compiled = compile_lp_from_batches(
            batches_from_program(program), program.nranks, PARAMS
        )
        assert compiled.graph is not None
        # digest parity keys fused requests to the frozen cache entries
        from repro.schedgen.builder import ProtocolConfig

        frozen = build_graph(program, protocol=ProtocolConfig.from_params(PARAMS))
        assert compiled.graph.content_digest() == frozen.content_digest()

    def test_defaults_match_explicit_config(self):
        from repro.lp.compiler import compile_lp_from_batches
        from repro.schedgen.builder import ProtocolConfig
        from repro.schedgen.collectives import CollectiveAlgorithms

        batches, nranks = self._workload()
        bare = compile_lp_from_batches(batches, nranks, PARAMS)
        explicit = compile_lp_from_batches(
            batches, nranks, PARAMS,
            algorithms=CollectiveAlgorithms(),
            protocol=ProtocolConfig.from_params(PARAMS),
        )
        assert bare.graph.content_digest() == explicit.graph.content_digest()
        assert (
            bare.model.solve(backend="highs").objective
            == explicit.model.solve(backend="highs").objective
        )
