"""The columnar schedule generator: golden digests, validation, tag hygiene.

Bit identity of the frozen graphs — same vertex ids and attribute columns,
same edge order, same labels — is pinned through
``tests/data/schedgen_golden.json`` (see ``test_schedgen_golden.py``, which
also defines the corpus): every parity case below rebuilds its program and
compares the content digest against the golden entry recorded while an
independent op-by-op reference builder agreed with this engine.  On top,
the suite checks input validation, the tag-space layout, the fused
analyze-only build and LP-objective agreement through the compiled and
symbolic graph→LP lowerings.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import analyze_critical_path, build_lp
from repro.mpi import run_program, trace_program
from repro.mpi.program import OpKind, Program, ProgramOp
from repro.network.params import LogGPSParams
from repro.schedgen import (
    COLLECTIVE_TAG_BASE,
    RENDEZVOUS_TAG_BASE,
    USER_TAG_LIMIT,
    CollectiveAlgorithms,
    ProtocolConfig,
    ScheduleGenerator,
    build_graph,
)
from repro.schedgen.builder import UnmatchedMessageError
from repro.schedgen.collectives import COLLECTIVE_TAG_LIMIT, next_collective_tag
from repro.schedgen.graph import VertexKind
from repro.testing import build_random_program

PARAMS = LogGPSParams(L=1.0, o=0.5, g=0.0, G=0.001)

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "schedgen_golden.json").read_text()
)

_ARRAYS = ("kind", "rank", "cost", "size", "peer", "tag",
           "edge_src", "edge_dst", "edge_kind")


def assert_identical(expected, actual):
    """Bit-identity of two frozen graphs: columns, edge order, labels."""
    assert expected.nranks == actual.nranks
    for name in _ARRAYS:
        a, b = getattr(expected, name), getattr(actual, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), f"{name} differs"
    assert expected.labels == actual.labels


def assert_golden(graph, case):
    assert graph.content_digest() == GOLDEN[case], case


def build_golden(program, case, **kwargs):
    graph = build_graph(program, **kwargs)
    assert_golden(graph, case)
    return graph


def build_via(route, program, protocol=None):
    """Build through the frozen (``columnar``) or the analyze-only ``fused`` route."""
    if route == "columnar":
        return build_graph(program, protocol=protocol)
    from repro.schedgen.columnar import batches_from_program, build_columnar_fused

    return build_columnar_fused(
        batches_from_program(program), program.nranks,
        algorithms=CollectiveAlgorithms(), protocol=protocol or ProtocolConfig(),
    )


def _two_allreduces(comm):
    comm.compute(1.0)
    comm.allreduce(4096)
    comm.compute(0.5)
    comm.allreduce(128)


class TestCollectiveParity:
    @pytest.mark.parametrize("nranks", [2, 3, 4, 5, 8, 16])
    @pytest.mark.parametrize("allreduce", ["recursive_doubling", "ring", "reduce_bcast"])
    def test_allreduce(self, nranks, allreduce):
        build_golden(
            run_program(_two_allreduces, nranks),
            f"two_allreduces/{allreduce}/n{nranks:02d}",
            algorithms=CollectiveAlgorithms(allreduce=allreduce),
        )

    @pytest.mark.parametrize("nranks", [2, 3, 5, 8])
    @pytest.mark.parametrize(
        "algorithms",
        [
            CollectiveAlgorithms(),
            CollectiveAlgorithms(bcast="linear", allgather="recursive_doubling"),
        ],
    )
    def test_every_collective(self, nranks, algorithms):
        def app(comm):
            comm.compute(2.0)
            comm.bcast(256, root=comm.size - 1)
            comm.reduce(128, root=0)
            comm.allreduce(64)
            comm.allgather(64)
            comm.alltoall(32)
            comm.gather(64, root=0)
            comm.scatter(64, root=comm.size - 1)
            comm.barrier()

        label = "default" if algorithms == CollectiveAlgorithms() else "linear_rd"
        build_golden(
            run_program(app, nranks), f"every_collective/{label}/n{nranks:02d}",
            algorithms=algorithms,
        )

    def test_single_rank_degenerates(self):
        # a one-rank collective has no peer: only the two computations remain
        program = Program.empty(1)
        program.rank(0).append(ProgramOp(kind=OpKind.COMPUTE, cost=1.0))
        program.rank(0).append(ProgramOp(kind=OpKind.ALLREDUCE, size=64))
        program.rank(0).append(ProgramOp(kind=OpKind.COMPUTE, cost=2.0))
        graph = build_graph(program)
        assert graph.kind.tolist() == [int(VertexKind.CALC)] * 2
        assert graph.cost.tolist() == [1.0, 2.0]
        assert list(zip(graph.edge_src.tolist(), graph.edge_dst.tolist())) == [(0, 1)]

    def test_collective_sequence_mismatch_detected(self):
        program = Program.empty(2)
        program.rank(0).append(ProgramOp(kind=OpKind.ALLREDUCE, size=8))
        program.rank(1).append(ProgramOp(kind=OpKind.BARRIER))
        with pytest.raises(ValueError):
            build_graph(program)

    def test_collective_count_mismatch_detected(self):
        program = Program.empty(2)
        program.rank(0).append(ProgramOp(kind=OpKind.BARRIER))
        with pytest.raises(ValueError, match="collectives"):
            build_graph(program)


_PROTOCOLS = [
    None,
    ProtocolConfig(eager_threshold=1024),
    ProtocolConfig(eager_threshold=1024, expand_rendezvous=False),
    ProtocolConfig(eager_threshold=6000),
]

#: golden-corpus labels of ``_PROTOCOLS``, in order
_PROTOCOL_LABELS = ["default", "rdv1024", "eager1024", "rdv6000"]


def _protocol_label(protocol):
    return _PROTOCOL_LABELS[_PROTOCOLS.index(protocol)]


class TestPointToPointParity:
    @pytest.mark.parametrize("nranks", [2, 3, 4])
    @pytest.mark.parametrize("protocol", _PROTOCOLS)
    def test_blocking_and_nonblocking(self, nranks, protocol):
        def app(comm):
            for i in range(3):
                comm.compute(1.0)
                if comm.rank == 0:
                    comm.send(1, 5000, tag=i)
                    comm.recv(1, 64, tag=100 + i)
                elif comm.rank == 1:
                    comm.recv(0, 5000, tag=i)
                    comm.send(0, 64, tag=100 + i)
            r = comm.irecv((comm.rank + 1) % comm.size, 9000, tag=50)
            s = comm.isend((comm.rank - 1) % comm.size, 9000, tag=50)
            comm.compute(3.0)
            comm.waitall([r, s])

        build_golden(
            run_program(app, nranks), f"p2p/{_protocol_label(protocol)}/n{nranks:02d}",
            protocol=protocol,
        )

    @pytest.mark.parametrize("protocol", _PROTOCOLS)
    def test_sendrecv_ring(self, protocol):
        # asymmetric sizes keep at most one rendezvous half per rank pair
        def app(comm):
            sizes = [7000 if r % 2 == 0 else 300 for r in range(comm.size)]
            comm.sendrecv(
                (comm.rank + 1) % comm.size, sizes[comm.rank],
                (comm.rank - 1) % comm.size, sizes[(comm.rank - 1) % comm.size],
                send_tag=60, recv_tag=60,
            )

        build_golden(
            run_program(app, 4), f"sendrecv_ring/{_protocol_label(protocol)}",
            protocol=protocol,
        )

    def test_wait_immediately_after_isend(self):
        # the wait join's frontier already is the request target: the
        # duplicate edge must be suppressed
        def app(comm):
            peer = (comm.rank + 1) % comm.size
            prev = (comm.rank - 1) % comm.size
            r = comm.irecv(prev, 64, tag=1)
            s = comm.isend(peer, 64, tag=1)
            comm.wait(s)
            comm.wait(r)

        build_golden(run_program(app, 2), "wait_immediately_after_isend")

    @pytest.mark.parametrize("seed", range(10))
    def test_random_programs(self, seed):
        program = build_random_program(seed, nranks=4, rounds=15)
        for label, protocol in (("default", None), ("rdv8192", ProtocolConfig(eager_threshold=8192))):
            build_golden(program, f"random/{label}/seed{seed}", protocol=protocol)

    def test_wait_on_unknown_request_raises_in_both(self):
        program = Program.empty(2)
        program.ranks[0].ops.append(ProgramOp(kind=OpKind.WAIT, request=7))
        with pytest.raises(ValueError, match="request"):
            build_graph(program)

    def test_nonblocking_without_request_raises_in_both(self):
        # request defaults to -1 and must be rejected
        program = Program.empty(2)
        program.ranks[0].ops.append(ProgramOp(kind=OpKind.ISEND, peer=1, size=8))
        program.ranks[0].ops.append(ProgramOp(kind=OpKind.WAITALL, requests=(-1,)))
        program.ranks[1].ops.append(ProgramOp(kind=OpKind.RECV, peer=0, size=8))
        with pytest.raises(ValueError, match="without request"):
            build_graph(program)

    def test_request_reuse_raises_in_both(self):
        program = Program.empty(2)
        program.ranks[0].ops.append(ProgramOp(kind=OpKind.ISEND, peer=1, size=8, request=1))
        program.ranks[0].ops.append(ProgramOp(kind=OpKind.ISEND, peer=1, size=8, request=1))
        program.ranks[0].ops.append(ProgramOp(kind=OpKind.WAITALL, requests=(1,)))
        program.ranks[1].ops.append(ProgramOp(kind=OpKind.RECV, peer=0, size=8))
        program.ranks[1].ops.append(ProgramOp(kind=OpKind.RECV, peer=0, size=8))
        with pytest.raises(ValueError, match="reused"):
            build_graph(program)

    def test_never_completed_request_raises_in_both(self):
        program = Program.empty(2)
        program.ranks[0].ops.append(ProgramOp(kind=OpKind.ISEND, peer=1, size=8, request=1))
        program.ranks[1].ops.append(ProgramOp(kind=OpKind.RECV, peer=0, size=8))
        with pytest.raises(ValueError, match="never completed"):
            build_graph(program)

    def test_unmatched_messages_raise_in_both(self):
        program = Program.empty(2)
        program.rank(0).append(ProgramOp(kind=OpKind.SEND, peer=1, size=8, tag=0))
        with pytest.raises(UnmatchedMessageError):
            build_graph(program)


class TestTraceParity:
    def _trace(self, nranks):
        def app(comm):
            for i in range(3):
                comm.compute(5.0)
                comm.allreduce(2048)
                peer = (comm.rank + 1) % comm.size
                prev = (comm.rank - 1) % comm.size
                r = comm.irecv(prev, 512, tag=i)
                s = comm.isend(peer, 512, tag=i)
                comm.compute(0.5)
                comm.waitall([r, s])
                if comm.rank == 0:
                    comm.send(1, 3000, tag=40 + i)
                elif comm.rank == 1:
                    comm.recv(0, 3000, tag=40 + i)

        return trace_program(run_program(app, nranks), PARAMS)

    @pytest.mark.parametrize("nranks", [2, 4, 5])
    @pytest.mark.parametrize(
        "protocol", [None, ProtocolConfig(eager_threshold=1024)]
    )
    def test_trace_builds_bit_identical(self, nranks, protocol):
        graph = ScheduleGenerator(protocol=protocol).build_from_trace(self._trace(nranks))
        assert_golden(graph, f"trace/{_protocol_label(protocol)}/n{nranks:02d}")

    def test_min_compute_filter_matches(self):
        graph = ScheduleGenerator().build_from_trace(self._trace(4), min_compute=1.0)
        assert_golden(graph, "trace/default/n04/min_compute1")


class TestLPObjectiveAgreement:
    def test_compiled_lp_identical_objective(self):
        def app(comm):
            for i in range(4):
                comm.compute(1.0)
                comm.allreduce(2048)

        graph = build_graph(run_program(app, 8))
        lp = build_lp(graph, PARAMS, engine="compiled")
        objective = lp.solve_runtime(backend="highs").objective
        assert objective == pytest.approx(analyze_critical_path(graph, PARAMS).runtime, abs=1e-9)

    def test_random_program_compiled_vs_symbolic(self):
        graph = build_graph(build_random_program(3, nranks=3, rounds=10))
        compiled = build_lp(graph, PARAMS, engine="compiled")
        symbolic = build_lp(graph, PARAMS, engine="symbolic")
        assert compiled.solve_runtime(backend="highs").objective == pytest.approx(
            symbolic.solve_runtime(backend="highs").objective, abs=1e-9
        )


class TestEnginePolicy:
    def test_resolver_reports_the_only_engine(self):
        # the per-layer benchmark trace wraps this name by module path
        from repro.schedgen.builder import resolve_builder_engine

        for size in (0, 63, 64, 10**9):
            assert resolve_builder_engine("auto", size) == "columnar"

    def test_auto_default_is_bit_identical_across_threshold(self):
        # schedules far below and above the size where an op-by-op path
        # used to take over build the recorded graphs
        def small(comm):
            comm.barrier()

        def large(comm):
            for i in range(40):
                comm.compute(1.0)
                comm.allreduce(64)

        build_golden(run_program(small, 2), "barrier/n02")
        build_golden(run_program(large, 4), "forty_allreduces/n04")


class TestTagHygiene:
    @pytest.mark.parametrize("engine", ["columnar", "fused"])
    @pytest.mark.parametrize("bad_tag", [-1, USER_TAG_LIMIT, USER_TAG_LIMIT + 5])
    def test_out_of_range_user_tag_rejected(self, engine, bad_tag):
        program = Program.empty(2)
        program.rank(0).append(ProgramOp(kind=OpKind.SEND, peer=1, size=8, tag=bad_tag))
        program.rank(1).append(ProgramOp(kind=OpKind.RECV, peer=0, size=8, tag=bad_tag))
        with pytest.raises(ValueError, match="user tag"):
            build_via(engine, program)

    @pytest.mark.parametrize("engine", ["columnar", "fused"])
    def test_sendrecv_recv_tag_checked(self, engine):
        program = Program.empty(2)
        for rank in range(2):
            program.rank(rank).append(ProgramOp(
                kind=OpKind.SENDRECV, peer=1 - rank, size=8, tag=0,
                recv_peer=1 - rank, recv_size=8, recv_tag=USER_TAG_LIMIT,
            ))
        with pytest.raises(ValueError, match="user tag"):
            build_via(engine, program)

    @pytest.mark.parametrize("engine", ["columnar", "fused"])
    def test_largest_user_tag_cannot_collide(self, engine):
        """The largest legal user tag keeps all synthetic tags in their regions."""
        tag = USER_TAG_LIMIT - 1

        def app(comm):
            if comm.rank == 0:
                comm.send(1, 1_000_000, tag=tag)
            else:
                comm.recv(0, 1_000_000, tag=tag)
            comm.allreduce(64)

        graph = build_via(
            engine, run_program(app, 2), protocol=ProtocolConfig(eager_threshold=1024)
        )
        assert_golden(graph, "largest_user_tag/rdv1024")
        tags = np.asarray(graph.tag)
        user = tags[tags < USER_TAG_LIMIT]
        collective = tags[(tags >= COLLECTIVE_TAG_BASE) & (tags < COLLECTIVE_TAG_LIMIT)]
        rendezvous = tags[tags >= RENDEZVOUS_TAG_BASE]
        assert len(user) + len(collective) + len(rendezvous) == len(tags)
        assert rendezvous.max() < 2 * COLLECTIVE_TAG_BASE
        # the rendezvous handshake of the largest user tag stays above the
        # collective region even after the allreduce consumed its tag block
        assert rendezvous.min() >= RENDEZVOUS_TAG_BASE > collective.max()

    def test_regions_are_disjoint_by_construction(self):
        assert USER_TAG_LIMIT <= COLLECTIVE_TAG_BASE
        assert COLLECTIVE_TAG_LIMIT == RENDEZVOUS_TAG_BASE
        assert RENDEZVOUS_TAG_BASE + 4 * USER_TAG_LIMIT <= 2 * COLLECTIVE_TAG_BASE

    def test_collective_tag_space_exhaustion_raises(self):
        cursor = COLLECTIVE_TAG_LIMIT - 8
        with pytest.raises(ValueError, match="tag space exhausted"):
            next_collective_tag(cursor, nranks=64)

    def test_collective_tag_allocation_advances(self):
        tag, cursor = next_collective_tag(COLLECTIVE_TAG_BASE, nranks=8)
        assert tag == COLLECTIVE_TAG_BASE
        assert cursor == COLLECTIVE_TAG_BASE + 4 * 8 + 16


class TestGoalColumnarIngestion:
    def test_round_trip_preserves_graph(self):
        from repro.schedgen import dumps_goal, loads_goal

        def app(comm):
            comm.compute(1.0)
            comm.allreduce(256)
            if comm.rank == 0:
                comm.send(1, 64, tag=3)
            elif comm.rank == 1:
                comm.recv(0, 64, tag=3)

        graph = build_graph(run_program(app, 4))
        text = dumps_goal(graph)
        assert dumps_goal(loads_goal(text)) == text

    def test_unterminated_rank_block_rejected(self):
        from repro.schedgen import GoalFormatError, loads_goal

        with pytest.raises(GoalFormatError, match="unterminated"):
            loads_goal("num_ranks 1\n\nrank 0 {\n  l1: calc 100\n  l2: calc 200")

    def test_rank_header_inside_open_block_rejected(self):
        from repro.schedgen import GoalFormatError, loads_goal

        with pytest.raises(GoalFormatError, match="not closed"):
            loads_goal("num_ranks 2\n\nrank 0 {\n  l1: calc 100\nrank 1 {\n}\n")


class TestFusedBuild:
    """The analyze-only fused path vs freeze-then-validate.

    ``build_columnar_fused`` must attach a graph whose identity columns,
    labels, level structure and content digest are bit-identical to the
    frozen ones, with the levels coming from the chain-condensed engine
    instead of the frontier peel.
    """

    @staticmethod
    def _program(nranks=4):
        def app(comm):
            for it in range(3):
                chain = 40 if comm.rank == 0 else 2
                for _ in range(chain):
                    comm.compute(0.5)
                comm.allreduce(4096)
                nxt = (comm.rank + 1) % comm.size
                prv = (comm.rank - 1) % comm.size
                req = comm.irecv(prv, 128, tag=it)
                comm.send(nxt, 128, tag=it)
                comm.wait(req)

        return run_program(app, nranks)

    @staticmethod
    def _pair(program):
        from repro.schedgen.columnar import (
            batches_from_program,
            build_columnar,
            build_columnar_fused,
        )

        algorithms = CollectiveAlgorithms()
        protocol = ProtocolConfig.from_params(PARAMS)
        batches = batches_from_program(program)
        frozen = build_columnar(
            batches, program.nranks, algorithms=algorithms, protocol=protocol
        )
        fused = build_columnar_fused(
            batches, program.nranks, algorithms=algorithms, protocol=protocol
        )
        return frozen, fused

    def test_columns_and_digest_bit_identical(self):
        frozen, fused = self._pair(self._program())
        assert_identical(frozen, fused)
        assert fused.content_digest() == frozen.content_digest()

    def test_condensed_levels_match_frontier_peel(self):
        frozen, fused = self._pair(self._program())
        indptr, order = frozen.topo_levels()
        f_indptr, f_order = fused.topo_levels()
        assert np.array_equal(indptr, f_indptr)
        assert np.array_equal(order, f_order)

    def test_chain_condensed_levels_on_random_programs(self):
        from repro.schedgen.graph import chain_condensed_levels

        for seed in range(8):
            graph = build_graph(build_random_program(seed, nranks=4))
            indptr, order = graph.topo_levels()
            c_indptr, c_order = chain_condensed_levels(graph)
            assert np.array_equal(indptr, c_indptr), seed
            assert np.array_equal(order, c_order), seed

    def test_chain_condensed_levels_on_deep_contiguous_chain(self):
        # the run-collapse seed's home turf: one rank-0 chain of contiguous
        # vertex ids, everyone else nearly idle, levels ≈ vertices
        from repro.schedgen.graph import chain_condensed_levels

        def app(comm):
            for _ in range(2):
                chain = 500 if comm.rank == 0 else 1
                for _ in range(chain):
                    comm.compute(0.5)
                comm.allreduce(64)

        graph = build_graph(run_program(app, 4))
        indptr, order = graph.topo_levels()
        c_indptr, c_order = chain_condensed_levels(graph)
        assert np.array_equal(indptr, c_indptr)
        assert np.array_equal(order, c_order)

    def test_chain_condensed_levels_detect_merge_cycle(self):
        # the condensed engine is no general cycle detector, but a cycle
        # through merge points must still surface as an undrained wave
        from repro.schedgen import GraphValidationError
        from repro.schedgen.graph import (
            ExecutionGraph,
            VertexKind,
            EdgeKind,
            chain_condensed_levels,
        )

        n = 3
        columns = {
            "kind": np.full(n, int(VertexKind.CALC), dtype=np.int8),
            "rank": np.zeros(n, dtype=np.int32),
            "cost": np.ones(n, dtype=np.float64),
            "size": np.zeros(n, dtype=np.int64),
            "peer": np.full(n, -1, dtype=np.int32),
            "tag": np.zeros(n, dtype=np.int64),
            # 0 and 1 are mutual merge points (in-degree 2), fed by source 2
            "edge_src": np.array([2, 1, 2, 0], dtype=np.int64),
            "edge_dst": np.array([0, 0, 1, 1], dtype=np.int64),
            "edge_kind": np.full(4, int(EdgeKind.DEP), dtype=np.int8),
        }
        graph = ExecutionGraph.from_columns(1, columns, validate=False)
        with pytest.raises(GraphValidationError, match="cycle"):
            chain_condensed_levels(graph)


class TestScheduleBatches:
    def test_graph_cached_per_protocol(self):
        from repro.schedgen.columnar import ScheduleBatches

        program = TestFusedBuild._program()
        spec = ScheduleBatches.from_program(program)
        first = spec.graph_for(PARAMS)
        assert spec.graph_for(PARAMS) is first
        # a different eager threshold is a different protocol: fresh graph
        other = LogGPSParams(L=1.0, o=0.5, g=0.0, G=0.001, S=64)
        assert spec.graph_for(other) is not first

    def test_digest_equals_frozen_graph(self):
        from repro.schedgen.columnar import ScheduleBatches

        program = TestFusedBuild._program()
        frozen, _ = TestFusedBuild._pair(program)
        spec = ScheduleBatches.from_program(program)
        assert spec.content_digest(PARAMS) == frozen.content_digest()

    def test_explicit_protocol_wins(self):
        from repro.schedgen.columnar import ScheduleBatches

        protocol = ProtocolConfig(eager_threshold=64, expand_rendezvous=True)
        program = TestFusedBuild._program()
        spec = ScheduleBatches.from_program(program, protocol=protocol)
        assert spec.resolve_protocol(PARAMS) is protocol
        # the 128-byte ring messages go rendezvous under the 64-byte
        # threshold, so this schedule differs from the eager one
        eager = ScheduleBatches.from_program(program)
        assert spec.content_digest(PARAMS) != eager.content_digest(PARAMS)

    def test_mismatched_batch_count_rejected(self):
        from repro.schedgen.columnar import ScheduleBatches, batches_from_program

        program = TestFusedBuild._program()
        spec = ScheduleBatches(batches_from_program(program), nranks=7)
        with pytest.raises(ValueError, match="batches"):
            spec.graph_for(PARAMS)
