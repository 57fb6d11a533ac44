"""Columnar schedule-generation engine (array-native Schedgen front-end).

Everything downstream of a frozen
:class:`~repro.schedgen.graph.ExecutionGraph` is array-native; this module
does the same for *constructing* the graph.  Instead of walking programs or
traces one operation at a time and emitting vertices through per-call
builder methods, the columnar engine

1. converts each rank's operation stream into a :class:`RankOpBatch` — one
   NumPy column per op field (:func:`batches_from_program`), or straight
   from the trace columns without materialising ``ProgramOp`` objects at
   all (:func:`batches_from_trace`);
2. splits the batches on collectives with one vectorised scan, emits every
   point-to-point segment of *all ranks* through a two-phase lowering
   (:func:`_emit_segment`): a thin Python staging pass that resolves the
   sequential semantics (request handles, sendrecv splitting, wait joins)
   into flat *eager rows*, followed by a fully vectorised post-pass that
   expands rendezvous rows into RTS/CTS/DATA triples, computes every
   program-order dependency edge with one segmented running-max scan, and
   flushes the whole segment through the bulk builder APIs;
3. expands collectives through the ``batch_*`` expanders of
   :mod:`repro.schedgen.collectives` (whole rounds as index arithmetic);
4. pairs sends and receives with a vectorised sort-based FIFO matcher
   (:func:`match_messages`).

The vertex ids, attribute columns, edge order and labels follow a fixed
ordering contract (``src/repro/schedgen/README.md``); the golden-digest
corpus (``tests/data/schedgen_golden.json``) pins the resulting graphs
across every collective algorithm, rendezvous on/off, random point-to-point
programs and trace-driven builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mpi.program import COLLECTIVE_KINDS, MPI_TO_KIND, OpKind, Program
from ..trace.records import MPI_OP_CODE, MPIOp, Trace
from . import collectives as coll
from .graph import GraphBuilder, VertexKind

__all__ = [
    "OP_KINDS",
    "OP_CODE",
    "RankOpBatch",
    "ScheduleBatches",
    "batches_from_program",
    "batches_from_trace",
    "build_columnar",
    "build_columnar_fused",
    "match_messages",
]

#: stable integer codes for :class:`~repro.mpi.program.OpKind` (array form)
OP_KINDS: tuple[OpKind, ...] = tuple(OpKind)
OP_CODE: dict[OpKind, int] = {kind: index for index, kind in enumerate(OP_KINDS)}

_C_COMPUTE = OP_CODE[OpKind.COMPUTE]
_C_SEND = OP_CODE[OpKind.SEND]
_C_RECV = OP_CODE[OpKind.RECV]
# the blocking-only fast path (_emit_segment_simple) classifies segments with
# one max() over the kind column; that is only sound while these are the three
# lowest codes, so fail loudly if OpKind ever gains a member ahead of them
if (_C_COMPUTE, _C_SEND, _C_RECV) != (0, 1, 2):  # pragma: no cover - guard
    raise AssertionError("OpKind must start with COMPUTE, SEND, RECV")
_C_ISEND = OP_CODE[OpKind.ISEND]
_C_IRECV = OP_CODE[OpKind.IRECV]
_C_WAIT = OP_CODE[OpKind.WAIT]
_C_WAITALL = OP_CODE[OpKind.WAITALL]
_C_SENDRECV = OP_CODE[OpKind.SENDRECV]

_COLLECTIVE_CODES = np.array(
    sorted(OP_CODE[kind] for kind in COLLECTIVE_KINDS), dtype=np.int16
)
_P2P_CODES = np.array(
    sorted(OP_CODE[k] for k in (OpKind.SEND, OpKind.RECV, OpKind.ISEND,
                                OpKind.IRECV, OpKind.SENDRECV)),
    dtype=np.int16,
)

_V_CALC = int(VertexKind.CALC)
_V_SEND = int(VertexKind.SEND)
_V_RECV = int(VertexKind.RECV)

#: staging-row lowering modes (phase 1 → phase 2 protocol); every mode
#: ``>= _RDV_BLOCK`` expands into an RTS/CTS/DATA triple in phase 2
_PLAIN = 0       # advancing vertex, depends on the frontier
_POST = 1        # posted (non-blocking) vertex: frontier dep, no advance
_JOIN = 2        # wait join: frontier dep + extra request-target deps
_RDV_BLOCK = 3   # blocking rendezvous send/recv: 3-chain, all advance
_RDV_ISEND = 4   # non-blocking rendezvous send: RTS advances, CTS/DATA chain
_RDV_IRECV = 5   # non-blocking rendezvous recv: internal chain, no advance

# lookup (indexed by mode) of whether the *first* vertex of a row advances
_START_ADVANCES = np.array([True, False, True, True, True, False])

# MPIOp code → OpKind code (or -1 for records that never become program ops)
_MPI_CODE_TO_OP = np.full(len(MPIOp), -1, dtype=np.int16)
for _mpi_op, _kind in MPI_TO_KIND.items():
    _MPI_CODE_TO_OP[MPI_OP_CODE[_mpi_op]] = OP_CODE[_kind]
_SKIP_CODES = np.array(
    [MPI_OP_CODE[MPIOp.INIT], MPI_OP_CODE[MPIOp.COMM_SIZE], MPI_OP_CODE[MPIOp.COMM_RANK]],
    dtype=np.int16,
)
_FINALIZE_CODE = MPI_OP_CODE[MPIOp.FINALIZE]


@dataclass
class RankOpBatch:
    """One rank's operation stream as parallel columns.

    The columnar twin of :class:`~repro.mpi.program.RankProgram`: ``kind``
    holds :data:`OP_CODE` values and the remaining columns mirror the
    :class:`~repro.mpi.program.ProgramOp` fields (with the dataclass
    defaults for fields a given op kind does not use).  ``requests`` is a
    plain list (aligned with the columns) because ``MPI_Waitall`` consumes a
    variable number of handles per op.
    """

    kind: np.ndarray
    cost: np.ndarray
    peer: np.ndarray
    size: np.ndarray
    tag: np.ndarray
    root: np.ndarray
    request: np.ndarray
    recv_peer: np.ndarray
    recv_size: np.ndarray
    recv_tag: np.ndarray
    requests: list[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.kind)


def batches_from_program(program: Program) -> list[RankOpBatch]:
    """Columnarise a :class:`~repro.mpi.program.Program` (one batch per rank).

    Each column is gathered with its own list comprehension — a tight
    C-speed loop reading one attribute per op — instead of building and
    transposing one 11-tuple per op.  On long rank programs this is ~3×
    faster than the ``zip(*...)`` transpose: the per-op tuple allocation
    dominated, not the attribute reads.
    """
    code = OP_CODE
    batches = []
    for rank_program in program.ranks:
        ops = rank_program.ops
        if not ops:
            batches.append(_empty_batch())
            continue
        batches.append(RankOpBatch(
            kind=np.array([code[op.kind] for op in ops], dtype=np.int16),
            cost=np.array([op.cost for op in ops], dtype=np.float64),
            peer=np.array([op.peer for op in ops], dtype=np.int64),
            size=np.array([op.size for op in ops], dtype=np.int64),
            tag=np.array([op.tag for op in ops], dtype=np.int64),
            root=np.array([op.root for op in ops], dtype=np.int64),
            request=np.array([op.request for op in ops], dtype=np.int64),
            recv_peer=np.array([op.recv_peer for op in ops], dtype=np.int64),
            recv_size=np.array([op.recv_size for op in ops], dtype=np.int64),
            recv_tag=np.array([op.recv_tag for op in ops], dtype=np.int64),
            requests=[op.requests for op in ops],
        ))
    return batches


def batches_from_trace(trace: Trace, *, min_compute: float = 0.0) -> list[RankOpBatch]:
    """Columnarise a timestamped trace without building ``ProgramOp`` objects.

    Mirrors :meth:`repro.mpi.program.Program.from_trace` exactly — the same
    records are skipped (``MPI_Init``, bookkeeping no-ops, ``MPI_Finalize``)
    and a ``COMPUTE`` row is inserted before every remaining record whose
    gap to the previous call exceeds ``min_compute`` — but the whole
    transformation is a handful of array passes over the trace columns
    (:meth:`repro.trace.records.RankTrace.columns`).
    """
    batches = []
    for rank_trace in trace.ranks:
        columns = rank_trace.columns()
        code = columns.code
        n = len(code)
        if n == 0:
            batches.append(_empty_batch())
            continue
        skip = np.isin(code, _SKIP_CODES)
        finalize = code == _FINALIZE_CODE
        considered = ~skip
        emit_op = considered & ~finalize

        prev_end = np.empty(n, dtype=np.float64)
        prev_end[0] = np.inf  # no gap before the first record
        prev_end[1:] = columns.tend[:-1]
        gap = columns.tstart - prev_end
        has_compute = considered & (gap > min_compute)

        mapped = _MPI_CODE_TO_OP[code]
        if np.any(emit_op & (mapped < 0)):
            offender = int(code[int(np.argmax(emit_op & (mapped < 0)))])
            raise ValueError(
                f"cannot convert trace record {tuple(MPIOp)[offender]} to a program op"
            )

        counts = has_compute.astype(np.int64) + emit_op
        ends = np.cumsum(counts)
        offsets = ends - counts
        total = int(ends[-1])

        kind = np.empty(total, dtype=np.int16)
        cost = np.zeros(total, dtype=np.float64)
        peer = np.full(total, -1, dtype=np.int64)
        size = np.zeros(total, dtype=np.int64)
        tag = np.zeros(total, dtype=np.int64)
        root = np.zeros(total, dtype=np.int64)
        request = np.full(total, -1, dtype=np.int64)
        recv_peer = np.full(total, -1, dtype=np.int64)
        recv_size = np.zeros(total, dtype=np.int64)
        recv_tag = np.zeros(total, dtype=np.int64)
        requests: list[tuple[int, ...]] = [()] * total

        compute_pos = offsets[has_compute]
        kind[compute_pos] = _C_COMPUTE
        cost[compute_pos] = gap[has_compute]

        op_pos = offsets[emit_op] + has_compute[emit_op]
        op_mapped = mapped[emit_op]
        is_coll = np.isin(op_mapped, _COLLECTIVE_CODES)
        kind[op_pos] = op_mapped
        peer[op_pos] = np.where(is_coll, -1, columns.peer[emit_op])
        size[op_pos] = columns.size[emit_op]
        tag[op_pos] = columns.tag[emit_op]
        root[op_pos] = np.where(is_coll, np.maximum(columns.peer[emit_op], 0), 0)
        request[op_pos] = columns.request[emit_op]
        recv_peer[op_pos] = columns.recv_peer[emit_op]
        recv_size[op_pos] = columns.recv_size[emit_op]
        recv_tag[op_pos] = columns.recv_tag[emit_op]
        for record_index in np.flatnonzero(code == MPI_OP_CODE[MPIOp.WAITALL]).tolist():
            slot = int(offsets[record_index] + has_compute[record_index])
            requests[slot] = columns.requests[record_index]

        batches.append(RankOpBatch(
            kind=kind, cost=cost, peer=peer, size=size, tag=tag, root=root,
            request=request, recv_peer=recv_peer, recv_size=recv_size,
            recv_tag=recv_tag, requests=requests,
        ))
    return batches


def _empty_batch() -> RankOpBatch:
    return RankOpBatch(
        kind=np.empty(0, dtype=np.int16),
        cost=np.empty(0, dtype=np.float64),
        peer=np.empty(0, dtype=np.int64),
        size=np.empty(0, dtype=np.int64),
        tag=np.empty(0, dtype=np.int64),
        root=np.empty(0, dtype=np.int64),
        request=np.empty(0, dtype=np.int64),
        recv_peer=np.empty(0, dtype=np.int64),
        recv_size=np.empty(0, dtype=np.int64),
        recv_tag=np.empty(0, dtype=np.int64),
        requests=[],
    )


# ---------------------------------------------------------------------------
# build core
# ---------------------------------------------------------------------------

def build_columnar(
    batches: list[RankOpBatch],
    nranks: int,
    *,
    algorithms,
    protocol,
):
    """Build a frozen execution graph from per-rank op batches.

    The columnar twin of :meth:`repro.schedgen.builder.ScheduleGenerator.build`;
    ``algorithms`` is a :class:`~repro.schedgen.collectives.CollectiveAlgorithms`
    and ``protocol`` a :class:`~repro.schedgen.builder.ProtocolConfig`.
    """
    builder = _populate_builder(
        batches, nranks, algorithms=algorithms, protocol=protocol
    )
    return builder.freeze(validate=True)


def build_columnar_fused(
    batches: list[RankOpBatch],
    nranks: int,
    *,
    algorithms,
    protocol,
    mmap_dir=None,
):
    """Build an execution graph for the analyze-only path — never frozen.

    Emits exactly the same vertex/edge columns as :func:`build_columnar`
    (same builder machinery, same deterministic order contract) but attaches
    an :class:`~repro.schedgen.graph.ExecutionGraph` **zero-copy** over the
    builder's column views instead of freezing: no column copies, no
    structural validation pass, and the topological level structure is
    installed by the chain-condensed engine
    (:func:`~repro.schedgen.graph.chain_condensed_levels`) — the construction
    is trusted, so the cycle-detecting frontier peel is not needed.  The
    resulting graph is **column-bit-identical** to the frozen one: identical
    vertex/edge arrays, labels and therefore
    :meth:`~repro.schedgen.graph.ExecutionGraph.content_digest` — the
    artifact cache and the shared-memory sweep pool key fused and frozen
    requests to the same entries.

    ``mmap_dir`` (optional) backs the builder's growable columns with
    memory-mapped files (see :class:`~repro.schedgen.graph.GraphBuilder`) so
    the attached graph's columns are disk-backed too — the caller owns the
    directory for the graph's lifetime.  Column bytes are identical either
    way.
    """
    from .graph import ExecutionGraph, chain_condensed_levels

    builder = _populate_builder(
        batches, nranks, algorithms=algorithms, protocol=protocol,
        mmap_dir=mmap_dir,
    )
    nv, ne = builder.num_vertices, builder.num_edges
    columns = {
        "kind": builder._vkind[:nv],
        "rank": builder._vrank[:nv],
        "cost": builder._vcost[:nv],
        "size": builder._vsize[:nv],
        "peer": builder._vpeer[:nv],
        "tag": builder._vtag[:nv],
        "edge_src": builder._esrc[:ne],
        "edge_dst": builder._edst[:ne],
        "edge_kind": builder._ekind[:ne],
    }
    graph = ExecutionGraph.from_columns(
        nranks, columns, builder._label, validate=False
    )
    level_indptr, order = chain_condensed_levels(graph)
    graph._level_indptr = level_indptr
    graph._topo_order = order
    return graph


class ScheduleBatches:
    """Columnar schedule handle: per-rank op batches plus expansion config.

    The batch-level twin of a frozen :class:`~repro.schedgen.graph.
    ExecutionGraph` for the fused analyze-only pipeline:
    :func:`repro.core.lp_builder.build_lp`,
    :meth:`repro.core.analyzer.LatencyAnalyzer.from_batches` and the serial
    path of :func:`repro.core.parametric.batched_sweep_graphs` all accept it
    in place of a graph.  The execution graph is attached lazily through
    :func:`build_columnar_fused` (zero-copy, no freeze, condensed levels) and
    cached per protocol, and :meth:`content_digest` — served from that
    graph's byte-identical columns — equals the frozen graph's digest, so
    artifact caches and sweep pools key fused and frozen requests to the
    same entries.

    ``protocol`` may be left ``None`` and resolved later from the LogGPS
    parameters actually analysed (``ProtocolConfig.from_params``), so one
    spec can serve several parameter sets.
    """

    def __init__(
        self,
        batches: list[RankOpBatch],
        nranks: int,
        *,
        algorithms=None,
        protocol=None,
        mmap_dir=None,
    ) -> None:
        self.batches = batches
        self.nranks = int(nranks)
        self.algorithms = algorithms if algorithms is not None else coll.CollectiveAlgorithms()
        self.protocol = protocol
        self.mmap_dir = mmap_dir
        self._graphs: dict[object, object] = {}

    @classmethod
    def from_program(cls, program: Program, *, algorithms=None, protocol=None) -> "ScheduleBatches":
        """Columnarise ``program`` into a spec (one :func:`batches_from_program` pass)."""
        return cls(
            batches_from_program(program),
            program.nranks,
            algorithms=algorithms,
            protocol=protocol,
        )

    def resolve_protocol(self, params):
        """The protocol this spec expands under: its own, else derived from ``params``."""
        if self.protocol is not None:
            return self.protocol
        from .builder import ProtocolConfig

        return ProtocolConfig.from_params(params)

    def graph_for(self, params):
        """The analyze-only execution graph of this schedule under ``params``.

        Built once per protocol via :func:`build_columnar_fused` and cached
        on the spec — repeated LP builds, sweeps and digests share one graph.
        """
        protocol = self.resolve_protocol(params)
        graph = self._graphs.get(protocol)
        if graph is None:
            graph = build_columnar_fused(
                self.batches, self.nranks,
                algorithms=self.algorithms, protocol=protocol,
                mmap_dir=self.mmap_dir,
            )
            self._graphs[protocol] = graph
        return graph

    def content_digest(self, params) -> str:
        """The schedule's graph content digest under ``params`` — identical to
        the frozen graph's digest (fused columns are byte-identical)."""
        return self.graph_for(params).content_digest()


#: collective kind -> its :class:`~repro.schedgen.collectives.CollectiveAlgorithms` field
_ALGORITHM_FIELD = {
    OpKind.BARRIER: "barrier",
    OpKind.BCAST: "bcast",
    OpKind.REDUCE: "reduce",
    OpKind.ALLREDUCE: "allreduce",
    OpKind.ALLGATHER: "allgather",
    OpKind.ALLTOALL: "alltoall",
    OpKind.GATHER: "gather",
    OpKind.SCATTER: "scatter",
}

#: expanders that take a ``root`` argument
_ROOTED_EXPANDERS = frozenset({
    "bcast_binomial", "bcast_linear", "reduce_binomial", "allreduce_reduce_bcast",
    "gather_linear", "scatter_linear",
})


def _expand_collective(
    builder: GraphBuilder,
    frontier: np.ndarray,
    *,
    kind: OpKind,
    size: int,
    root: int,
    algorithms,
    tag: int,
) -> None:
    """Emit one collective through the algorithm ``algorithms`` selects."""
    field = _ALGORITHM_FIELD[kind]
    name = f"{field}_{getattr(algorithms, field)}"
    kwargs = {"tag": tag}
    if kind is not OpKind.BARRIER:
        kwargs["size"] = size
    if name in _ROOTED_EXPANDERS:
        kwargs["root"] = root
    coll.COLUMNAR_EXPANDERS[name](builder, frontier, **kwargs)


def _populate_builder(
    batches: list[RankOpBatch],
    nranks: int,
    *,
    algorithms,
    protocol,
    mmap_dir=None,
) -> GraphBuilder:
    """The shared build core: emit all vertices/edges into a fresh builder."""
    if len(batches) != nranks:
        raise ValueError(f"expected {nranks} batches, got {len(batches)}")
    builder = GraphBuilder(nranks=nranks, mmap_dir=mmap_dir)
    for rank, batch in enumerate(batches):
        _check_batch(rank, nranks, batch)

    # split on collectives (vectorised) + cross-rank consistency checks
    collective_positions = [
        np.flatnonzero(np.isin(batch.kind, _COLLECTIVE_CODES)) for batch in batches
    ]
    n_collectives = len(collective_positions[0]) if batches else 0
    for rank, positions in enumerate(collective_positions):
        if len(positions) != n_collectives:
            raise ValueError(
                f"rank {rank} calls {len(positions)} collectives but rank 0 "
                f"calls {n_collectives}"
            )
    if n_collectives:
        kinds0 = batches[0].kind[collective_positions[0]]
        for rank in range(1, nranks):
            kinds_r = batches[rank].kind[collective_positions[rank]]
            mismatch = kinds_r != kinds0
            if np.any(mismatch):
                at = int(np.argmax(mismatch))
                raise ValueError(
                    f"collective #{at}: rank {rank} calls "
                    f"{OP_KINDS[int(kinds_r[at])]}, rank 0 calls "
                    f"{OP_KINDS[int(kinds0[at])]}"
                )
        sizes = np.stack(
            [batches[r].size[collective_positions[r]] for r in range(nranks)]
        ).max(axis=0)
        roots = batches[0].root[collective_positions[0]]

    frontier = np.full(nranks, -1, dtype=np.int64)
    request_state: list[dict[int, tuple[str, int]]] = [{} for _ in range(nranks)]
    tag_cursor = coll.COLLECTIVE_TAG_BASE

    for segment in range(n_collectives + 1):
        slices = []
        for rank in range(nranks):
            positions = collective_positions[rank]
            lo = int(positions[segment - 1]) + 1 if segment > 0 else 0
            hi = int(positions[segment]) if segment < n_collectives else len(batches[rank])
            slices.append((lo, hi))
        _emit_segment(builder, frontier, batches, slices, protocol, request_state)
        if segment < n_collectives:
            tag, tag_cursor = coll.next_collective_tag(tag_cursor, nranks)
            _expand_collective(
                builder,
                frontier,
                kind=OP_KINDS[int(kinds0[segment])],
                size=int(sizes[segment]),
                root=int(roots[segment]),
                algorithms=algorithms,
                tag=tag,
            )

    for rank, pending in enumerate(request_state):
        if pending:
            raise ValueError(
                f"rank {rank}: requests never completed: {sorted(pending)}"
            )

    match_messages(builder)
    return builder


def _check_batch(rank: int, nranks: int, batch: RankOpBatch) -> None:
    """Vectorised per-batch hygiene: peer ranges and user-tag range."""
    p2p = np.isin(batch.kind, _P2P_CODES)
    if np.any(p2p & ((batch.peer < 0) | (batch.peer >= nranks))):
        offender = int(batch.peer[int(np.argmax(p2p & ((batch.peer < 0) | (batch.peer >= nranks))))])
        raise ValueError(f"rank {rank}: peer {offender} out of range")
    sendrecv = batch.kind == _C_SENDRECV
    if np.any(sendrecv & ((batch.recv_peer < 0) | (batch.recv_peer >= nranks))):
        raise ValueError(f"rank {rank}: sendrecv receive peer out of range")
    bad_main = p2p & ((batch.tag < 0) | (batch.tag >= coll.USER_TAG_LIMIT))
    bad_recv = sendrecv & ((batch.recv_tag < 0) | (batch.recv_tag >= coll.USER_TAG_LIMIT))
    if np.any(bad_main | bad_recv):
        at = int(np.argmax(bad_main | bad_recv))
        offender = int(batch.tag[at]) if bad_main[at] else int(batch.recv_tag[at])
        raise ValueError(
            f"rank {rank}: point-to-point tag {offender} outside the user tag "
            f"range [0, {coll.USER_TAG_LIMIT}) reserved from the collective/"
            f"rendezvous tag spaces"
        )


# ---------------------------------------------------------------------------
# point-to-point segment lowering
# ---------------------------------------------------------------------------

def _emit_segment(
    builder: GraphBuilder,
    frontier: np.ndarray,
    batches: list[RankOpBatch],
    slices: list[tuple[int, int]],
    protocol,
    request_state: list[dict[int, tuple[str, int]]],
) -> None:
    """Emit one point-to-point segment of *all ranks* in two phases.

    Phase 1 (staging, sequential semantics): walk each rank's op slice once,
    producing flat *eager rows* — one row per future send/recv/calc vertex,
    still unexpanded for rendezvous — plus the lowering mode of each row and
    the join lists of wait operations.  Request handles are resolved here
    (they may span segments: the dict values are ``("vid", v)`` for already
    materialised vertices or ``("row", i)`` for rows of this segment).

    Phase 2 (vectorised lowering): expand rendezvous rows into RTS/CTS/DATA
    triples with offset arithmetic, derive every program-order dependency
    edge from one segmented running-max scan over the advancing vertices,
    splice in the wait-join edges, and flush vertices + edges through the
    bulk builder APIs.  Vertex and edge order follow the ordering contract
    (rank-major within the segment, each vertex's incoming edge in vertex
    order, join edges right after the join's frontier edge).

    Segments made of only blocking operations (compute/send/recv — the
    shape of collective-dominated schedules and simple traced phases) skip
    the staging loop entirely: phase 1 itself is a handful of array passes
    over the concatenated slices.
    """
    simple = _emit_segment_simple(builder, frontier, batches, slices, protocol)
    if simple:
        return
    row_parts: list[tuple[np.ndarray, ...]] = []
    block_ranks: list[int] = []
    block_lengths: list[int] = []
    joins: list[tuple[int, list[tuple[str, int]]]] = []
    row_base = 0

    for rank, (lo, hi) in enumerate(slices):
        if lo >= hi:
            continue
        stage = (
            _stage_rank
            if hi - lo >= _STAGE_VECTOR_THRESHOLD
            else _stage_rank_loop
        )
        columns, rank_joins, nrows = stage(
            rank, batches[rank], lo, hi, protocol, request_state[rank], row_base
        )
        joins.extend(rank_joins)
        if nrows:
            row_parts.append(columns)
            block_ranks.append(rank)
            block_lengths.append(nrows)
            row_base += nrows

    if not row_base:
        return
    _lower_rows(
        builder,
        frontier,
        np.concatenate([part[0] for part in row_parts]),
        np.concatenate([part[1] for part in row_parts]),
        np.concatenate([part[2] for part in row_parts]),
        np.concatenate([part[3] for part in row_parts]),
        np.concatenate([part[4] for part in row_parts]),
        np.concatenate([part[5] for part in row_parts]),
        np.array(block_ranks, dtype=np.int64),
        np.array(block_lengths, dtype=np.int64),
        joins,
        request_state,
    )


#: ops per rank slice above which phase 1 stages through the vectorised
#: sort-based matcher (:func:`_stage_rank`); below it the sequential loop
#: (:func:`_stage_rank_loop`) is cheaper — the vectorised path carries a
#: fixed cost of a few dozen array operations per slice, the loop a few
#: microseconds per op.  Both produce identical staging output.
_STAGE_VECTOR_THRESHOLD = 256


def _stage_rank_loop(
    rank: int,
    batch: RankOpBatch,
    lo: int,
    hi: int,
    protocol,
    requests: dict[int, tuple[str, int]],
    row_base: int,
):
    """Sequential phase 1 for one short rank slice (the reference staging).

    Same output contract as :func:`_stage_rank`; kept for slices below
    :data:`_STAGE_VECTOR_THRESHOLD`, where a Python loop beats the fixed
    overhead of the vectorised matcher.
    """
    row_kind: list[int] = []
    row_cost: list[float] = []
    row_size: list[int] = []
    row_peer: list[int] = []
    row_tag: list[int] = []
    row_mode: list[int] = []
    joins: list[tuple[int, list[tuple[str, int]]]] = []

    threshold = protocol.eager_threshold
    expand_rendezvous = protocol.expand_rendezvous
    kinds = batch.kind[lo:hi].tolist()
    costs = batch.cost[lo:hi].tolist()
    peers = batch.peer[lo:hi].tolist()
    sizes = batch.size[lo:hi].tolist()
    tags = batch.tag[lo:hi].tolist()
    handles = batch.request[lo:hi].tolist()
    recv_peers = batch.recv_peer[lo:hi].tolist()
    recv_sizes = batch.recv_size[lo:hi].tolist()
    recv_tags = batch.recv_tag[lo:hi].tolist()

    for i in range(hi - lo):
        op_code = kinds[i]
        if op_code == _C_COMPUTE:
            compute_cost = costs[i]
            if compute_cost > 0:
                row_kind.append(_V_CALC)
                row_cost.append(compute_cost)
                row_size.append(0)
                row_peer.append(-1)
                row_tag.append(0)
                row_mode.append(_PLAIN)
        elif op_code == _C_SEND or op_code == _C_ISEND:
            message_size = sizes[i]
            rendezvous = expand_rendezvous and message_size > threshold
            row_kind.append(_V_SEND)
            row_cost.append(0.0)
            row_size.append(message_size)
            row_peer.append(peers[i])
            row_tag.append(tags[i])
            if op_code == _C_SEND:
                row_mode.append(_RDV_BLOCK if rendezvous else _PLAIN)
            else:
                row_mode.append(_RDV_ISEND if rendezvous else _PLAIN)
                handle = handles[i]
                if handle < 0:
                    raise ValueError(f"rank {rank}: {OP_KINDS[op_code]} without request")
                if handle in requests:
                    raise ValueError(
                        f"rank {rank}: request {handle} reused before completion"
                    )
                requests[handle] = ("row", row_base + len(row_kind) - 1)
        elif op_code == _C_RECV:
            message_size = sizes[i]
            rendezvous = expand_rendezvous and message_size > threshold
            row_kind.append(_V_RECV)
            row_cost.append(0.0)
            row_size.append(message_size)
            row_peer.append(peers[i])
            row_tag.append(tags[i])
            row_mode.append(_RDV_BLOCK if rendezvous else _PLAIN)
        elif op_code == _C_IRECV:
            message_size = sizes[i]
            rendezvous = expand_rendezvous and message_size > threshold
            row_kind.append(_V_RECV)
            row_cost.append(0.0)
            row_size.append(message_size)
            row_peer.append(peers[i])
            row_tag.append(tags[i])
            row_mode.append(_RDV_IRECV if rendezvous else _POST)
            handle = handles[i]
            if handle < 0:
                raise ValueError(f"rank {rank}: {OP_KINDS[op_code]} without request")
            if handle in requests:
                raise ValueError(
                    f"rank {rank}: request {handle} reused before completion"
                )
            requests[handle] = ("row", row_base + len(row_kind) - 1)
        elif op_code == _C_SENDRECV:
            send_size = sizes[i]
            row_kind.append(_V_SEND)
            row_cost.append(0.0)
            row_size.append(send_size)
            row_peer.append(peers[i])
            row_tag.append(tags[i])
            row_mode.append(
                _RDV_BLOCK if expand_rendezvous and send_size > threshold else _PLAIN
            )
            recv_size = recv_sizes[i]
            row_kind.append(_V_RECV)
            row_cost.append(0.0)
            row_size.append(recv_size)
            row_peer.append(recv_peers[i])
            row_tag.append(recv_tags[i])
            row_mode.append(
                _RDV_BLOCK if expand_rendezvous and recv_size > threshold else _PLAIN
            )
        elif op_code == _C_WAIT or op_code == _C_WAITALL:
            wanted = [handles[i]] if op_code == _C_WAIT else list(batch.requests[lo + i])
            targets = []
            for handle in wanted:
                if handle not in requests:
                    raise ValueError(
                        f"rank {rank}: wait on unknown request {handle}"
                    )
                targets.append(requests.pop(handle))
            joins.append((row_base + len(row_kind), targets))
            row_kind.append(_V_CALC)
            row_cost.append(0.0)
            row_size.append(0)
            row_peer.append(-1)
            row_tag.append(0)
            row_mode.append(_JOIN)
        else:
            raise ValueError(
                f"unexpected operation {OP_KINDS[op_code]} in point-to-point segment"
            )

    columns = (
        np.array(row_kind, dtype=np.int8),
        np.array(row_cost, dtype=np.float64),
        np.array(row_size, dtype=np.int64),
        np.array(row_peer, dtype=np.int64),
        np.array(row_tag, dtype=np.int64),
        np.array(row_mode, dtype=np.int8),
    )
    return columns, joins, len(row_kind)


#: event codes of the sort-based request matcher (phase 1, vectorised)
_EV_POST = 0
_EV_CONSUME = 1

#: staging-error codes, raised in first-op-position order like the old
#: sequential staging loop would
_ERR_UNEXPECTED = 0
_ERR_NO_REQUEST = 1
_ERR_REUSED = 2
_ERR_UNKNOWN = 3


def _stage_rank(
    rank: int,
    batch: RankOpBatch,
    lo: int,
    hi: int,
    protocol,
    pending: dict[int, tuple[str, int]],
    row_base: int,
):
    """Vectorised phase 1 for one rank's op slice (any op mix).

    Lowers the slice to eager rows with a handful of array passes: row
    layout by per-op row counts, column scatter per op class, and
    **sort-based request matching by handle** — posts (``isend``/``irecv``)
    and consumptions (``wait``/``waitall``, one event per listed handle)
    are sorted by ``(handle, op position, slot)``; within one handle the
    events must alternate post/consume starting from the pending state
    carried over from earlier segments, which is exactly the sequential
    dict semantics.  Returns ``(columns, joins, nrows)`` with join row
    indices already offset by ``row_base``; ``pending`` is updated in place
    to the handles still open after this segment.
    """
    kinds = batch.kind[lo:hi]
    n_ops = len(kinds)
    sizes = batch.size[lo:hi]
    costs = batch.cost[lo:hi]

    violations: list[tuple[int, int, int]] = []  # (op position, error, payload)
    unexpected = kinds > _C_SENDRECV
    if np.any(unexpected):
        at = int(np.argmax(unexpected))
        violations.append((at, _ERR_UNEXPECTED, int(kinds[at])))

    # ------------------------------------------------------------------
    # row layout: per-op row counts -> row offsets
    # ------------------------------------------------------------------
    is_compute = kinds == _C_COMPUTE
    rows_per_op = np.ones(n_ops, dtype=np.int64)
    rows_per_op[is_compute] = (costs[is_compute] > 0).astype(np.int64)
    rows_per_op[kinds == _C_SENDRECV] = 2
    ends = np.cumsum(rows_per_op)
    offsets = ends - rows_per_op
    nrows = int(ends[-1]) if n_ops else 0

    row_kind = np.empty(nrows, dtype=np.int8)
    row_cost = np.zeros(nrows, dtype=np.float64)
    row_size = np.zeros(nrows, dtype=np.int64)
    row_peer = np.full(nrows, -1, dtype=np.int64)
    row_tag = np.zeros(nrows, dtype=np.int64)
    row_mode = np.zeros(nrows, dtype=np.int8)

    threshold = protocol.eager_threshold
    expand = protocol.expand_rendezvous
    rendezvous = (sizes > threshold) if expand else np.zeros(n_ops, dtype=bool)

    kept_compute = is_compute & (rows_per_op > 0)
    pos = offsets[kept_compute]
    row_kind[pos] = _V_CALC
    row_cost[pos] = costs[kept_compute]

    send_ops = (kinds == _C_SEND) | (kinds == _C_ISEND)
    pos = offsets[send_ops]
    row_kind[pos] = _V_SEND
    row_size[pos] = sizes[send_ops]
    row_peer[pos] = batch.peer[lo:hi][send_ops]
    row_tag[pos] = batch.tag[lo:hi][send_ops]
    row_mode[pos] = np.where(
        rendezvous[send_ops],
        np.where(kinds[send_ops] == _C_SEND, _RDV_BLOCK, _RDV_ISEND),
        _PLAIN,
    ).astype(np.int8)

    recv_ops = (kinds == _C_RECV) | (kinds == _C_IRECV)
    pos = offsets[recv_ops]
    row_kind[pos] = _V_RECV
    row_size[pos] = sizes[recv_ops]
    row_peer[pos] = batch.peer[lo:hi][recv_ops]
    row_tag[pos] = batch.tag[lo:hi][recv_ops]
    row_mode[pos] = np.where(
        rendezvous[recv_ops],
        np.where(kinds[recv_ops] == _C_RECV, _RDV_BLOCK, _RDV_IRECV),
        np.where(kinds[recv_ops] == _C_RECV, _PLAIN, _POST),
    ).astype(np.int8)

    sendrecv_ops = kinds == _C_SENDRECV
    if np.any(sendrecv_ops):
        pos = offsets[sendrecv_ops]
        row_kind[pos] = _V_SEND
        row_size[pos] = sizes[sendrecv_ops]
        row_peer[pos] = batch.peer[lo:hi][sendrecv_ops]
        row_tag[pos] = batch.tag[lo:hi][sendrecv_ops]
        row_mode[pos] = np.where(rendezvous[sendrecv_ops], _RDV_BLOCK, _PLAIN)
        recv_sizes = batch.recv_size[lo:hi][sendrecv_ops]
        row_kind[pos + 1] = _V_RECV
        row_size[pos + 1] = recv_sizes
        row_peer[pos + 1] = batch.recv_peer[lo:hi][sendrecv_ops]
        row_tag[pos + 1] = batch.recv_tag[lo:hi][sendrecv_ops]
        recv_rendezvous = (recv_sizes > threshold) if expand else np.zeros(
            int(sendrecv_ops.sum()), dtype=bool
        )
        row_mode[pos + 1] = np.where(recv_rendezvous, _RDV_BLOCK, _PLAIN)

    wait_ops = (kinds == _C_WAIT) | (kinds == _C_WAITALL)
    pos = offsets[wait_ops]
    row_kind[pos] = _V_CALC
    row_mode[pos] = _JOIN

    # ------------------------------------------------------------------
    # sort-based request matching by handle
    # ------------------------------------------------------------------
    post_ops = np.flatnonzero((kinds == _C_ISEND) | (kinds == _C_IRECV))
    post_handles = batch.request[lo:hi][post_ops]
    negative = post_handles < 0
    if np.any(negative):
        at = int(np.argmax(negative))
        violations.append(
            (int(post_ops[at]), _ERR_NO_REQUEST, int(kinds[post_ops[at]]))
        )

    wait_positions = np.flatnonzero(kinds == _C_WAIT)
    waitall_positions = np.flatnonzero(kinds == _C_WAITALL)
    waitall_requests = [batch.requests[lo + int(i)] for i in waitall_positions]
    waitall_counts = np.array(
        [len(req) for req in waitall_requests], dtype=np.int64
    )
    consume_ops = np.concatenate([
        wait_positions,
        np.repeat(waitall_positions, waitall_counts),
    ])
    consume_handles = np.concatenate([
        batch.request[lo:hi][wait_positions],
        np.fromiter(
            (h for req in waitall_requests for h in req),
            dtype=np.int64,
            count=int(waitall_counts.sum()),
        ),
    ])
    consume_slots = np.concatenate([
        np.zeros(len(wait_positions), dtype=np.int64),
        np.concatenate([np.arange(c, dtype=np.int64) for c in waitall_counts])
        if len(waitall_counts)
        else np.empty(0, dtype=np.int64),
    ])
    # (op position, slot) order: ``wait`` and ``waitall`` ops interleave
    consume_order = np.lexsort((consume_slots, consume_ops))
    consume_ops = consume_ops[consume_order]
    consume_handles = consume_handles[consume_order]
    consume_slots = consume_slots[consume_order]

    pending_handles = np.fromiter(pending.keys(), dtype=np.int64, count=len(pending))
    n_pend, n_post, n_cons = len(pending_handles), len(post_ops), len(consume_ops)

    joins: list[tuple[int, list[tuple[str, int]]]] = []
    leftovers: dict[int, tuple[str, int]] = {}
    if n_post or n_cons:
        ev_handle = np.concatenate([pending_handles, post_handles, consume_handles])
        ev_pos = np.concatenate([
            np.full(n_pend, -1, dtype=np.int64), post_ops, consume_ops,
        ])
        ev_slot = np.concatenate([
            np.zeros(n_pend, dtype=np.int64),
            np.zeros(n_post, dtype=np.int64),
            consume_slots,
        ])
        ev_type = np.concatenate([
            np.full(n_pend + n_post, _EV_POST, dtype=np.int64),
            np.full(n_cons, _EV_CONSUME, dtype=np.int64),
        ])
        order = np.lexsort((ev_slot, ev_pos, ev_handle))
        handle_sorted = ev_handle[order]
        type_sorted = ev_type[order]
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        np.not_equal(handle_sorted[1:], handle_sorted[:-1], out=first[1:])
        prev_type = np.empty(len(order), dtype=np.int64)
        prev_type[0] = _EV_CONSUME
        prev_type[1:] = np.where(first[1:], _EV_CONSUME, type_sorted[:-1])
        bad = type_sorted == prev_type
        if np.any(bad):
            for at in np.flatnonzero(bad).tolist():
                position = int(ev_pos[order[at]])
                handle = int(handle_sorted[at])
                if type_sorted[at] == _EV_POST:
                    violations.append((position, _ERR_REUSED, handle))
                else:
                    violations.append((position, _ERR_UNKNOWN, handle))
        if not violations:
            # each consume matches the event right before it in its group (a
            # post, by the alternation just checked); resolve the payload
            matched = order[np.flatnonzero(type_sorted == _EV_CONSUME) - 1]
            targets: list[tuple[str, int]] = []
            for source in matched.tolist():
                if source < n_pend:
                    targets.append(pending[int(ev_handle[source])])
                else:
                    targets.append(
                        ("row", row_base + int(offsets[ev_pos[source]]))
                    )
            # ``targets`` is in sorted-event order; map it back to the
            # original consume order (op position, then slot)
            order_of_consume = np.empty(n_cons, dtype=np.int64)
            consume_sorted_positions = np.flatnonzero(type_sorted == _EV_CONSUME)
            order_of_consume[order[consume_sorted_positions] - n_pend - n_post] = (
                np.arange(n_cons, dtype=np.int64)
            )
            target_by_op: dict[int, list[tuple[str, int]]] = {
                int(p): [] for p in np.flatnonzero(wait_ops).tolist()
            }
            for orig in range(n_cons):
                target_by_op[int(consume_ops[orig])].append(
                    targets[int(order_of_consume[orig])]
                )
            # one join per wait/waitall op in op order (empty waitalls
            # included: they still emit a labelled join vertex)
            joins.extend(
                (row_base + int(offsets[p]), found)
                for p, found in target_by_op.items()
            )
            # handles whose last event is a post stay pending
            last = np.empty(len(order), dtype=bool)
            last[-1] = True
            np.not_equal(handle_sorted[1:], handle_sorted[:-1], out=last[:-1])
            open_events = order[last & (type_sorted == _EV_POST)]
            for source in open_events.tolist():
                handle = int(ev_handle[source])
                if source < n_pend:
                    leftovers[handle] = pending[handle]
                else:
                    leftovers[handle] = (
                        "row", row_base + int(offsets[ev_pos[source]])
                    )
    else:
        leftovers = dict(pending)
        for p in np.flatnonzero(wait_ops).tolist():
            joins.append((row_base + int(offsets[p]), []))

    if violations:
        position, error, payload = min(violations)
        if error == _ERR_UNEXPECTED:
            raise ValueError(
                f"unexpected operation {OP_KINDS[payload]} in point-to-point segment"
            )
        if error == _ERR_NO_REQUEST:
            raise ValueError(f"rank {rank}: {OP_KINDS[payload]} without request")
        if error == _ERR_REUSED:
            raise ValueError(
                f"rank {rank}: request {payload} reused before completion"
            )
        raise ValueError(f"rank {rank}: wait on unknown request {payload}")

    pending.clear()
    pending.update(leftovers)
    columns = (row_kind, row_cost, row_size, row_peer, row_tag, row_mode)
    return columns, joins, nrows


def _emit_segment_simple(
    builder: GraphBuilder,
    frontier: np.ndarray,
    batches: list[RankOpBatch],
    slices: list[tuple[int, int]],
    protocol,
) -> bool:
    """Loop-free phase 1 for segments of blocking ops only.

    Returns ``True`` when it handled the segment (every op is a
    compute/send/recv, so no request bookkeeping or sendrecv splitting is
    needed and the eager rows are a pure element-wise function of the op
    columns); ``False`` defers to the generic staging loop.  COMPUTE, SEND
    and RECV are the three lowest op codes, so the shape test is one
    ``max()`` over the segment's kind column.
    """
    kind_views = []
    view_ranks = []
    for rank, (lo, hi) in enumerate(slices):
        if lo >= hi:
            continue
        kind_views.append(batches[rank].kind[lo:hi])
        view_ranks.append(rank)
    if not kind_views:
        return True
    op_kind = kind_views[0] if len(kind_views) == 1 else np.concatenate(kind_views)
    if int(op_kind.max()) > _C_RECV:
        return False
    lengths = np.array([len(v) for v in kind_views], dtype=np.int64)
    op_cost = np.concatenate(
        [batches[r].cost[lo:hi] for r, (lo, hi) in zip_slices(view_ranks, slices)]
    )
    op_rank = np.repeat(np.array(view_ranks, dtype=np.int64), lengths)
    is_compute = op_kind == _C_COMPUTE
    if is_compute.all():
        # pure computation segment (the shape between two collectives of an
        # iterated-collective schedule): CALC rows only
        keep = op_cost > 0
        if not keep.any():
            return True
        n_rows = int(np.count_nonzero(keep))
        row_kind = np.full(n_rows, _V_CALC, dtype=np.int8)
        row_cost = op_cost[keep]
        row_size = np.zeros(n_rows, dtype=np.int64)
        row_peer = np.full(n_rows, -1, dtype=np.int64)
        row_tag = np.zeros(n_rows, dtype=np.int64)
        row_mode = np.zeros(n_rows, dtype=np.int8)  # _PLAIN
    else:
        op_size = np.concatenate(
            [batches[r].size[lo:hi] for r, (lo, hi) in zip_slices(view_ranks, slices)]
        )
        op_peer = np.concatenate(
            [batches[r].peer[lo:hi] for r, (lo, hi) in zip_slices(view_ranks, slices)]
        )
        op_tag = np.concatenate(
            [batches[r].tag[lo:hi] for r, (lo, hi) in zip_slices(view_ranks, slices)]
        )
        keep = ~is_compute | (op_cost > 0)
        if not keep.any():
            return True
        row_kind = np.where(
            op_kind == _C_SEND, _V_SEND, np.where(op_kind == _C_RECV, _V_RECV, _V_CALC)
        ).astype(np.int8)[keep]
        row_cost = np.where(is_compute, op_cost, 0.0)[keep]
        row_size = np.where(is_compute, 0, op_size)[keep]
        row_peer = np.where(is_compute, -1, op_peer)[keep]
        row_tag = np.where(is_compute, 0, op_tag)[keep]
        row_mode = np.zeros(len(row_kind), dtype=np.int8)  # _PLAIN
        if protocol.expand_rendezvous:
            rendezvous = (row_kind != _V_CALC) & (row_size > protocol.eager_threshold)
            row_mode[rendezvous] = _RDV_BLOCK
    kept_ranks = op_rank[keep]
    counts = np.bincount(kept_ranks, minlength=len(batches))
    block_ranks = np.flatnonzero(counts)
    _lower_rows(
        builder,
        frontier,
        row_kind,
        row_cost,
        row_size,
        row_peer,
        row_tag,
        row_mode,
        block_ranks.astype(np.int64),
        counts[block_ranks].astype(np.int64),
        [],
        None,
    )
    return True


def zip_slices(view_ranks: list[int], slices: list[tuple[int, int]]):
    """Pair each non-empty rank with its (lo, hi) slice, in rank order."""
    return ((rank, slices[rank]) for rank in view_ranks)


def _lower_rows(
    builder: GraphBuilder,
    frontier: np.ndarray,
    kinds: np.ndarray,
    costs: np.ndarray,
    sizes: np.ndarray,
    peers: np.ndarray,
    tags: np.ndarray,
    modes: np.ndarray,
    block_rank_arr: np.ndarray,
    block_length_arr: np.ndarray,
    joins: list[tuple[int, list[tuple[str, int]]]],
    request_state: list[dict[int, tuple[str, int]]] | None,
) -> None:
    """Phase 2: vectorised lowering of staged eager rows (see
    :func:`_emit_segment`)."""
    from .builder import _CTS_TAG, _DATA_TAG, _RENDEZVOUS_CTRL_BYTES, _RTS_TAG

    expand = modes >= _RDV_BLOCK
    counts = np.where(expand, 3, 1).astype(np.int64)
    ends = np.cumsum(counts)
    offsets = ends - counts
    total = int(ends[-1])
    base = builder.num_vertices
    # the vertex each row resolves to (DATA vertex for rendezvous rows):
    # request handles and wait joins reference rows through this array
    result_vid = base + offsets + np.where(expand, 2, 0)

    out_kind = np.empty(total, dtype=np.int8)
    out_cost = np.zeros(total, dtype=np.float64)
    out_size = np.zeros(total, dtype=np.int64)
    out_peer = np.full(total, -1, dtype=np.int64)
    out_tag = np.zeros(total, dtype=np.int64)

    plain = ~expand
    plain_pos = offsets[plain]
    out_kind[plain_pos] = kinds[plain]
    out_cost[plain_pos] = costs[plain]
    out_size[plain_pos] = sizes[plain]
    out_peer[plain_pos] = peers[plain]
    out_tag[plain_pos] = tags[plain]

    rendezvous_pos = offsets[expand]
    if rendezvous_pos.size:
        side = kinds[expand]                       # SEND or RECV (the local side)
        opposite = (_V_SEND + _V_RECV) - side
        out_kind[rendezvous_pos] = side            # RTS: posted by this side
        out_kind[rendezvous_pos + 1] = opposite    # CTS: flows the other way
        out_kind[rendezvous_pos + 2] = side        # DATA: payload, local side again
        out_size[rendezvous_pos] = _RENDEZVOUS_CTRL_BYTES
        out_size[rendezvous_pos + 1] = _RENDEZVOUS_CTRL_BYTES
        out_size[rendezvous_pos + 2] = sizes[expand]
        rendezvous_peer = peers[expand]
        out_peer[rendezvous_pos] = rendezvous_peer
        out_peer[rendezvous_pos + 1] = rendezvous_peer
        out_peer[rendezvous_pos + 2] = rendezvous_peer
        base_tag = coll.RENDEZVOUS_TAG_BASE + 4 * tags[expand]
        out_tag[rendezvous_pos] = base_tag + _RTS_TAG
        out_tag[rendezvous_pos + 1] = base_tag + _CTS_TAG
        out_tag[rendezvous_pos + 2] = base_tag + _DATA_TAG

    advancing = np.zeros(total, dtype=bool)
    advancing[offsets[_START_ADVANCES[modes]]] = True
    blocking_rendezvous_pos = offsets[modes == _RDV_BLOCK]
    advancing[blocking_rendezvous_pos + 1] = True
    advancing[blocking_rendezvous_pos + 2] = True
    internal = np.zeros(total, dtype=bool)
    internal[rendezvous_pos + 1] = True
    internal[rendezvous_pos + 2] = True

    # segmented running max of advancing vertex ids, seeded per rank block
    # with the incoming frontier: encode (block, local advancing offset + 1)
    # into one monotone key so a single maximum.accumulate never leaks a
    # previous block's vertices into the next block.
    row_block = np.repeat(np.arange(len(block_rank_arr)), block_length_arr)
    out_block = np.repeat(row_block, counts)
    out_counts = np.bincount(out_block, minlength=len(block_rank_arr))
    block_starts = np.concatenate([[0], np.cumsum(out_counts)[:-1]])
    vids = base + np.arange(total, dtype=np.int64)
    local = np.arange(total, dtype=np.int64) - block_starts[out_block]
    stride = total + 2
    encoded = out_block * stride + np.where(advancing, local + 1, 0)
    accumulated = np.maximum.accumulate(encoded)
    accumulated_before = np.empty(total, dtype=np.int64)
    accumulated_before[0] = -1
    accumulated_before[1:] = accumulated[:-1]
    block_base_key = out_block * stride
    has_advanced = accumulated_before >= block_base_key + 1
    seeds = frontier[block_rank_arr]
    previous = np.where(
        has_advanced,
        base + block_starts[out_block] + (accumulated_before - block_base_key - 1),
        seeds[out_block],
    )
    dependency_src = np.where(internal, vids - 1, previous)
    edge_mask = dependency_src >= 0
    edge_src = dependency_src[edge_mask]
    edge_dst = vids[edge_mask]

    if joins:
        edge_count_through = np.cumsum(edge_mask)
        insert_at: list[int] = []
        insert_src: list[int] = []
        insert_dst: list[int] = []
        for row_index, targets in joins:
            position = int(offsets[row_index])
            join_vid = int(base + position)
            frontier_dep = int(previous[position])
            for kind_tag, value in targets:
                target_vid = value if kind_tag == "vid" else int(result_vid[value])
                if target_vid != frontier_dep:
                    insert_at.append(int(edge_count_through[position]))
                    insert_src.append(target_vid)
                    insert_dst.append(join_vid)
        if insert_at:
            edge_src = np.insert(edge_src, insert_at, insert_src)
            edge_dst = np.insert(edge_dst, insert_at, insert_dst)

    out_rank = block_rank_arr[out_block]
    builder.add_vertices(
        out_kind, out_rank, cost=out_cost, size=out_size, peer=out_peer, tag=out_tag
    )
    builder.add_dependencies(edge_src, edge_dst)
    for row_index, _ in joins:
        builder.set_label(int(base + offsets[row_index]), "wait")

    # update the frontier to each block's last advancing vertex
    block_tail = block_starts + out_counts - 1
    tail_key = accumulated[block_tail]
    block_ids = np.arange(len(block_rank_arr), dtype=np.int64)
    block_has_advanced = tail_key >= block_ids * stride + 1
    last_vid = base + block_starts + (tail_key - block_ids * stride - 1)
    frontier[block_rank_arr] = np.where(
        block_has_advanced, last_vid, frontier[block_rank_arr]
    )

    # requests posted this segment now refer to materialised vertices
    if request_state is not None:
        for requests in request_state:
            for handle, (kind_tag, value) in list(requests.items()):
                if kind_tag == "row":
                    requests[handle] = ("vid", int(result_vid[value]))


# ---------------------------------------------------------------------------
# vectorised send/recv matching
# ---------------------------------------------------------------------------

def match_messages(builder: GraphBuilder) -> None:
    """Pair SEND and RECV vertices and append the COMM edges, vectorised.

    Matching follows MPI's non-overtaking rule — the *n*-th send from ``s``
    to ``d`` with tag ``t`` matches the *n*-th receive posted on ``d`` from
    ``s`` with tag ``t`` — implemented as two stable lexicographic sorts by
    ``(src, dst, tag, vertex id)``: within each key group the vertices stay
    in posting (vid) order, so zipping the two sorted sequences yields the
    FIFO pairing.  Edges are appended sorted by ``max(send, recv)``: the
    order in which a single scan in vertex-id order would discover the pairs
    (an edge materialises when the *later* endpoint is scanned).
    """
    from .builder import UnmatchedMessageError, _summarise_unmatched

    kind = builder.kind_column()
    rank = builder.rank_column().astype(np.int64, copy=False)
    peer = builder.peer_column().astype(np.int64, copy=False)
    tag = builder.tag_column()

    send_vid = np.flatnonzero(kind == _V_SEND)
    recv_vid = np.flatnonzero(kind == _V_RECV)
    send_src, send_dst, send_tag = rank[send_vid], peer[send_vid], tag[send_vid]
    recv_src, recv_dst, recv_tag = peer[recv_vid], rank[recv_vid], tag[recv_vid]

    send_order = np.lexsort((send_vid, send_tag, send_dst, send_src))
    recv_order = np.lexsort((recv_vid, recv_tag, recv_dst, recv_src))
    matched = len(send_vid) == len(recv_vid)
    if matched:
        matched = bool(
            np.array_equal(send_src[send_order], recv_src[recv_order])
            and np.array_equal(send_dst[send_order], recv_dst[recv_order])
            and np.array_equal(send_tag[send_order], recv_tag[recv_order])
        )
    if not matched:
        from collections import Counter

        send_keys = Counter(zip(send_src.tolist(), send_dst.tolist(), send_tag.tolist()))
        recv_keys = Counter(zip(recv_src.tolist(), recv_dst.tolist(), recv_tag.tolist()))
        unmatched_sends = {
            key: count - recv_keys.get(key, 0)
            for key, count in send_keys.items()
            if count > recv_keys.get(key, 0)
        }
        unmatched_recvs = {
            key: count - send_keys.get(key, 0)
            for key, count in recv_keys.items()
            if count > send_keys.get(key, 0)
        }
        raise UnmatchedMessageError(
            "unmatched point-to-point messages: "
            f"sends={_summarise_unmatched(unmatched_sends)} "
            f"recvs={_summarise_unmatched(unmatched_recvs)}"
        )

    sends = send_vid[send_order]
    recvs = recv_vid[recv_order]
    discovery = np.argsort(np.maximum(sends, recvs))
    builder.add_comm_edges(sends[discovery], recvs[discovery])
