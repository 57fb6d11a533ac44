"""Collective-to-point-to-point expansion (Schedgen's collective substitution).

Schedgen replaces every collective operation in a trace with a concrete
point-to-point algorithm chosen by the user (Section II-A, and the ICON case
study of Section IV switches ``MPI_Allreduce`` between *recursive doubling*
and the *ring* algorithm).  This module implements that expansion directly on
a :class:`repro.schedgen.graph.GraphBuilder`.

Each expander (``batch_*``) receives the builder and the per-rank local
frontier array (the last vertex of each rank's program-order chain, or
``-1`` when a rank has no vertex yet), which it advances in place to the
frontier after the collective.  Internally every emitted message uses a tag
from a dedicated collective tag space so that point-to-point matching can
never confuse user messages with collective traffic.

An expander computes the whole collective as index arithmetic (one
``kind``/``rank``/``peer``/``size``/``tag`` array per emission, all ranks at
once) and flushes it through the bulk
:meth:`~repro.schedgen.graph.GraphBuilder.add_vertices` /
``add_dependencies`` APIs via :func:`_emit_chunks`, which threads the
per-rank program-order frontier through the batch with one segmented scan.
The ``COLUMNAR_EXPANDERS`` registry is keyed by
``"<collective>_<algorithm>"``.

Tag-space layout
----------------
The int64 tag space is partitioned so synthetic tags can never collide with
traced ones (and the schedule generators range-check user tags against it):

* ``[0, USER_TAG_LIMIT)`` — user point-to-point tags;
* ``[COLLECTIVE_TAG_BASE, COLLECTIVE_TAG_LIMIT)`` — expanded collectives
  (the cursor advances by ``4 * nranks + 16`` per collective, see
  :func:`next_collective_tag`);
* ``[RENDEZVOUS_TAG_BASE, RENDEZVOUS_TAG_BASE + 4 * USER_TAG_LIMIT)`` —
  rendezvous handshakes (base tag ``RENDEZVOUS_TAG_BASE + 4 * user_tag``).

Conventions
-----------
* A send vertex depends on the rank's current frontier; a receive that the
  algorithm requires before progressing is chained after the send of the same
  round (sendrecv-style), which is how LogGOPSim schedules these algorithms.
* Message sizes follow the textbook algorithms: recursive doubling exchanges
  the full vector every round, the ring algorithm moves ``size / P`` chunks,
  binomial trees move the full vector per tree edge, the dissemination
  barrier moves 1-byte tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .graph import GraphBuilder, VertexKind

__all__ = [
    "CollectiveAlgorithms",
    "COLLECTIVE_TAG_BASE",
    "COLLECTIVE_TAG_LIMIT",
    "RENDEZVOUS_TAG_BASE",
    "USER_TAG_LIMIT",
    "next_collective_tag",
    "COLUMNAR_EXPANDERS",
    "reduce_time_per_byte",
]

#: base of the tag space reserved for expanded collectives
COLLECTIVE_TAG_BASE = 1 << 30

#: exclusive upper bound of the collective tag region (the rendezvous region
#: starts here; :func:`next_collective_tag` refuses to cross it)
COLLECTIVE_TAG_LIMIT = COLLECTIVE_TAG_BASE + (COLLECTIVE_TAG_BASE >> 1)

#: base of the tag space reserved for rendezvous handshakes: the base tag of
#: one handshake is ``RENDEZVOUS_TAG_BASE + 4 * user_tag`` (three consecutive
#: offsets for RTS/CTS/DATA, one slot spare)
RENDEZVOUS_TAG_BASE = COLLECTIVE_TAG_LIMIT

#: exclusive upper bound on user point-to-point tags.  Chosen so that the
#: rendezvous region ``[RENDEZVOUS_TAG_BASE, RENDEZVOUS_TAG_BASE + 4 *
#: USER_TAG_LIMIT)`` ends exactly at ``2 * COLLECTIVE_TAG_BASE`` and the
#: three synthetic regions stay pairwise disjoint.
USER_TAG_LIMIT = COLLECTIVE_TAG_BASE >> 3


def next_collective_tag(cursor: int, nranks: int) -> tuple[int, int]:
    """Reserve a tag block for one expanded collective.

    Returns ``(tag, next_cursor)``; the block spans ``4 * nranks + 16`` tags,
    enough for every per-round tag any implemented algorithm derives from the
    base.  Raises :class:`ValueError` when the collective region
    ``[COLLECTIVE_TAG_BASE, COLLECTIVE_TAG_LIMIT)`` would overflow into the
    rendezvous region (≈ 2^29 tags ≈ millions of collectives — a schedule
    that large is a bug upstream).
    """
    span = 4 * nranks + 16
    if cursor + span > COLLECTIVE_TAG_LIMIT:
        raise ValueError(
            "collective tag space exhausted: "
            f"cursor {cursor} + {span} exceeds {COLLECTIVE_TAG_LIMIT}"
        )
    return cursor, cursor + span


#: default local reduction cost per byte (microseconds); kept small so that
#: collective timing is communication-dominated, as in the paper's model.
_DEFAULT_REDUCE_TIME_PER_BYTE = 0.0


def reduce_time_per_byte() -> float:
    """Per-byte local reduction cost used by reduction collectives."""
    return _DEFAULT_REDUCE_TIME_PER_BYTE


def _chunk_size(size: int, nranks: int) -> int:
    """Per-rank chunk size for ring/reduce-scatter style algorithms."""
    return max(1, math.ceil(size / max(nranks, 1)))


# ---------------------------------------------------------------------------
# expansion engine
# ---------------------------------------------------------------------------
#
# A *chunk* is one tuple of equal-length columns ``(kind, rank, peer, size,
# tag, cost)`` describing consecutive vertices in emission order.  Each
# ``batch_*`` expander assembles the whole collective as a list of chunks
# (rounds, folds, interleaved pairs) with pure index arithmetic and flushes
# them through :func:`_emit_chunks`.  Emission order is part of the graph's
# identity (``src/repro/schedgen/README.md``, "Vertex/edge ordering
# guarantee"): per round, all sends then all receives for exchange-style
# algorithms, and interleaved send/recv[/calc] pairs for tree and linear
# ones.

_V_CALC = int(VertexKind.CALC)
_V_SEND = int(VertexKind.SEND)
_V_RECV = int(VertexKind.RECV)

_Chunk = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _chunk(kind: int, rank, peer, size: int, tag: int, cost: float = 0.0) -> _Chunk:
    rank = np.asarray(rank, dtype=np.int64)
    n = len(rank)
    peer = np.broadcast_to(np.asarray(peer, dtype=np.int64), n)
    return (
        np.full(n, kind, dtype=np.int8),
        rank,
        peer,
        np.full(n, size, dtype=np.int64),
        np.full(n, tag, dtype=np.int64),
        np.full(n, cost, dtype=np.float64),
    )


def _chunk_send(ranks, peers, size: int, tag: int) -> _Chunk:
    return _chunk(_V_SEND, ranks, peers, size, tag)


def _chunk_recv(ranks, peers, size: int, tag: int) -> _Chunk:
    return _chunk(_V_RECV, ranks, peers, size, tag)


def _chunk_calc(ranks, cost: float) -> _Chunk:
    return _chunk(_V_CALC, ranks, -1, 0, 0, cost)


def _uniform_rounds_chunk(
    send_ranks: np.ndarray,
    send_peers: np.ndarray,
    recv_ranks: np.ndarray,
    recv_peers: np.ndarray,
    sizes,
    tags: np.ndarray,
) -> _Chunk:
    """All rounds of a send-block/recv-block algorithm as one chunk.

    ``send_peers``/``recv_peers`` are ``(rounds, P)`` matrices; ``sizes`` is
    a scalar or per-round vector; ``tags`` is the per-round tag vector.  The
    emission order of every round is all P sends, then all P recvs, so the
    whole collective is a handful of ``tile``/``repeat`` calls instead of
    per-round chunk lists.
    """
    rounds, width = send_peers.shape
    per_round = 2 * width
    kind = np.tile(
        np.concatenate([
            np.full(width, _V_SEND, dtype=np.int8),
            np.full(width, _V_RECV, dtype=np.int8),
        ]),
        rounds,
    )
    rank = np.tile(np.concatenate([send_ranks, recv_ranks]), rounds)
    peer = np.concatenate([send_peers, recv_peers], axis=1).ravel()
    if np.ndim(sizes) == 0:
        size = np.full(rounds * per_round, sizes, dtype=np.int64)
    else:
        size = np.repeat(np.asarray(sizes, dtype=np.int64), per_round)
    tag = np.repeat(np.asarray(tags, dtype=np.int64), per_round)
    cost = np.zeros(rounds * per_round, dtype=np.float64)
    return kind, rank, peer, size, tag, cost


def _interleave(parts: Sequence[_Chunk]) -> _Chunk:
    """Merge k equal-length chunks round-robin: row i is ``parts[i % k][i // k]``.

    This is the per-pair emission order (send, recv[, calc]) as one flat
    chunk.
    """
    k = len(parts)
    if k == 1:
        return parts[0]
    m = len(parts[0][0])
    merged = []
    for field in range(6):
        out = np.empty(k * m, dtype=parts[0][field].dtype)
        for j, part in enumerate(parts):
            out[j::k] = part[field]
        merged.append(out)
    return tuple(merged)


def _emit_chunks(builder: GraphBuilder, frontier: np.ndarray, chunks: list[_Chunk]) -> None:
    """Bulk-append the chunks and wire program-order dependency edges.

    The per-rank frontier chain is threaded through the whole batch in one
    vectorised pass: for every emitted vertex the dependency source is the
    previous vertex of the same rank *within the batch*, or the incoming
    ``frontier`` entry for the rank's first vertex (no edge when that is
    ``-1``).  Dependency edges are appended in emission order, each vertex's
    incoming edge right after the vertex itself.  ``frontier`` is updated in
    place to the last vertex of each participating rank.
    """
    chunks = [c for c in chunks if len(c[0])]
    if not chunks:
        return
    if len(chunks) == 1:
        kind, rank, peer, size, tag, cost = chunks[0]
    else:
        kind = np.concatenate([c[0] for c in chunks])
        rank = np.concatenate([c[1] for c in chunks])
        peer = np.concatenate([c[2] for c in chunks])
        size = np.concatenate([c[3] for c in chunks])
        tag = np.concatenate([c[4] for c in chunks])
        cost = np.concatenate([c[5] for c in chunks])
    vids = builder.add_vertices(kind, rank, cost=cost, size=size, peer=peer, tag=tag)
    n = len(vids)
    order = np.argsort(rank, kind="stable")
    rank_sorted = rank[order]
    vids_sorted = vids[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = rank_sorted[1:] != rank_sorted[:-1]
    dep_sorted = np.empty(n, dtype=np.int64)
    dep_sorted[first] = frontier[rank_sorted[first]]
    not_first = ~first
    dep_sorted[not_first] = vids_sorted[:-1][not_first[1:]]
    dep = np.empty(n, dtype=np.int64)
    dep[order] = dep_sorted
    mask = dep >= 0
    builder.add_dependencies(dep[mask], vids[mask])
    np.maximum.at(frontier, rank, vids)


# -- expanders ------------------------------------------------------------------

def batch_barrier_dissemination(
    builder: GraphBuilder, frontier: np.ndarray, *, tag: int, size: int = 1
) -> None:
    """Dissemination barrier: ``ceil(log2 P)`` rounds of 1-byte tokens."""
    nranks = builder.nranks
    if nranks < 2:
        return
    rounds = math.ceil(math.log2(nranks))
    ranks = np.arange(nranks, dtype=np.int64)
    dists = (1 << np.arange(rounds, dtype=np.int64))[:, None]
    _emit_chunks(builder, frontier, [_uniform_rounds_chunk(
        ranks, (ranks[None, :] + dists) % nranks,
        ranks, (ranks[None, :] - dists) % nranks,
        size, tag + np.arange(rounds),
    )])


def _binomial_pairs(nranks: int, root: int, dist: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) ranks of the binomial-tree pairs of one round."""
    rel = np.arange(min(dist, nranks - dist), dtype=np.int64)
    lower = (rel + root) % nranks
    upper = (rel + dist + root) % nranks
    return lower, upper


def batch_bcast_binomial(
    builder: GraphBuilder, frontier: np.ndarray, *, root: int, size: int, tag: int
) -> None:
    """Binomial-tree broadcast rooted at ``root``.

    Ranks are renumbered relative to the root; in round ``k`` every rank whose
    relative id is below ``2^k`` and has a partner ``rel + 2^k < P`` forwards
    the message.
    """
    nranks = builder.nranks
    if nranks < 2:
        return
    rounds = math.ceil(math.log2(nranks))
    chunks: list[_Chunk] = []
    for k in range(rounds):
        dist = 1 << k
        round_tag = tag + k
        src, dst = _binomial_pairs(nranks, root, dist)
        chunks.append(_interleave([
            _chunk_send(src, dst, size, round_tag),
            _chunk_recv(dst, src, size, round_tag),
        ]))
    _emit_chunks(builder, frontier, chunks)


def batch_bcast_linear(
    builder: GraphBuilder, frontier: np.ndarray, *, root: int, size: int, tag: int
) -> None:
    """Linear broadcast: the root sends to every other rank in turn."""
    nranks = builder.nranks
    if nranks < 2:
        return
    dst = (root + np.arange(1, nranks, dtype=np.int64)) % nranks
    _emit_chunks(builder, frontier, [_interleave([
        _chunk_send(np.full(nranks - 1, root, dtype=np.int64), dst, size, tag),
        _chunk_recv(dst, root, size, tag),
    ])])


def batch_reduce_binomial(
    builder: GraphBuilder,
    frontier: np.ndarray,
    *,
    root: int,
    size: int,
    tag: int,
    reduce_cost_per_byte: float = _DEFAULT_REDUCE_TIME_PER_BYTE,
) -> None:
    """Binomial-tree reduction to ``root`` (mirror image of the broadcast)."""
    nranks = builder.nranks
    if nranks < 2:
        return
    rounds = math.ceil(math.log2(nranks))
    reduce_cost = reduce_cost_per_byte * size
    chunks: list[_Chunk] = []
    for k in reversed(range(rounds)):
        dist = 1 << k
        round_tag = tag + k
        receiver, sender = _binomial_pairs(nranks, root, dist)
        parts = [
            _chunk_send(sender, receiver, size, round_tag),
            _chunk_recv(receiver, sender, size, round_tag),
        ]
        if reduce_cost > 0:
            parts.append(_chunk_calc(receiver, reduce_cost))
        chunks.append(_interleave(parts))
    _emit_chunks(builder, frontier, chunks)


def batch_allreduce_recursive_doubling(
    builder: GraphBuilder,
    frontier: np.ndarray,
    *,
    size: int,
    tag: int,
    reduce_cost_per_byte: float = _DEFAULT_REDUCE_TIME_PER_BYTE,
) -> None:
    """Recursive-doubling allreduce.

    For a power-of-two number of ranks this is ``log2 P`` rounds in which rank
    ``r`` exchanges the full vector with ``r XOR 2^k``.  For non-powers of two
    the standard fold/unfold scheme is used: the first ``2 * rem`` ranks are
    folded pairwise onto ``P' = 2^floor(log2 P)`` participants, which run the
    power-of-two exchange, and the result is unfolded back.
    """
    nranks = builder.nranks
    if nranks < 2:
        return
    pof2 = 1 << (nranks.bit_length() - 1)
    rem = nranks - pof2
    reduce_cost = reduce_cost_per_byte * size
    tag_cursor = tag
    chunks: list[_Chunk] = []

    odd = np.arange(1, 2 * rem, 2, dtype=np.int64)
    even = odd - 1
    if rem:
        parts = [
            _chunk_send(odd, even, size, tag_cursor),
            _chunk_recv(even, odd, size, tag_cursor),
        ]
        if reduce_cost > 0:
            parts.append(_chunk_calc(even, reduce_cost))
        chunks.append(_interleave(parts))
    tag_cursor += 1

    participants = np.concatenate(
        [np.arange(0, 2 * rem, 2, dtype=np.int64), np.arange(2 * rem, nranks, dtype=np.int64)]
    )
    rounds = int(math.log2(pof2)) if pof2 > 1 else 0
    idx = np.arange(pof2, dtype=np.int64)
    if rounds and reduce_cost <= 0:
        dists = (1 << np.arange(rounds, dtype=np.int64))[:, None]
        partners = participants[idx[None, :] ^ dists]
        chunks.append(_uniform_rounds_chunk(
            participants, partners, participants, partners,
            size, tag_cursor + np.arange(rounds),
        ))
    else:
        for k in range(rounds):
            dist = 1 << k
            round_tag = tag_cursor + k
            partner = participants[idx ^ dist]
            chunks.append(_chunk_send(participants, partner, size, round_tag))
            parts = [_chunk_recv(participants, partner, size, round_tag)]
            if reduce_cost > 0:
                parts.append(_chunk_calc(participants, reduce_cost))
            chunks.append(_interleave(parts))
    tag_cursor += max(rounds, 1)

    if rem:
        chunks.append(_interleave([
            _chunk_send(even, odd, size, tag_cursor),
            _chunk_recv(odd, even, size, tag_cursor),
        ]))
    _emit_chunks(builder, frontier, chunks)


def batch_allreduce_ring(
    builder: GraphBuilder,
    frontier: np.ndarray,
    *,
    size: int,
    tag: int,
    reduce_cost_per_byte: float = _DEFAULT_REDUCE_TIME_PER_BYTE,
) -> None:
    """Ring allreduce: reduce-scatter followed by allgather, ``2(P-1)`` steps.

    Every step moves a ``size / P`` chunk to the next rank on the ring, which
    creates a chain of ``2(P-1)`` dependent messages — exactly the property
    that makes ICON much more latency sensitive under this algorithm
    (Section IV-1).
    """
    nranks = builder.nranks
    if nranks < 2:
        return
    chunk_bytes = _chunk_size(size, nranks)
    reduce_cost = reduce_cost_per_byte * chunk_bytes
    ranks = np.arange(nranks, dtype=np.int64)
    nxt = (ranks + 1) % nranks
    prv = (ranks - 1) % nranks
    steps = 2 * (nranks - 1)
    if reduce_cost <= 0:
        _emit_chunks(builder, frontier, [_uniform_rounds_chunk(
            ranks, np.tile(nxt, (steps, 1)), ranks, np.tile(prv, (steps, 1)),
            chunk_bytes, tag + np.arange(steps),
        )])
        return
    chunks: list[_Chunk] = []
    for step in range(steps):
        step_tag = tag + step
        reducing = step < nranks - 1
        chunks.append(_chunk_send(ranks, nxt, chunk_bytes, step_tag))
        parts = [_chunk_recv(ranks, prv, chunk_bytes, step_tag)]
        if reducing and reduce_cost > 0:
            parts.append(_chunk_calc(ranks, reduce_cost))
        chunks.append(_interleave(parts))
    _emit_chunks(builder, frontier, chunks)


def batch_allreduce_reduce_bcast(
    builder: GraphBuilder,
    frontier: np.ndarray,
    *,
    size: int,
    tag: int,
    root: int = 0,
    reduce_cost_per_byte: float = _DEFAULT_REDUCE_TIME_PER_BYTE,
) -> None:
    """Allreduce as a binomial reduce followed by a binomial bcast."""
    nranks = builder.nranks
    if nranks < 2:
        return
    rounds = math.ceil(math.log2(nranks))
    batch_reduce_binomial(
        builder,
        frontier,
        root=root,
        size=size,
        tag=tag,
        reduce_cost_per_byte=reduce_cost_per_byte,
    )
    batch_bcast_binomial(builder, frontier, root=root, size=size, tag=tag + rounds + 1)


def batch_allgather_ring(
    builder: GraphBuilder, frontier: np.ndarray, *, size: int, tag: int
) -> None:
    """Ring allgather: ``P - 1`` steps, each moving one rank's contribution."""
    nranks = builder.nranks
    if nranks < 2:
        return
    ranks = np.arange(nranks, dtype=np.int64)
    nxt = (ranks + 1) % nranks
    prv = (ranks - 1) % nranks
    steps = nranks - 1
    _emit_chunks(builder, frontier, [_uniform_rounds_chunk(
        ranks, np.tile(nxt, (steps, 1)), ranks, np.tile(prv, (steps, 1)),
        size, tag + np.arange(steps),
    )])


def batch_allgather_recursive_doubling(
    builder: GraphBuilder, frontier: np.ndarray, *, size: int, tag: int
) -> None:
    """Recursive-doubling allgather; the exchanged volume doubles each round.

    Non-power-of-two rank counts fall back to the ring algorithm, matching the
    behaviour of common MPI implementations.
    """
    nranks = builder.nranks
    if nranks < 2:
        return
    if nranks & (nranks - 1):
        batch_allgather_ring(builder, frontier, size=size, tag=tag)
        return
    rounds = int(math.log2(nranks))
    ranks = np.arange(nranks, dtype=np.int64)
    dists = 1 << np.arange(rounds, dtype=np.int64)
    partners = ranks[None, :] ^ dists[:, None]
    _emit_chunks(builder, frontier, [_uniform_rounds_chunk(
        ranks, partners, ranks, partners,
        size * dists, tag + np.arange(rounds),
    )])


def batch_alltoall_pairwise(
    builder: GraphBuilder, frontier: np.ndarray, *, size: int, tag: int
) -> None:
    """Pairwise-exchange alltoall: ``P - 1`` rounds, partner ``(r + k) mod P``.

    ``size`` is the per-peer payload (what each rank sends to each other
    rank), matching ``MPI_Alltoall`` semantics.
    """
    nranks = builder.nranks
    if nranks < 2:
        return
    ranks = np.arange(nranks, dtype=np.int64)
    steps = np.arange(1, nranks, dtype=np.int64)[:, None]
    _emit_chunks(builder, frontier, [_uniform_rounds_chunk(
        ranks, (ranks[None, :] + steps) % nranks,
        ranks, (ranks[None, :] - steps) % nranks,
        size, tag + steps.ravel(),
    )])


def batch_gather_linear(
    builder: GraphBuilder, frontier: np.ndarray, *, root: int, size: int, tag: int
) -> None:
    """Linear gather: every non-root rank sends its contribution to the root."""
    nranks = builder.nranks
    if nranks < 2:
        return
    src = (root + np.arange(1, nranks, dtype=np.int64)) % nranks
    _emit_chunks(builder, frontier, [_interleave([
        _chunk_send(src, root, size, tag),
        _chunk_recv(np.full(nranks - 1, root, dtype=np.int64), src, size, tag),
    ])])


def batch_scatter_linear(
    builder: GraphBuilder, frontier: np.ndarray, *, root: int, size: int, tag: int
) -> None:
    """Linear scatter: the root sends each rank its chunk."""
    nranks = builder.nranks
    if nranks < 2:
        return
    dst = (root + np.arange(1, nranks, dtype=np.int64)) % nranks
    _emit_chunks(builder, frontier, [_interleave([
        _chunk_send(np.full(nranks - 1, root, dtype=np.int64), dst, size, tag),
        _chunk_recv(dst, root, size, tag),
    ])])


#: collective expanders, keyed by ``"<collective>_<algorithm>"``
COLUMNAR_EXPANDERS: dict[str, Callable] = {
    "barrier_dissemination": batch_barrier_dissemination,
    "bcast_binomial": batch_bcast_binomial,
    "bcast_linear": batch_bcast_linear,
    "reduce_binomial": batch_reduce_binomial,
    "allreduce_recursive_doubling": batch_allreduce_recursive_doubling,
    "allreduce_ring": batch_allreduce_ring,
    "allreduce_reduce_bcast": batch_allreduce_reduce_bcast,
    "allgather_ring": batch_allgather_ring,
    "allgather_recursive_doubling": batch_allgather_recursive_doubling,
    "alltoall_pairwise": batch_alltoall_pairwise,
    "gather_linear": batch_gather_linear,
    "scatter_linear": batch_scatter_linear,
}


# ---------------------------------------------------------------------------
# algorithm selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CollectiveAlgorithms:
    """Which point-to-point algorithm Schedgen uses for each collective.

    The defaults match common MPI implementations (and the paper's baseline
    configuration): recursive doubling for allreduce, binomial trees for
    rooted collectives, dissemination for barrier, ring for allgather and
    pairwise exchange for alltoall.
    """

    allreduce: str = "recursive_doubling"
    bcast: str = "binomial"
    reduce: str = "binomial"
    barrier: str = "dissemination"
    allgather: str = "ring"
    alltoall: str = "pairwise"
    gather: str = "linear"
    scatter: str = "linear"

    _ALLREDUCE = ("recursive_doubling", "ring", "reduce_bcast")
    _BCAST = ("binomial", "linear")
    _REDUCE = ("binomial",)
    _BARRIER = ("dissemination",)
    _ALLGATHER = ("ring", "recursive_doubling")
    _ALLTOALL = ("pairwise",)
    _GATHER = ("linear",)
    _SCATTER = ("linear",)

    def __post_init__(self) -> None:
        checks = {
            "allreduce": self._ALLREDUCE,
            "bcast": self._BCAST,
            "reduce": self._REDUCE,
            "barrier": self._BARRIER,
            "allgather": self._ALLGATHER,
            "alltoall": self._ALLTOALL,
            "gather": self._GATHER,
            "scatter": self._SCATTER,
        }
        for name, allowed in checks.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"unknown {name} algorithm {value!r}; expected one of {allowed}"
                )

    def with_allreduce(self, algorithm: str) -> "CollectiveAlgorithms":
        """Convenience used by the ICON case study (Fig. 10)."""
        from dataclasses import replace

        return replace(self, allreduce=algorithm)
