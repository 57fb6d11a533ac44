"""Graph-construction helpers shared by the test suite and the benchmarks.

Importable as ``repro.testing`` so that test modules never have to reach
into a ``conftest.py`` (whose module name is ambiguous when both ``tests/``
and ``benchmarks/`` are collected in one pytest run).
"""

from __future__ import annotations

import numpy as np

from .schedgen.graph import ExecutionGraph, GraphBuilder

__all__ = [
    "build_running_example",
    "build_staircase",
    "build_random_dag",
    "build_random_program",
]


def build_running_example(c0: float = 0.1) -> ExecutionGraph:
    """The two-rank example of Fig. 4: C0 -> S -> C1 on rank 0, C2 -> R -> C3 on rank 1."""
    builder = GraphBuilder(nranks=2)
    v_c0 = builder.add_calc(0, c0)
    v_s = builder.add_send(0, 1, 4)
    v_c1 = builder.add_calc(0, 1.0)
    builder.chain([v_c0, v_s, v_c1])
    v_c2 = builder.add_calc(1, 0.5)
    v_r = builder.add_recv(1, 0, 4)
    v_c3 = builder.add_calc(1, 1.0)
    builder.chain([v_c2, v_r, v_c3])
    builder.add_comm_edge(v_s, v_r)
    return builder.freeze()


def build_staircase(k: int) -> ExecutionGraph:
    """A graph whose ``T(L)`` envelope has exactly ``k`` linear segments.

    Branch ``i`` (for ``i = 1..k``) is an independent chain of ``i``
    dependent messages bouncing between two ranks, followed by a computation
    of ``sum(i..k-1)`` µs.  With ``o = G = 0`` branch ``i`` contributes the
    line ``i·L + C_i``, and consecutive lines intersect at ``L = i`` — so the
    envelope has breakpoints at ``1, 2, ..., k-1``.
    """
    if k < 1:
        raise ValueError(f"need at least one branch, got {k}")
    builder = GraphBuilder(nranks=2)
    for i in range(1, k + 1):
        tail = None
        for m in range(i):
            src, dst = m % 2, (m + 1) % 2
            s = builder.add_send(src, dst, 1, tag=i * 1000 + m)
            r = builder.add_recv(dst, src, 1, tag=i * 1000 + m)
            if tail is not None:
                builder.add_dependency(tail, s)
            builder.add_comm_edge(s, r)
            tail = r
        intercept = float(sum(range(i, k)))
        calc = builder.add_calc(i % 2, intercept)
        builder.add_dependency(tail, calc)
    return builder.freeze()


def build_random_dag(seed: int, *, nranks: int = 3, rounds: int = 10) -> ExecutionGraph:
    """A random valid execution DAG: per-rank program order + matched messages.

    Every round appends random-cost computations to a subset of the ranks and
    one point-to-point message between a random rank pair.  Vertices are only
    wired to earlier vertices, so the result is acyclic by construction, and
    continuous random costs make degenerate (tied) critical paths improbable
    — which keeps duals and sensitivities unique, so LP answers can be
    checked against simulated finite differences.
    """
    rng = np.random.default_rng(seed)
    builder = GraphBuilder(nranks=nranks)
    last: list[int | None] = [None] * nranks

    def append(rank: int, vid: int) -> None:
        if last[rank] is not None:
            builder.add_dependency(last[rank], vid)
        last[rank] = vid

    for i in range(rounds):
        for rank in range(nranks):
            if rng.random() < 0.7:
                append(rank, builder.add_calc(rank, float(rng.uniform(0.05, 2.0))))
        src, dst = (int(r) for r in rng.choice(nranks, size=2, replace=False))
        size = int(rng.integers(1, 2048))
        s = builder.add_send(src, dst, size, tag=i)
        r = builder.add_recv(dst, src, size, tag=i)
        append(src, s)
        append(dst, r)
        builder.add_comm_edge(s, r)
    return builder.freeze()


def build_random_program(
    seed: int,
    *,
    nranks: int = 4,
    rounds: int = 12,
    big_size: int = 8192,
    big_probability: float = 0.3,
):
    """A random valid point-to-point :class:`~repro.mpi.program.Program`.

    Used by the schedule-generator golden corpus: every round appends random
    computation, then one randomly shaped exchange between a random rank
    pair — blocking send/recv, a non-blocking isend/irecv pair closed by
    ``wait``/``waitall``, or a same-size ``sendrecv`` swap.  Message sizes
    exceed ``big_size`` with probability ``big_probability``, so the same
    program exercises both the eager path and (under a small rendezvous
    threshold) the handshake expansion.  The program passes
    ``Program.validate()`` by construction.
    """
    from .mpi.program import OpKind, Program, ProgramOp

    if nranks < 2:
        raise ValueError(f"need at least two ranks, got {nranks}")
    rng = np.random.default_rng(seed)
    program = Program.empty(nranks)
    next_request = [0] * nranks

    def size() -> int:
        if rng.random() < big_probability:
            return int(rng.integers(big_size + 1, 4 * big_size))
        return int(rng.integers(1, 1024))

    for round_index in range(rounds):
        for rank in range(nranks):
            if rng.random() < 0.6:
                program.rank(rank).append(
                    ProgramOp(kind=OpKind.COMPUTE, cost=float(rng.uniform(0.05, 2.0)))
                )
        a, b = (int(r) for r in rng.choice(nranks, size=2, replace=False))
        tag = round_index
        shape = rng.random()
        if shape < 0.4:
            payload = size()
            program.rank(a).append(
                ProgramOp(kind=OpKind.SEND, peer=b, size=payload, tag=tag)
            )
            program.rank(b).append(
                ProgramOp(kind=OpKind.RECV, peer=a, size=payload, tag=tag)
            )
        elif shape < 0.8:
            payload = size()
            send_req = next_request[a]
            next_request[a] += 1
            recv_req = next_request[b]
            next_request[b] += 1
            program.rank(a).append(
                ProgramOp(kind=OpKind.ISEND, peer=b, size=payload, tag=tag, request=send_req)
            )
            program.rank(b).append(
                ProgramOp(kind=OpKind.IRECV, peer=a, size=payload, tag=tag, request=recv_req)
            )
            if rng.random() < 0.5:
                program.rank(b).append(
                    ProgramOp(kind=OpKind.COMPUTE, cost=float(rng.uniform(0.05, 1.0)))
                )
            program.rank(a).append(ProgramOp(kind=OpKind.WAIT, request=send_req))
            program.rank(b).append(
                ProgramOp(kind=OpKind.WAITALL, requests=(recv_req,))
            )
        else:
            # same-size swap: a sendrecv on both ranks (one eager half keeps
            # the blocking handshake expansion acyclic, so stay below the
            # rendezvous threshold on one side)
            payload = int(rng.integers(1, 1024))
            program.rank(a).append(
                ProgramOp(
                    kind=OpKind.SENDRECV, peer=b, size=payload, tag=tag,
                    recv_peer=b, recv_size=payload, recv_tag=tag,
                )
            )
            program.rank(b).append(
                ProgramOp(
                    kind=OpKind.SENDRECV, peer=a, size=payload, tag=tag,
                    recv_peer=a, recv_size=payload, recv_tag=tag,
                )
            )
    program.validate()
    return program
