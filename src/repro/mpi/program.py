"""Rank programs: the un-timestamped operation scripts of an MPI application.

The paper's pipeline is ``application --liballprof--> trace --Schedgen-->
execution graph``.  In this reproduction the applications are *skeletons*
written against a virtual MPI API (:mod:`repro.mpi.api`), and what they
produce is a :class:`Program`: for every rank, an ordered list of operations
with *explicit* computation intervals (since the skeleton knows how long it
computes, there is no need to infer it from timestamp gaps).

:func:`repro.mpi.tracer.trace_program` closes the loop with the paper's
artifacts: it turns a :class:`Program` into a timestamped
:class:`repro.trace.Trace` (liballprof-style) by replaying it through the
LogGOPS simulator at trace-time network parameters.  Schedgen reads such a
trace back by inferring computation from the gaps between consecutive MPI
calls (Section II-A / Fig. 3; :func:`repro.schedgen.columnar.batches_from_trace`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

from ..trace.records import MPIOp

__all__ = [
    "OpKind",
    "ProgramOp",
    "RankProgram",
    "Program",
    "COLLECTIVE_KINDS",
    "MPI_TO_KIND",
    "KIND_TO_MPI",
]


class OpKind(str, enum.Enum):
    """Operations that can appear in a rank program."""

    COMPUTE = "compute"
    SEND = "send"
    RECV = "recv"
    ISEND = "isend"
    IRECV = "irecv"
    WAIT = "wait"
    WAITALL = "waitall"
    SENDRECV = "sendrecv"
    BARRIER = "barrier"
    BCAST = "bcast"
    REDUCE = "reduce"
    ALLREDUCE = "allreduce"
    GATHER = "gather"
    SCATTER = "scatter"
    ALLGATHER = "allgather"
    ALLTOALL = "alltoall"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: collective operation kinds (must appear in the same order on every rank)
COLLECTIVE_KINDS = frozenset(
    {
        OpKind.BARRIER,
        OpKind.BCAST,
        OpKind.REDUCE,
        OpKind.ALLREDUCE,
        OpKind.GATHER,
        OpKind.SCATTER,
        OpKind.ALLGATHER,
        OpKind.ALLTOALL,
    }
)

#: traced MPI call → program operation kind (shared with the columnar trace
#: ingestion of :mod:`repro.schedgen.columnar`)
MPI_TO_KIND: dict[MPIOp, OpKind] = {
    MPIOp.SEND: OpKind.SEND,
    MPIOp.RECV: OpKind.RECV,
    MPIOp.ISEND: OpKind.ISEND,
    MPIOp.IRECV: OpKind.IRECV,
    MPIOp.WAIT: OpKind.WAIT,
    MPIOp.WAITALL: OpKind.WAITALL,
    MPIOp.SENDRECV: OpKind.SENDRECV,
    MPIOp.BARRIER: OpKind.BARRIER,
    MPIOp.BCAST: OpKind.BCAST,
    MPIOp.REDUCE: OpKind.REDUCE,
    MPIOp.ALLREDUCE: OpKind.ALLREDUCE,
    MPIOp.GATHER: OpKind.GATHER,
    MPIOp.SCATTER: OpKind.SCATTER,
    MPIOp.ALLGATHER: OpKind.ALLGATHER,
    MPIOp.ALLTOALL: OpKind.ALLTOALL,
}

KIND_TO_MPI: dict[OpKind, MPIOp] = {v: k for k, v in MPI_TO_KIND.items()}


@dataclass(frozen=True)
class ProgramOp:
    """One operation in a rank program.

    ``cost`` is only meaningful for :attr:`OpKind.COMPUTE`; ``peer``/``size``/
    ``tag`` for point-to-point operations; ``root``/``size``/``comm_size``
    for collectives; ``request``/``requests`` for non-blocking completion.
    ``recv_*`` hold the receive half of a ``sendrecv``.
    """

    kind: OpKind
    cost: float = 0.0
    peer: int = -1
    size: int = 0
    tag: int = 0
    root: int = 0
    request: int = -1
    requests: tuple[int, ...] = ()
    recv_peer: int = -1
    recv_size: int = 0
    recv_tag: int = 0

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise ValueError(f"{self.kind}: negative compute cost {self.cost}")
        if self.size < 0 or self.recv_size < 0:
            raise ValueError(f"{self.kind}: negative message size")
        if self.kind in (OpKind.SEND, OpKind.RECV, OpKind.ISEND, OpKind.IRECV, OpKind.SENDRECV):
            if self.peer < 0:
                raise ValueError(f"{self.kind}: point-to-point operation requires a peer")
        if self.kind is OpKind.WAIT and self.request < 0:
            raise ValueError("wait requires a request handle")

    @property
    def is_collective(self) -> bool:
        return self.kind in COLLECTIVE_KINDS

    @property
    def is_p2p(self) -> bool:
        return self.kind in (
            OpKind.SEND,
            OpKind.RECV,
            OpKind.ISEND,
            OpKind.IRECV,
            OpKind.SENDRECV,
        )


@dataclass
class RankProgram:
    """The ordered operation script of one rank."""

    rank: int
    ops: list[ProgramOp] = field(default_factory=list)

    def append(self, op: ProgramOp) -> None:
        self.ops.append(op)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[ProgramOp]:
        return iter(self.ops)

    def __getitem__(self, idx: int) -> ProgramOp:
        return self.ops[idx]

    @property
    def total_compute(self) -> float:
        """Sum of explicit compute costs, in microseconds."""
        return sum(op.cost for op in self.ops if op.kind is OpKind.COMPUTE)

    def collective_signature(self) -> list[OpKind]:
        """Kinds of the collectives in program order (for cross-rank checks)."""
        return [op.kind for op in self.ops if op.is_collective]


@dataclass
class Program:
    """A complete application: one :class:`RankProgram` per rank."""

    ranks: list[RankProgram] = field(default_factory=list)
    meta: dict[str, str] = field(default_factory=dict)

    @classmethod
    def empty(cls, nranks: int, **meta: str) -> "Program":
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        return cls(ranks=[RankProgram(rank=r) for r in range(nranks)], meta=dict(meta))

    @property
    def nranks(self) -> int:
        return len(self.ranks)

    @property
    def num_ops(self) -> int:
        return sum(len(r) for r in self.ranks)

    def rank(self, rank: int) -> RankProgram:
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} out of range [0, {self.nranks})")
        return self.ranks[rank]

    def __iter__(self) -> Iterator[RankProgram]:
        return iter(self.ranks)

    def validate(self) -> None:
        """Check cross-rank consistency of collectives and request usage."""
        signature = self.ranks[0].collective_signature() if self.ranks else []
        for rp in self.ranks:
            if rp.collective_signature() != signature:
                raise ValueError(
                    f"rank {rp.rank}: collective call sequence differs from rank 0"
                )
            pending: set[int] = set()
            for op in rp:
                if op.is_p2p and not 0 <= op.peer < self.nranks:
                    raise ValueError(f"rank {rp.rank}: peer {op.peer} out of range")
                if op.kind in (OpKind.ISEND, OpKind.IRECV):
                    if op.request < 0:
                        raise ValueError(f"rank {rp.rank}: {op.kind} without request")
                    if op.request in pending:
                        raise ValueError(
                            f"rank {rp.rank}: request {op.request} reused before completion"
                        )
                    pending.add(op.request)
                elif op.kind is OpKind.WAIT:
                    if op.request not in pending:
                        raise ValueError(
                            f"rank {rp.rank}: wait on unknown request {op.request}"
                        )
                    pending.discard(op.request)
                elif op.kind is OpKind.WAITALL:
                    for req in op.requests:
                        if req not in pending:
                            raise ValueError(
                                f"rank {rp.rank}: waitall on unknown request {req}"
                            )
                        pending.discard(req)
            if pending:
                raise ValueError(f"rank {rp.rank}: requests never completed: {sorted(pending)}")

    def summary(self) -> dict[str, float]:
        """Aggregate statistics (op counts, total compute, bytes sent)."""
        counts: dict[str, int] = {}
        total_compute = 0.0
        bytes_sent = 0
        for rp in self.ranks:
            for op in rp:
                counts[op.kind.value] = counts.get(op.kind.value, 0) + 1
                if op.kind is OpKind.COMPUTE:
                    total_compute += op.cost
                if op.kind in (OpKind.SEND, OpKind.ISEND, OpKind.SENDRECV):
                    bytes_sent += op.size
        return {
            "nranks": self.nranks,
            "num_ops": self.num_ops,
            "total_compute_us": total_compute,
            "bytes_sent": bytes_sent,
            **{f"count[{k}]": v for k, v in sorted(counts.items())},
        }
