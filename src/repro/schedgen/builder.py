"""Schedgen: convert rank programs / traces into MPI execution graphs.

This is the reproduction of the *Schedgen* schedule generator of the
LogGOPSim toolchain that LLAMP builds on (Section II-A):

* every explicit computation becomes a ``CALC`` vertex;
* every point-to-point operation becomes a ``SEND``/``RECV`` vertex linked by
  intra-rank program-order (``DEP``) edges; matching sends and receives are
  connected with ``COMM`` edges following MPI's non-overtaking rule
  (per ``(source, destination, tag)`` FIFO order);
* non-blocking operations post their vertex without advancing the local
  program-order frontier; the corresponding ``MPI_Wait`` introduces the join;
* collectives are substituted with point-to-point algorithms chosen through
  :class:`repro.schedgen.collectives.CollectiveAlgorithms` — the knob the
  ICON case study turns to compare recursive doubling with the ring
  allreduce (Fig. 10);
* messages larger than the LogGPS threshold ``S`` are (optionally) expanded
  into an explicit rendezvous handshake (RTS / CTS / DATA), so that every
  communication edge left in the graph follows eager semantics.  This is a
  documented deviation from the paper's Appendix B, which folds the
  handshake into the LP constraints instead; the timing model is equivalent
  (three latencies plus the serialisation term before the payload is
  delivered) and it keeps the simulator, the LP generator and the parametric
  engine free of protocol special cases.

Construction is array-native (:mod:`repro.schedgen.columnar`): programs
and traces are first turned into per-rank operation columns, then whole
segments and collective rounds are emitted in bulk, rendezvous messages are
lowered in one vectorised post-pass and sends are paired with receives by a
sort-based matcher.  ``tests/data/schedgen_golden.json`` pins the content
digest of the frozen graph over a fixed corpus of schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mpi.program import Program
from ..network.params import LogGPSParams
from ..trace.records import Trace
from . import collectives as coll
from .graph import ExecutionGraph

__all__ = [
    "ProtocolConfig",
    "ScheduleGenerator",
    "build_graph",
    "resolve_builder_engine",
    "UnmatchedMessageError",
]

#: size of the control messages (RTS / CTS) used by the rendezvous expansion
_RENDEZVOUS_CTRL_BYTES = 1

#: tag offsets within one rendezvous handshake
_RTS_TAG, _CTS_TAG, _DATA_TAG = 0, 1, 2


class UnmatchedMessageError(ValueError):
    """Raised when sends and receives cannot be paired."""


@dataclass(frozen=True)
class ProtocolConfig:
    """Point-to-point protocol configuration used during graph construction.

    Attributes
    ----------
    eager_threshold:
        Messages strictly larger than this many bytes use the rendezvous
        protocol (the LogGPS ``S`` parameter).
    expand_rendezvous:
        When true (default), rendezvous messages are rewritten into an
        RTS/CTS/DATA handshake of eager messages.  When false, large messages
        are kept as single eager edges (useful for ablations).
    """

    eager_threshold: int = 256 * 1024
    expand_rendezvous: bool = True

    @classmethod
    def from_params(cls, params: LogGPSParams, *, expand_rendezvous: bool = True) -> "ProtocolConfig":
        return cls(eager_threshold=int(params.S), expand_rendezvous=expand_rendezvous)

    def uses_rendezvous(self, size: int) -> bool:
        return self.expand_rendezvous and size > self.eager_threshold


def resolve_builder_engine(engine: str = "columnar", num_ops: int = 0) -> str:
    """The graph-construction engine: always ``"columnar"``.

    Kept because external instrumentation (the pipeline benchmark's per-layer
    trace) wraps this name to count legacy-engine builds; nothing in the
    package calls it.
    """
    return "columnar"


class ScheduleGenerator:
    """Build :class:`ExecutionGraph` objects from programs or traces.

    ``algorithms`` selects the point-to-point algorithm of every collective,
    ``protocol`` the eager/rendezvous threshold.
    """

    def __init__(
        self,
        algorithms: coll.CollectiveAlgorithms | None = None,
        protocol: ProtocolConfig | None = None,
    ) -> None:
        self.algorithms = algorithms or coll.CollectiveAlgorithms()
        self.protocol = protocol or ProtocolConfig()

    def build(self, program: Program) -> ExecutionGraph:
        """Convert a :class:`Program` into an execution graph."""
        from . import columnar

        batches = columnar.batches_from_program(program)
        return columnar.build_columnar(
            batches, program.nranks, algorithms=self.algorithms, protocol=self.protocol
        )

    def build_from_trace(self, trace: Trace, *, min_compute: float = 0.0) -> ExecutionGraph:
        """Convert a timestamped trace into an execution graph.

        Computation is inferred from the gap between consecutive MPI calls on
        the same rank, as Schedgen does with liballprof traces (Fig. 3); gaps
        of at most ``min_compute`` microseconds are dropped.  The trace
        columns are ingested directly
        (:func:`repro.schedgen.columnar.batches_from_trace`).
        """
        from . import columnar

        trace.validate()
        batches = columnar.batches_from_trace(trace, min_compute=min_compute)
        return columnar.build_columnar(
            batches, trace.nranks, algorithms=self.algorithms, protocol=self.protocol
        )


def build_graph(
    program: Program,
    *,
    algorithms: coll.CollectiveAlgorithms | None = None,
    protocol: ProtocolConfig | None = None,
    params: LogGPSParams | None = None,
) -> ExecutionGraph:
    """Convenience wrapper: build an execution graph from a program.

    If ``params`` is given and ``protocol`` is not, the protocol threshold is
    taken from ``params.S``.
    """
    if protocol is None and params is not None:
        protocol = ProtocolConfig.from_params(params)
    return ScheduleGenerator(algorithms=algorithms, protocol=protocol).build(program)


def _summarise_unmatched(unmatched: dict[tuple[int, int, int], object]) -> str:
    items = []
    for (src, dst, tag), entry in list(unmatched.items())[:5]:
        count = entry if isinstance(entry, int) else len(entry)
        items.append(f"(src={src}, dst={dst}, tag={tag}, count={count})")
    more = len(unmatched) - len(items)
    if more > 0:
        items.append(f"... and {more} more keys")
    return "[" + ", ".join(items) + "]"
