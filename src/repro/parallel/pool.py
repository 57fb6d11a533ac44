"""A persistent worker pool sweeping scenarios over shared graph columns.

The legacy multi-process path (``batched_sweep_graphs(processes=...)``
before this package existed) pickled each whole :class:`ExecutionGraph`
into every pool task, so serialisation dominated wall-clock on trace-scale
schedules and memory doubled per worker.  :class:`SweepPool` replaces that
with a **digest-addressed** protocol:

* tasks carry ``(graph_digest, params_digest, sweep spec)`` — never the
  graph.  Workers resolve the graph digest in three steps: their local
  attach-cache, the shared-memory segment exported by the parent
  (:mod:`repro.parallel.shm`, zero-copy), and finally a shared
  :class:`~repro.artifacts.ArtifactStore` (disk).  An unresolvable digest
  is an error, never a silent rebuild.
* duplicate scenarios inside one batch (same digests + same sweep spec) are
  **solved once**: the representative task runs, and the result fans out to
  every duplicate on collect.
* unique tasks are dispatched **largest graph first** through
  ``imap_unordered`` so the slowest solve starts earliest; input order is
  restored on collect.
* a worker exception never poisons or deadlocks the pool: the failure —
  with the failing scenario's identity and the worker traceback — travels
  back as an ordinary result and is re-raised in the parent as
  :class:`ScenarioError` after the batch drains.

The pool is persistent (one ``spawn`` of the workers amortised over any
number of batches) and a context manager; exiting tears down the workers
and unlinks every exported segment deterministically.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field
from typing import Sequence

from ..artifacts import ArtifactStore, envelope_key_from_digests
from ..network.params import LogGPSParams
from ..schedgen.graph import ExecutionGraph
from .shm import SharedGraphBuffer, SharedGraphRegistry

__all__ = ["SweepTask", "ScenarioError", "SweepPool"]


@dataclass(frozen=True)
class SweepTask:
    """One digest-addressed scenario: an envelope sweep, optionally plus
    simulated points.

    ``segment`` and ``params`` are resolution *hints* (the live shm segment
    name and the tiny parameter record); the identity of the task is the
    digest pair plus the sweep configuration.  ``scenario`` is an opaque
    label attached to failures so the caller can tell *which* scenario died.
    """

    graph_digest: str
    params_digest: str
    l_min: float
    l_max: float
    backend: str = "auto"
    max_pieces: int = 50_000
    build_kwargs: tuple[tuple[str, object], ...] = ()
    sim: tuple[str, tuple[float, ...]] | None = None  # (injector, deltas)
    segment: str | None = field(default=None, compare=False)
    params: LogGPSParams | None = field(default=None, compare=False)
    scenario: str | None = field(default=None, compare=False)

    def dedupe_key(self) -> tuple:
        """Two tasks with equal keys produce bit-identical results."""
        return (
            self.graph_digest, self.params_digest, self.l_min, self.l_max,
            self.backend, self.max_pieces, self.build_kwargs, self.sim,
        )

    def store_key(self) -> str:
        """The :class:`ArtifactStore` envelope key of this task's sweep."""
        return envelope_key_from_digests(
            self.graph_digest,
            self.params_digest,
            l_min=self.l_min,
            l_max=self.l_max,
            max_pieces=self.max_pieces,
            **dict(self.build_kwargs),
        )


class ScenarioError(RuntimeError):
    """A scenario failed inside a pool worker.

    Carries the failing scenario's identity (:attr:`scenario`), the original
    exception type/message and the full worker traceback — the pool itself
    survives and later batches keep working.
    """

    def __init__(self, scenario: str, exc_type: str, exc_msg: str, tb_text: str):
        super().__init__(
            f"scenario {scenario} failed in a pool worker with "
            f"{exc_type}: {exc_msg}\n--- worker traceback ---\n{tb_text}"
        )
        self.scenario = scenario
        self.exc_type = exc_type
        self.exc_msg = exc_msg
        self.worker_traceback = tb_text


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: worker-local state: the shared store and the digest-keyed attach cache
_WORKER: dict[str, object] = {}

#: attached segments kept alive per worker; oldest evicted beyond this
_MAX_ATTACHED = 16


def _init_worker(cache_dir: str | None) -> None:
    _WORKER["store"] = ArtifactStore(cache_dir) if cache_dir is not None else None
    _WORKER["graphs"] = {}   # digest -> ExecutionGraph (from any source)
    _WORKER["buffers"] = {}  # digest -> SharedGraphBuffer (attach cache)


def _resolve_graph(task: SweepTask) -> ExecutionGraph:
    """Digest-resolution protocol: attach cache → shm segment → store."""
    if not _WORKER:  # in-process execution (no initializer ran)
        _init_worker(None)
    graphs: dict = _WORKER["graphs"]
    graph = graphs.get(task.graph_digest)
    if graph is not None:
        return graph
    if task.segment is not None:
        buffers: dict = _WORKER["buffers"]
        if len(buffers) >= _MAX_ATTACHED:
            oldest = next(iter(buffers))
            graphs.pop(oldest, None)
            buffers.pop(oldest).close()
        buffer = SharedGraphBuffer.attach(task.segment, digest=task.graph_digest)
        buffers[task.graph_digest] = buffer
        graphs[task.graph_digest] = buffer.graph
        return buffer.graph
    store: ArtifactStore | None = _WORKER["store"]
    if store is not None:
        graph = store.get("graph", task.graph_digest)
        if graph is not None:
            graphs[task.graph_digest] = graph
            return graph
    raise LookupError(
        f"graph digest {task.graph_digest[:12]}… is not resolvable: no shared "
        "segment was attached to the task and the artifact store has no entry"
    )


def _execute_task(task: SweepTask) -> dict:
    """Run one scenario against the resolved graph; returns the payload."""
    import resource

    from ..core.parametric import _fresh_envelope

    graph = _resolve_graph(task)
    if task.params is None:
        raise LookupError(
            f"params digest {task.params_digest[:12]}… carries no parameter "
            "record to solve with"
        )

    def build():
        return _fresh_envelope(
            graph, task.params, task.l_min, task.l_max, task.backend,
            task.max_pieces, dict(task.build_kwargs),
        )

    store: ArtifactStore | None = _WORKER.get("store")
    if store is not None:
        envelope = store.get_or_build_envelope(task.store_key(), build)
    else:
        envelope = build()

    sim_runtimes = None
    if task.sim is not None:
        from ..simulator.columnar import simulate_sweep

        injector, deltas = task.sim
        sim_runtimes = simulate_sweep(
            graph, task.params, list(deltas), injector=injector
        ).makespan.tolist()

    return {
        "envelope": envelope,
        "sim_runtimes": sim_runtimes,
        "worker_pid": os.getpid(),
        "worker_rss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
    }


def _run_task(job: tuple[int, SweepTask]) -> tuple[int, bool, object]:
    """Top-level pool target: never raises (failures travel as results)."""
    slot, task = job
    try:
        return slot, True, _execute_task(task)
    except BaseException as exc:  # noqa: BLE001 - forwarded to the parent
        scenario = task.scenario or (
            f"(graph {task.graph_digest[:12]}…, params {task.params_digest[:12]}…)"
        )
        return slot, False, (
            scenario, type(exc).__name__, str(exc), traceback.format_exc()
        )


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class SweepPool:
    """Persistent ``spawn`` worker pool over shared graph columns.

    Parameters
    ----------
    processes:
        Worker count; defaults to ``os.cpu_count()``.  ``processes <= 1``
        (or ``0``) runs every task inline in this process — same code path,
        no pool, no shared memory.
    cache_dir:
        Optional :class:`~repro.artifacts.ArtifactStore` directory shared by
        all workers (accepts any path-like).  Workers both resolve graph
        digests against it (fallback behind shared memory) and serve/persist
        envelopes through it.
    """

    def __init__(
        self,
        processes: int | None = None,
        *,
        cache_dir: str | os.PathLike | None = None,
    ) -> None:
        self.processes = os.cpu_count() or 1 if processes is None else int(processes)
        self.cache_dir = None if cache_dir is None else os.fspath(cache_dir)
        self.registry = SharedGraphRegistry()
        self._pool = None
        self._closed = False

    # -- pool lifecycle ------------------------------------------------------

    @property
    def uses_workers(self) -> bool:
        return self.processes > 1

    def _ensure_pool(self):
        if self._closed:
            raise RuntimeError("SweepPool is closed")
        if self._pool is None:
            import multiprocessing

            # spawn, never fork: fork duplicates threaded-BLAS state and the
            # parent's shm mappings into workers (platform-dependent hangs)
            ctx = multiprocessing.get_context("spawn")
            self._pool = ctx.Pool(
                self.processes,
                initializer=_init_worker,
                initargs=(self.cache_dir,),
            )
        return self._pool

    def close(self) -> None:
        """Tear down the workers and unlink every exported segment."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self.registry.close()
        self._closed = True

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution -----------------------------------------------------------

    def run_tasks(
        self,
        tasks: Sequence[SweepTask],
        graphs: dict[str, ExecutionGraph] | None = None,
    ) -> list[dict]:
        """Execute ``tasks`` and return one payload dict per task, in order.

        ``graphs`` maps graph digests to the frozen graphs this batch needs;
        with workers active they are exported to shared memory for the
        duration of the batch (ref-counted, unlinked afterwards).  Tasks
        whose digest is absent must be resolvable from the shared store.
        Duplicate tasks are solved once; any worker failure is re-raised as
        :class:`ScenarioError` (lowest task index wins deterministically)
        after the batch has drained — the pool survives.
        """
        if not tasks:
            return []
        graphs = graphs or {}

        # dedupe: first occurrence of each key is the representative
        representatives: dict[tuple, int] = {}
        slot_of_task: list[int] = []
        unique: list[SweepTask] = []
        for task in tasks:
            key = task.dedupe_key()
            slot = representatives.get(key)
            if slot is None:
                slot = len(unique)
                representatives[key] = slot
                unique.append(task)
            slot_of_task.append(slot)

        if not self.uses_workers:
            payloads = [self._run_inline(task, graphs) for task in unique]
            return [payloads[slot] for slot in slot_of_task]

        pool = self._ensure_pool()
        exported: list[str] = []
        try:
            resolved: list[SweepTask] = []
            for task in unique:
                graph = graphs.get(task.graph_digest)
                if graph is not None:
                    segment = self.registry.acquire(graph)
                    exported.append(task.graph_digest)
                    task = _with_segment(task, segment)
                resolved.append(task)

            # dispatch largest graph first so the longest solve starts first
            order = sorted(
                range(len(resolved)),
                key=lambda slot: -self._task_size(resolved[slot], graphs),
            )
            payloads: list[dict | None] = [None] * len(resolved)
            failures: list[tuple[int, tuple]] = []
            jobs = [(slot, resolved[slot]) for slot in order]
            for slot, ok, payload in pool.imap_unordered(_run_task, jobs, chunksize=1):
                if ok:
                    payloads[slot] = payload
                else:
                    failures.append((slot, payload))
            if failures:
                slot, (scenario, exc_type, exc_msg, tb_text) = min(failures)
                raise ScenarioError(scenario, exc_type, exc_msg, tb_text)
            return [payloads[slot] for slot in slot_of_task]
        finally:
            for digest in exported:
                self.registry.release(digest)

    @staticmethod
    def _task_size(task: SweepTask, graphs: dict[str, ExecutionGraph]) -> int:
        graph = graphs.get(task.graph_digest)
        return graph.num_vertices if graph is not None else 0

    def _run_inline(self, task: SweepTask, graphs: dict[str, ExecutionGraph]) -> dict:
        """The no-worker path: same execution code, local resolution."""
        state_before = dict(_WORKER)
        _init_worker(self.cache_dir)
        _WORKER["graphs"].update(graphs)
        try:
            slot, ok, payload = _run_task((0, task))
            if not ok:
                scenario, exc_type, exc_msg, tb_text = payload
                raise ScenarioError(scenario, exc_type, exc_msg, tb_text)
            return payload
        finally:
            _WORKER.clear()
            _WORKER.update(state_before)

    # -- conveniences --------------------------------------------------------

    def sweep_graphs(
        self,
        graphs: Sequence[ExecutionGraph],
        params: LogGPSParams,
        *,
        l_min: float = 0.0,
        l_max: float = 10_000.0,
        backend: str = "auto",
        max_pieces: int = 50_000,
        **build_kwargs,
    ) -> list:
        """One exact ``T(L)`` envelope per graph (duplicates solved once).

        The digest-addressed, zero-copy equivalent of the serial
        :func:`~repro.core.parametric.batched_sweep_graphs` loop.
        """
        params_digest = params.content_digest()
        by_digest = {graph.content_digest(): graph for graph in graphs}
        build_items = tuple(sorted(build_kwargs.items()))
        tasks = [
            SweepTask(
                graph_digest=graph.content_digest(),
                params_digest=params_digest,
                l_min=float(l_min),
                l_max=float(l_max),
                backend=backend,
                max_pieces=int(max_pieces),
                build_kwargs=build_items,
                params=params,
                scenario=f"graph[{i}] {graph.content_digest()[:12]}…",
            )
            for i, graph in enumerate(graphs)
        ]
        payloads = self.run_tasks(tasks, by_digest)
        return [payload["envelope"] for payload in payloads]


def _with_segment(task: SweepTask, segment: str) -> SweepTask:
    from dataclasses import replace

    return replace(task, segment=segment)
