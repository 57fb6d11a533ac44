"""Outside-in tracer: spans and counters around the layers' public functions.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces each target function object by a timing wrapper in every loaded
``repro.*`` module that binds it (modules such as
``repro.analysis.validation`` bind ``simulate`` at import time, so patching
the defining module alone would miss their calls), and replaces each target
method on its class.  :meth:`Tracer.uninstall` puts the originals back.

A span is ``(name, start, end, parent, query)``; spans stay in memory and are
written out once, at the end of the run.  A span's self time is its duration
minus the time its direct child spans cover (calls are strictly nested in
this single-threaded benchmark).  Counts come from return values and from
``repro.lp.assembler.assembly_counts()`` deltas; a count is taken only on the
outermost span of a name, so ``auto`` backends that re-enter
``BackendRegistry.solve`` or path arguments that re-enter the trace reader
count once.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

#: span name -> per-layer metric that receives the span's self time
SELF_TIME_METRICS = {
    "cli": "cli.self_s",
    "mpi.record": "mpi.record_s",
    "trace.ingest": "trace.ingest_s",
    "schedgen.batches": "schedgen.batches_s",
    "schedgen.graph": "schedgen.graph_s",
    "lp.compile": "lp.compile_s",
    "lp.assemble": "lp.assemble_s",
    "lp.solve": "lp.solve_s",
    "core.envelope": "core.envelope_s",
    "core.analyzer": "core.analyzer_s",
    "simulator.simulate": "simulator.simulate_s",
    "analysis.validate": "analysis.validate_s",
}

#: counters filled by the tracer (all start at 0 on every pass)
COUNTERS = (
    "mpi.ops",
    "trace.records",
    "trace.bytes",
    "schedgen.graph_builds",
    "schedgen.vertices",
    "schedgen.edges",
    "schedgen.levels",
    "schedgen.legacy_engine",
    "lp.compiles",
    "lp.compiles_unsolved",
    "lp.solves",
    "lp.assemblies",
    "core.envelopes",
    "core.envelope_pieces",
    "core.envelope_lp_fallbacks",
    "simulator.runs",
    "simulator.vertex_updates",
    "simulator.legacy_engine",
)

#: public LatencyAnalyzer methods that derive metrics (span "core.analyzer")
ANALYZER_METHODS = (
    "predict_runtime",
    "baseline_runtime",
    "latency_sensitivity",
    "l_ratio",
    "bandwidth_sensitivity",
    "latency_tolerance",
    "tolerance_report",
    "sensitivity_curve",
    "batched_sweep",
    "critical_latencies",
    "critical_latency_curve",
    "summary",
)


def _assemblies() -> int:
    from repro.lp.assembler import assembly_counts

    return sum(assembly_counts().values())


def _count_program(tracer, result, args, kwargs):
    tracer.counters["mpi.ops"] += result.num_ops


def _count_trace(tracer, result, args, kwargs):
    tracer.counters["trace.records"] += result.num_rows
    source = args[0] if args else kwargs.get("source")
    if isinstance(source, (str, os.PathLike)):
        tracer.counters["trace.bytes"] += os.path.getsize(source)


def _count_graph(tracer, result, args, kwargs):
    tracer.counters["schedgen.graph_builds"] += 1
    tracer.counters["schedgen.vertices"] += result.num_vertices
    tracer.counters["schedgen.edges"] += result.num_edges
    tracer.counters["schedgen.levels"] += result.num_levels


def _count_compile(tracer, result, args, kwargs):
    tracer.counters["lp.compiles"] += 1
    tracer._compiled[id(result.model)] = tracer.counters["lp.compiles"]


def _count_solve(tracer, result, args, kwargs):
    tracer.counters["lp.solves"] += 1
    model = args[1] if len(args) > 1 else kwargs["model"]
    compile_index = tracer._compiled.get(id(model))
    if compile_index is not None:
        tracer._solved_compiles.add(compile_index)


def _count_envelope(tracer, result, args, kwargs):
    tracer.counters["core.envelopes"] += 1
    tracer.counters["core.envelope_pieces"] += len(result.lines)


def _count_simulate(tracer, result, args, kwargs):
    graph = args[0] if args else kwargs["graph"]
    runs = 1 if not hasattr(result, "runtimes") else len(result.runtimes)
    tracer.counters["simulator.runs"] += runs
    tracer.counters["simulator.vertex_updates"] += runs * graph.num_vertices


#: (span name, module, attribute path, counter) — one entry per wrapped callable
TARGETS = (
    ("cli", "repro.cli", "main", None),
    ("mpi.record", "repro.mpi.api", "run_program", _count_program),
    ("trace.ingest", "repro.schedgen.streaming", "batches_from_trace_chunked", _count_trace),
    ("schedgen.batches", "repro.schedgen.columnar", "batches_from_program", None),
    ("schedgen.graph", "repro.schedgen.columnar", "build_columnar_fused", _count_graph),
    ("schedgen.graph", "repro.schedgen.builder", "build_graph", _count_graph),
    ("schedgen.graph", "repro.schedgen.graph", "ExecutionGraph.topo_levels", None),
    ("lp.compile", "repro.core.lp_builder", "build_lp", _count_compile),
    ("lp.compile", "repro.lp.compiler", "compile_lp", _count_compile),
    ("lp.compile", "repro.lp.compiler", "compile_lp_from_batches", _count_compile),
    ("lp.assemble", "repro.lp.assembler", "assemble", None),
    ("lp.assemble", "repro.lp.assembler", "assemble_rows", None),
    ("lp.solve", "repro.lp.backends", "BackendRegistry.solve", _count_solve),
    ("core.envelope", "repro.core.envelope", "forward_envelope", _count_envelope),
    *(("core.analyzer", "repro.core.analyzer", f"LatencyAnalyzer.{name}", None)
      for name in ANALYZER_METHODS),
    ("simulator.simulate", "repro.simulator.loggops", "simulate", _count_simulate),
    ("simulator.simulate", "repro.simulator.columnar", "simulate_sweep", _count_simulate),
    ("analysis.validate", "repro.analysis.validation", "run_validation_sweep", None),
)


def _legacy(counter):
    def observe(tracer, result, args, kwargs):
        if result == "legacy":
            tracer.counters[counter] += 1
    return observe


def _envelope_fallback(tracer, result, args, kwargs):
    requested = args[0] if args else kwargs["engine"]
    if requested == "auto" and result == "lp":
        tracer.counters["core.envelope_lp_fallbacks"] += 1


#: engine resolvers: counted on every call, no span
RESOLVERS = (
    ("repro.schedgen.builder", "resolve_builder_engine", _legacy("schedgen.legacy_engine")),
    ("repro.simulator.loggops", "resolve_sim_engine", _legacy("simulator.legacy_engine")),
    ("repro.core.envelope", "resolve_envelope_engine", _envelope_fallback),
)


class Tracer:
    """In-memory span recorder installed around the layers of ``repro``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.query_ids: list[int] = []
        self.query = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.reset_counters()

    # -- recording -------------------------------------------------------------

    def reset_counters(self) -> None:
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._compiled: dict[int, int] = {}
        self._solved_compiles: set[int] = set()

    def snapshot_counters(self) -> dict[str, int]:
        """The counters since the last reset, with the derived ones filled."""
        counts = dict(self.counters)
        counts["lp.compiles_unsolved"] = counts["lp.compiles"] - len(self._solved_compiles)
        return counts

    def _outermost(self, name: str, parent: int) -> bool:
        while parent >= 0:
            if self.names[parent] == name:
                return False
            parent = self.parents[parent]
        return True

    def _span_wrapper(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.names)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.names.append(name)
            tracer.parents.append(parent)
            tracer.query_ids.append(tracer.query)
            tracer.ends.append(0.0)
            tracer.starts.append(time.perf_counter())
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[index] = time.perf_counter()
                tracer._stack.pop()
            if count is not None and tracer._outermost(name, parent):
                count(tracer, result, args, kwargs)
            return result

        return wrapper

    def _counter_wrapper(self, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(tracer, result, args, kwargs)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, module_name: str, path: str, make_wrapper) -> None:
        owner = importlib.import_module(module_name)
        *class_path, attr = path.split(".")
        for part in class_path:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = make_wrapper(original)
        if class_path:
            setattr(owner, attr, wrapper)
            self._restore.append((owner, attr, original))
            return
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._restore.append((module, key, original))

    @staticmethod
    def _modules():
        return [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]

    def install(self) -> None:
        """Wrap every target once; call :meth:`uninstall` to undo.

        ``lp.assemblies`` counts the CSR assemblies made while installed.
        """
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, module, path, count in TARGETS:
            self._patch(module, path, lambda fn, n=name, c=count: self._span_wrapper(n, fn, c))
        for module, path, observe in RESOLVERS:
            self._patch(module, path, lambda fn, o=observe: self._counter_wrapper(fn, o))
        self._assemblies_at_install = _assemblies()

    def uninstall(self) -> None:
        self.counters["lp.assemblies"] += _assemblies() - self._assemblies_at_install
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- aggregation -----------------------------------------------------------

    def self_times(self, first_span: int = 0) -> dict[str, float]:
        """Per-layer self time (s) of the spans recorded since ``first_span``."""
        child_time = defaultdict(float)
        for index in range(first_span, len(self.names)):
            parent = self.parents[index]
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        totals = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
        for index in range(first_span, len(self.names)):
            duration = self.ends[index] - self.starts[index]
            totals[SELF_TIME_METRICS[self.names[index]]] += duration - child_time[index]
        return totals

    def dump(self, path: str, labels: list[str]) -> None:
        """Write every recorded span as JSON (times relative to the first)."""
        origin = self.starts[0] if self.starts else 0.0
        spans = [
            {
                "name": self.names[i],
                "start_s": self.starts[i] - origin,
                "end_s": self.ends[i] - origin,
                "parent": self.parents[i],
                "query": labels[self.query_ids[i]] if self.query_ids[i] >= 0 else None,
            }
            for i in range(len(self.names))
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans}, handle)
