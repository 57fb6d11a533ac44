"""Pipeline benchmark of the LLAMP reproduction: what a user runs, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload analyze_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload analyze_mix --seed 1 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` runs every query untraced and then under the outside-in tracer
(``perfbench/spans.py``), or the other way round, and reports the per-layer
metrics; the spans are written to
``.perfbench/spans-<workload>-seed<seed>.json``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``python3 -m pytest
perfbench/selftest.py`` shows that the checks reject perturbed answers.

Load
----
One client process in a closed loop: the next query starts when the previous
one returns; no pool, no threads.  CLI queries run in-process through
``repro.cli.main(argv)``, so they take the exact CLI code path while the
interpreter and import cost is paid once and counted in ``setup_s``.  A pass
runs the seeded query list once; passes repeat while the next one is
expected to end within ``--seconds`` (at least one pass always runs).  Each answer is checked
after its pass, outside the timed window (``perfbench/checks.py``).

Workloads (query lists in ``perfbench/workloads.py``)
------------------------------------------------------
``analyze_mix``
    ``llamp analyze <app> --nranks 8 --json`` for lulesh, milc, hpcg, icon,
    lammps, cloverleaf and openmx, plus icon with ``--allreduce ring``: 8
    queries, 2.7k-15k vertices.  The headline command; HiGHS solves are most
    of its time (6 per query).
``curve_large``
    ``llamp curve`` on lulesh 125, milc 128, icon 64 and hpcg 64 ranks: 4
    queries, 43k-312k vertices.  Zero LP solves: recording, staging, graph
    build, LP compile and the forward envelope dominate.
``trace_validate``
    Set-up writes traces with ``llamp trace`` (lulesh 8, milc 8, icon 16,
    lammps 8).  Each query streams one through ``batches_from_trace_chunked``
    into ``LatencyAnalyzer.from_batches`` and runs ``run_validation_sweep``
    over 6 ΔL points with 10 noisy delay-thread repetitions per point (the
    paper's averaging): 4 queries.  Schedgen is fed from traces, mpi
    recording is bypassed, and the graph feeds the simulator (240 runs)
    beside the LP (10 solves per query).

The rank counts keep one pass near 10 s on a 2-core machine, so a run with
its set-up and checks stays near 40 s (the paper-scale 16-256-rank
versions of these lists take 15-30 s per pass).

The seed permutes the query order and draws each query's ``--latency`` and
``--overhead`` within ±20 % of ``CSCS_TESTBED``, and the ΔL span of
``trace_validate``; graph structure and every count except ``trace.bytes``
are the same for every seed.

End-to-end metrics (``--trace 0``)
----------------------------------
``wall_s`` [s]
    median wall time of one pass (the whole query list).
``query_p50_s`` [s]
    median per-query wall time over every pass (8, 4 and 4 samples per pass;
    no tail percentile has 10 samples beyond it at these counts).
``peak_rss_mb`` [MiB]
    peak resident set size of this process while a query runs (the peak is
    reset before each query, so set-up and checks do not count).
``setup_s`` [s]
    median of three set-ups, each an interpreter start with every import in
    a fresh process, the trace writing and one small warm-up query.
``correct_pct`` [%]
    share of attempted queries that returned and passed their check.

Per-layer metrics (``--trace 1``), per pass
-------------------------------------------
Times are self times [s]: a span's duration minus that of its child spans.
Each line: metric -> end-to-end metric it should move, on which workload.

* ``lp.solve_s`` (``BackendRegistry.solve``), ``lp.solves`` [count] ->
  ``wall_s``/``query_p50_s`` on analyze_mix and trace_validate (6 and 10
  solves per query); 0 on curve_large.
* ``lp.assemble_s`` (``assemble``, ``assemble_rows``), ``lp.assemblies``
  [count, ``assembly_counts()`` delta] -> inside the solve path; the
  assemblies-to-solves ratio shows assembly reuse.
* ``lp.compile_s`` (``build_lp``, ``compile_lp``), ``lp.compiles``,
  ``lp.compiles_unsolved`` [count: compiled models never solved] ->
  ``wall_s`` on curve_large, where every compile goes unsolved.
* ``mpi.record_s`` (``run_program``), ``mpi.ops`` [count] -> ``wall_s`` on
  curve_large and analyze_mix; 0 on trace_validate.
* ``schedgen.batches_s`` (``batches_from_program``), ``schedgen.graph_s``
  (``build_columnar_fused``, ``build_graph``, ``topo_levels``),
  ``schedgen.graph_builds``, ``schedgen.vertices``, ``schedgen.edges``,
  ``schedgen.levels`` [count] -> ``wall_s`` and ``peak_rss_mb`` on
  curve_large; little elsewhere.
* ``core.envelope_s`` (``forward_envelope``), ``core.envelopes``,
  ``core.envelope_pieces`` [count] -> ``wall_s`` on curve_large; 0 on the
  other two until the analyzer derives its metrics from the envelope.
* ``core.analyzer_s`` (public ``LatencyAnalyzer`` metric methods) ->
  ``wall_s`` on analyze_mix.
* ``simulator.simulate_s`` (``simulate``, ``simulate_sweep``),
  ``simulator.runs``, ``simulator.vertex_updates`` [count, vertices x runs]
  -> ``wall_s`` on trace_validate only.
* ``trace.ingest_s`` (``batches_from_trace_chunked``), ``trace.records``
  [count], ``trace.bytes`` [bytes] -> ``wall_s`` on trace_validate; trace
  writing counts in ``setup_s``.  ``trace.bytes`` moves by a few dozen bytes
  with the seed, because timestamps are written as text.
* ``analysis.validate_s`` (``run_validation_sweep``) -> ``wall_s`` on
  trace_validate; ``analysis.rrmse_pct`` [%] is the worst measured-vs-
  predicted RRMSE of the pass (trace_validate only, 0 elsewhere).
* ``cli.self_s`` (``repro.cli.main``) -> ``query_p50_s`` on analyze_mix and
  curve_large.
* ``schedgen.legacy_engine``, ``simulator.legacy_engine``,
  ``core.envelope_lp_fallbacks`` [count]: how often an ``auto`` resolver
  chose a legacy engine or fell back to the LP oracle.  Expected 0; a
  non-zero count explains a jump in ``wall_s`` (an LP fallback costs ~20x).
* ``spans.overhead_pct`` [%]: geometric mean over queries of traced over
  untraced query time, minus 100.  Each query runs untraced and traced back
  to back, the order alternating from query to query, so machine drift and
  the faster second run of a pair cancel out.
  ``spans.coverage_pct`` [%]: the layers' self times over the traced pass
  wall time (the rest is benchmark glue and uninstrumented code).

No layer waits on a queue or a thread in this closed single-process loop, so
waiting time is not recorded.  Not measured: ``parallel``, ``artifacts`` and
``placement`` (not exercised by these user paths; a worker pool on 2 cores
would measure the scheduler) and ``network`` (parameter objects only).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("analyze_mix", "curve_large", "trace_validate")
SETUP_REPEATS = 3
#: what a fresh interpreter imports in each set-up: the benchmark's query
#: module and with it the CLI and every layer it loads
FRESH_IMPORT = "import sys; sys.path[:0] = sys.argv[1:]; import workloads"

END_TO_END_UNITS = {
    "wall_s": "s",
    "query_p50_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "correct_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS mark of this process (Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mib() -> float:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Pass:
    """Wall times, peak RSS and answers of one pass over the query list."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.peaks: list[float] = []
        self.answers: list[tuple[object, str | None]] = []

    @property
    def wall(self) -> float:
        return sum(self.times)

    def run(self, workloads, query, tracer=None) -> None:
        """Run ``query`` once, under ``tracer`` when one is given."""
        if tracer is not None:
            tracer.install()
        reset_peak_rss()
        start = time.perf_counter()
        try:
            answer, error = workloads.run_query(query), None
        except Exception:  # a failed query is counted and the loop goes on
            answer, error = None, traceback.format_exc()
        self.times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.uninstall()
        self.peaks.append(peak_rss_mib())
        self.answers.append((answer, error))

    def worst_rrmse_pct(self, queries) -> float:
        """The largest validation RRMSE among the answers (0 without any)."""
        return max((answer[0].rrmse * 100
                    for query, (answer, error) in zip(queries, self.answers)
                    if error is None and query.kind == "trace_validate"), default=0.0)


def check_pass(workloads, checker, queries, run: Pass) -> int:
    """Check every answer of ``run``; return the number of failed queries."""
    failed = 0
    for query, (answer, error) in zip(queries, run.answers):
        if error is None:
            try:
                problems = checker(query, workloads.parse_answer(query, answer))
            except Exception:
                problems = [traceback.format_exc()]
        else:
            problems = [error]
        if problems:
            failed += 1
            print(f"FAILED {query.label}: " + "; ".join(problems), file=sys.stderr)
    run.answers = None  # free the graphs of trace queries
    return failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import spans
    import workloads

    work_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workloads, checks, spans, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, workloads, checks, spans, work_dir) -> int:
    queries = workloads.make_queries(args.workload, args.seed, work_dir)
    warmup = workloads.warmup_query(args.workload, work_dir)
    setups = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        subprocess.run([sys.executable, "-c", FRESH_IMPORT,
                        str(ROOT / "src"), str(Path(__file__).resolve().parent)], check=True)
        if args.workload == "trace_validate":
            for query in [warmup, *queries]:
                workloads.write_trace(query)
        workloads.run_query(warmup)
        setups.append(time.perf_counter() - begin)

    checker = checks.Checker()
    tracer = spans.Tracer() if args.trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    layer_rows: list[dict[str, float]] = []
    failed = attempted = 0
    rrmse_pct = elapsed = 0.0
    while True:
        # under --trace 1 each query runs untraced and traced back to back
        # (see spans.overhead_pct)
        plain_run, traced_run = Pass(), Pass()
        runs = [plain_run, traced_run] if tracer else [plain_run]
        if tracer:
            first_span = len(tracer.names)
            tracer.reset_counters()
        for index, query in enumerate(queries):
            if tracer is None:
                plain_run.run(workloads, query)
                continue
            tracer.query = index
            if index % 2:
                traced_run.run(workloads, query, tracer)
                plain_run.run(workloads, query)
            else:
                plain_run.run(workloads, query)
                traced_run.run(workloads, query, tracer)
        plain.append(plain_run)
        if tracer:
            traced.append(traced_run)
            row = tracer.self_times(first_span)
            row["spans.coverage_pct"] = 100 * sum(row.values()) / traced_run.wall
            row.update(tracer.snapshot_counters())
            layer_rows.append(row)
        for run in runs:
            rrmse_pct = max(rrmse_pct, run.worst_rrmse_pct(queries))
            attempted += len(queries)
            failed += check_pass(workloads, checker, queries, run)
        round_wall = sum(run.wall for run in runs)
        elapsed += round_wall
        if elapsed + round_wall > args.seconds:
            break

    if tracer:
        metrics = {name: statistics.median(row[name] for row in layer_rows)
                   for name in layer_rows[0]}
        metrics["analysis.rrmse_pct"] = rrmse_pct
        ratios = [t / p for a, b in zip(traced, plain) for t, p in zip(a.times, b.times)]
        metrics["spans.overhead_pct"] = 100 * (statistics.geometric_mean(ratios) - 1)
        tracer.dump(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"),
                    [query.label for query in queries])
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(r.wall for r in plain),
            "query_p50_s": statistics.median(t for r in plain for t in r.times),
            "peak_rss_mb": max(p for r in plain for p in r.peaks),
            "setup_s": statistics.median(setups),
            "correct_pct": 100 * (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS

    samples = sum(len(r.times) for r in plain)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(queries)} queries "
          f"({samples} untraced query samples), {failed}/{attempted} failed")
    print("  untraced pass wall times [s]: " + ", ".join(f"{r.wall:.3f}" for r in plain))
    for name, value in metrics.items():
        print(f"  {name:<28s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "bytes" if name == "trace.bytes" else "count"


if __name__ == "__main__":
    sys.exit(main())
