"""Shared-memory scenario fleet vs the pickling pool (acceptance criterion).

The legacy multi-process sweep pickled every :class:`ExecutionGraph` into
every pool task: a duplicated-graph fleet of J scenarios over U unique
graphs costs J full serialisations *and* J full LP sweeps.  The
:class:`~repro.parallel.SweepPool` ships each unique graph once as
shared-memory columns (workers attach zero-copy views) and dedupes the
batch by content digest, so the same fleet costs U sweeps and zero pickles.

Acceptance criterion: on a fleet of ``DUPLICATES`` copies of each of two
64-rank ring-allreduce schedules, the shared-memory fleet must be at least
**5×** faster end-to-end than the pickling pool, with **bit-identical**
envelopes, **zero** leaked ``/dev/shm`` segments after the run, and
per-worker peak RSS no worse than ~the pickling pool's (the shared path maps
the same pages instead of holding private unpickled copies).
"""

from __future__ import annotations

import multiprocessing
import resource
import time

from repro.core.parametric import _sweep_one_graph
from repro.mpi import run_program
from repro.network.params import LogGPSParams
from repro.parallel import SweepPool, SweepTask, live_shared_segments
from repro.schedgen import CollectiveAlgorithms, build_graph

from _bench_utils import emit_json, print_header, print_rows

NRANKS = 64
ITERATIONS = 8
MESSAGE_BYTES = (64 * 1024, 32 * 1024)  # two unique graphs
DUPLICATES = 12                          # scenarios per unique graph
L_MIN, L_MAX = 1.0, 3.0
# pinned worker count: both paths use the same pool size, so the measured
# ratio isolates the protocol difference (pickling + duplicate solves vs
# shared columns + digest dedupe) instead of the host's core count
PROCESSES = 2
MIN_SPEEDUP = 5.0
RSS_SLACK = 1.25

PARAMS = LogGPSParams(L=1.0, o=0.5, g=0.0, G=0.001)
# per-pair gap variables break the forward pass's affinity, so every task
# runs the LP tangent search: this benchmark isolates the transport cost
# (pickled graphs vs shared columns), and the per-task compute must stay
# identical on both paths and large enough to be the unit of work
BUILD_KWARGS = {"latency_mode": "global", "gap_mode": "per_pair"}


def _build_graphs():
    graphs = []
    for message_bytes in MESSAGE_BYTES:

        def app(comm, _bytes=message_bytes):
            for _ in range(ITERATIONS):
                comm.compute(1.0)
                comm.allreduce(_bytes)

        program = run_program(app, NRANKS)
        graphs.append(
            build_graph(program, algorithms=CollectiveAlgorithms(allreduce="ring"))
        )
    return graphs


def _pickling_job(job):
    """The legacy path: the whole graph arrives pickled inside the task."""
    envelope = _sweep_one_graph(job)
    return envelope, int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _run_pickling_pool(fleet):
    jobs = [
        (graph, PARAMS, L_MIN, L_MAX, "auto", 50_000, None, BUILD_KWARGS)
        for graph in fleet
    ]
    start = time.perf_counter()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(PROCESSES) as pool:
        out = pool.map(_pickling_job, jobs)
    elapsed = time.perf_counter() - start
    envelopes = [envelope for envelope, _ in out]
    return elapsed, envelopes, max(rss for _, rss in out)


def _run_shared_fleet(fleet):
    digests = [graph.content_digest() for graph in fleet]
    by_digest = dict(zip(digests, fleet))
    tasks = [
        SweepTask(
            graph_digest=digest,
            params_digest=PARAMS.content_digest(),
            l_min=L_MIN,
            l_max=L_MAX,
            backend="auto",
            max_pieces=50_000,
            build_kwargs=tuple(sorted(BUILD_KWARGS.items())),
            params=PARAMS,
            scenario=f"fleet[{i}]",
        )
        for i, digest in enumerate(digests)
    ]
    start = time.perf_counter()
    with SweepPool(PROCESSES) as pool:
        payloads = pool.run_tasks(tasks, by_digest)
    elapsed = time.perf_counter() - start
    envelopes = [payload["envelope"] for payload in payloads]
    return elapsed, envelopes, max(p["worker_rss_kb"] for p in payloads)


def _run():
    segments_before = live_shared_segments()
    graphs = _build_graphs()
    # the duplicated-graph fleet: every unique schedule appears DUPLICATES times
    fleet = [graphs[i % len(graphs)] for i in range(len(graphs) * DUPLICATES)]

    pickling_s, pickling_envelopes, pickling_rss = _run_pickling_pool(fleet)
    shared_s, shared_envelopes, shared_rss = _run_shared_fleet(fleet)

    return {
        "nranks": NRANKS,
        "vertices": graphs[0].num_vertices,
        "unique_graphs": len(graphs),
        "fleet_size": len(fleet),
        "processes": PROCESSES,
        "pickling_s": pickling_s,
        "shared_s": shared_s,
        "speedup": pickling_s / shared_s,
        "pickling_worker_rss_kb": pickling_rss,
        "shared_worker_rss_kb": shared_rss,
        "bit_identical": shared_envelopes == pickling_envelopes,
        "leaked_segments": sorted(live_shared_segments() - segments_before),
    }


def test_shared_fleet_speedup(run_once):
    results = run_once(_run)

    print_header(
        f"Shared-memory scenario fleet — {results['fleet_size']} scenarios over "
        f"{results['unique_graphs']} unique {NRANKS}-rank ring-allreduce graphs"
    )
    print_rows(
        ["path", "wall [s]", "worker RSS [MB]"],
        [
            ["pickling pool", results["pickling_s"], results["pickling_worker_rss_kb"] / 1024],
            ["shared fleet", results["shared_s"], results["shared_worker_rss_kb"] / 1024],
        ],
    )
    print(f"speedup: {results['speedup']:.1f}x  "
          f"(bit-identical: {results['bit_identical']}, "
          f"leaked segments: {len(results['leaked_segments'])})")

    emit_json("shared_fleet", results)

    assert results["bit_identical"], "shared fleet envelopes differ from the pickling pool"
    assert not results["leaked_segments"], (
        f"leaked shared-memory segments: {results['leaked_segments']}"
    )
    assert results["speedup"] >= MIN_SPEEDUP, (
        f"shared fleet only {results['speedup']:.1f}x faster than the pickling pool"
    )
    assert results["shared_worker_rss_kb"] <= results["pickling_worker_rss_kb"] * RSS_SLACK, (
        "shared-fleet worker RSS grew versus the pickling pool: "
        f"{results['shared_worker_rss_kb']} kB vs {results['pickling_worker_rss_kb']} kB"
    )
