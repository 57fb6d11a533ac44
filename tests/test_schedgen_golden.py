"""Golden content digests of the schedule generator over a fixed corpus.

Every case below builds one execution graph through the public schedgen
entry points (``build_graph``, ``ScheduleGenerator.build_from_trace``,
``App.build``) and pins its :meth:`~repro.schedgen.graph.ExecutionGraph.content_digest`
— which covers ``nranks``, every identity column in canonical byte order
and the labels — against ``tests/data/schedgen_golden.json``.  A digest
match is bit identity of the frozen graph: same vertex ids, attribute
columns, edge order and labels.

The corpus sweeps every collective × algorithm at 1–16 ranks (including
non-powers of two), point-to-point programs under four protocol
configurations (eager, rendezvous-expanded, rendezvous kept eager, mixed
threshold), seeded random programs, trace-driven builds with and without
``min_compute``, the Fig. 4 running example and every application skeleton.

The digests were recorded while an independent op-by-op reference builder
still existed and agreed with the production engine on every case.
Regenerate (only after an intended change of the graph layout) with::

    PYTHONPATH=src python tests/test_schedgen_golden.py --write

``--engines A B ...`` builds every case once per value of the schedule
generator's ``builder_engine`` argument and refuses to write unless all
engines agree; it only applies to source trees that have that argument.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.apps import ALL_APPS
from repro.mpi import run_program, trace_program
from repro.network.params import CSCS_TESTBED, LogGPSParams
from repro.schedgen import (
    USER_TAG_LIMIT,
    CollectiveAlgorithms,
    ProtocolConfig,
    ScheduleGenerator,
    build_graph,
)
from repro.testing import build_random_program, build_running_example

GOLDEN_PATH = Path(__file__).parent / "data" / "schedgen_golden.json"

PARAMS = LogGPSParams(L=1.0, o=0.5, g=0.0, G=0.001)

_PROTOCOLS = {
    "default": None,
    "rdv1024": ProtocolConfig(eager_threshold=1024),
    "eager1024": ProtocolConfig(eager_threshold=1024, expand_rendezvous=False),
    "rdv6000": ProtocolConfig(eager_threshold=6000),
}

#: ``"<collective>_<algorithm>"`` -> (algorithm field, rooted?)
_COLLECTIVES = {
    "barrier_dissemination": ("barrier", False),
    "bcast_binomial": ("bcast", True),
    "bcast_linear": ("bcast", True),
    "reduce_binomial": ("reduce", True),
    "allreduce_recursive_doubling": ("allreduce", False),
    "allreduce_ring": ("allreduce", False),
    "allreduce_reduce_bcast": ("allreduce", False),
    "allgather_ring": ("allgather", False),
    "allgather_recursive_doubling": ("allgather", False),
    "alltoall_pairwise": ("alltoall", False),
    "gather_linear": ("gather", True),
    "scatter_linear": ("scatter", True),
}


# -- programs ------------------------------------------------------------------

def _single_collective(collective: str, rooted: bool):
    def call(comm, size):
        method = getattr(comm, collective)
        if collective == "barrier":
            method()
        elif rooted:
            method(size, root=comm.size - 1)
        else:
            method(size)

    def app(comm):
        comm.compute(1.0)
        call(comm, 4096)
        comm.compute(0.5)
        call(comm, 100)

    return app


def _every_collective(comm):
    comm.compute(2.0)
    comm.bcast(256, root=comm.size - 1)
    comm.reduce(128, root=0)
    comm.allreduce(64)
    comm.allgather(64)
    comm.alltoall(32)
    comm.gather(64, root=0)
    comm.scatter(64, root=comm.size - 1)
    comm.barrier()


def _two_allreduces(comm):
    comm.compute(1.0)
    comm.allreduce(4096)
    comm.compute(0.5)
    comm.allreduce(128)


def _blocking_and_nonblocking(comm):
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


def _sendrecv_ring(comm):
    sizes = [7000 if r % 2 == 0 else 300 for r in range(comm.size)]
    comm.sendrecv(
        (comm.rank + 1) % comm.size, sizes[comm.rank],
        (comm.rank - 1) % comm.size, sizes[(comm.rank - 1) % comm.size],
        send_tag=60, recv_tag=60,
    )


def _wait_immediately_after_isend(comm):
    r = comm.irecv((comm.rank - 1) % comm.size, 64, tag=1)
    s = comm.isend((comm.rank + 1) % comm.size, 64, tag=1)
    comm.wait(s)
    comm.wait(r)


def _largest_user_tag(comm):
    tag = USER_TAG_LIMIT - 1
    if comm.rank == 0:
        comm.send(1, 1_000_000, tag=tag)
    else:
        comm.recv(0, 1_000_000, tag=tag)
    comm.allreduce(64)


def _running_example(comm):
    """Fig. 4: C0 -> S -> C1 on rank 0, C2 -> R -> C3 on rank 1."""
    if comm.rank == 0:
        comm.compute(0.1)
        comm.send(1, 4)
        comm.compute(1.0)
    else:
        comm.compute(0.5)
        comm.recv(0, 4)
        comm.compute(1.0)


def _barrier(comm):
    comm.barrier()


def _forty_allreduces(comm):
    for _ in range(40):
        comm.compute(1.0)
        comm.allreduce(64)


def _traced(comm):
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


# -- the corpus ----------------------------------------------------------------

def _program_case(app, nranks, **kwargs):
    return lambda engine: build_graph(run_program(app, nranks), **kwargs, **engine)


def _random_case(seed, protocol):
    return lambda engine: build_graph(
        build_random_program(seed, nranks=4, rounds=15), protocol=protocol, **engine
    )


def _trace_case(nranks, protocol, min_compute):
    def build(engine):
        trace = trace_program(run_program(_traced, nranks), PARAMS)
        generator = ScheduleGenerator(protocol=protocol, **engine)
        return generator.build_from_trace(trace, min_compute=min_compute)

    return build


def _app_case(module, nranks):
    return lambda engine: module.build(nranks, CSCS_TESTBED, **engine)


def corpus() -> dict:
    """``{case name: build(engine_kwargs) -> ExecutionGraph}``."""
    cases = {}
    for name, (collective, rooted) in _COLLECTIVES.items():
        algorithms = CollectiveAlgorithms(
            **{collective: name.split("_", 1)[1]}
        )
        for nranks in range(1, 17):
            cases[f"collective/{name}/n{nranks:02d}"] = _program_case(
                _single_collective(collective, rooted), nranks, algorithms=algorithms
            )
    for allreduce in CollectiveAlgorithms._ALLREDUCE:
        for nranks in (2, 3, 4, 5, 8, 16):
            cases[f"two_allreduces/{allreduce}/n{nranks:02d}"] = _program_case(
                _two_allreduces, nranks,
                algorithms=CollectiveAlgorithms(allreduce=allreduce),
            )
    for label, algorithms in (
        ("default", CollectiveAlgorithms()),
        ("linear_rd", CollectiveAlgorithms(bcast="linear", allgather="recursive_doubling")),
    ):
        for nranks in (1, 2, 3, 5, 8):
            cases[f"every_collective/{label}/n{nranks:02d}"] = _program_case(
                _every_collective, nranks, algorithms=algorithms
            )
    for label, protocol in _PROTOCOLS.items():
        for nranks in (2, 3, 4):
            cases[f"p2p/{label}/n{nranks:02d}"] = _program_case(
                _blocking_and_nonblocking, nranks, protocol=protocol
            )
        cases[f"sendrecv_ring/{label}"] = _program_case(
            _sendrecv_ring, 4, protocol=protocol
        )
    cases["wait_immediately_after_isend"] = _program_case(_wait_immediately_after_isend, 2)
    cases["largest_user_tag/rdv1024"] = _program_case(
        _largest_user_tag, 2, protocol=ProtocolConfig(eager_threshold=1024)
    )
    cases["fig4_running_example"] = _program_case(_running_example, 2)
    cases["barrier/n02"] = _program_case(_barrier, 2)
    cases["forty_allreduces/n04"] = _program_case(_forty_allreduces, 4)
    cases["eight_rank_allreduces"] = _program_case(_two_allreduces, 8, params=PARAMS)
    for seed in range(10):
        for label, protocol in (("default", None), ("rdv8192", ProtocolConfig(eager_threshold=8192))):
            cases[f"random/{label}/seed{seed}"] = _random_case(seed, protocol)
    for nranks in (2, 4, 5):
        for label in ("default", "rdv1024"):
            cases[f"trace/{label}/n{nranks:02d}"] = _trace_case(
                nranks, _PROTOCOLS[label], 0.0
            )
    cases["trace/default/n04/min_compute1"] = _trace_case(4, None, 1.0)
    for name, module in ALL_APPS.items():
        cases[f"app/{name}/n04"] = _app_case(module, 4)
    return cases


CORPUS = corpus()


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_the_corpus():
    assert sorted(_golden()) == sorted(CORPUS)


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_digest_matches_golden(case):
    assert CORPUS[case]({}).content_digest() == _golden()[case]


def test_running_example_program_is_fig4_graph():
    """The traced Fig. 4 program yields exactly the hand-built running example."""
    assert _golden()["fig4_running_example"] == build_running_example().content_digest()


def _generate(engines: list[str]) -> dict:
    digests = {}
    for name, build in CORPUS.items():
        per_engine = {
            engine: build({"builder_engine": engine}).content_digest() for engine in engines
        } if engines else {"": build({}).content_digest()}
        if len(set(per_engine.values())) != 1:
            raise SystemExit(f"{name}: engines disagree: {per_engine}")
        digests[name] = next(iter(per_engine.values()))
    return digests


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="overwrite the golden file")
    parser.add_argument("--engines", nargs="*", default=[], help="builder_engine values to cross-check")
    args = parser.parse_args()
    digests = _generate(args.engines)
    if args.write:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")
    else:
        print(json.dumps(digests, indent=1, sort_keys=True))
