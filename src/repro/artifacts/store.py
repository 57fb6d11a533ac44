"""A content-addressed on-disk store for the pipeline's frozen artifacts.

Every expensive artifact (frozen graph, assembled LP, tangent envelope) is
immutable and a deterministic function of its inputs, so it can be keyed by
the sha256 digests of those inputs (:meth:`ExecutionGraph.content_digest`,
:meth:`LogGPSParams.content_digest`) and rebuilt at most once per key —
the persist-once/serve-many shape the service layer mounts directly.

Layout::

    <root>/<kind>/<key[:2]>/<key>.npz

with ``kind`` one of ``graph`` / ``lp`` / ``envelope`` and ``key`` a hex
digest (the two-character fan-out keeps directories small).  Writes are
atomic (tempfile + :func:`os.replace`), so concurrent workers racing on the
same key at worst both build and one replace wins — never a torn file.
Corrupt or truncated entries are deleted and rebuilt transparently.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Callable

from .serialize import (
    load_envelope,
    load_graph,
    load_lp,
    save_envelope,
    save_graph,
    save_lp,
)

__all__ = [
    "ArtifactStore",
    "combine_digests",
    "envelope_key",
    "envelope_key_from_digests",
]

_HEX = set("0123456789abcdef")

#: sweep options that shape a cached envelope, at the defaults of
#: ``build_lp`` / ``BatchedSweep`` / ``batched_sweep_graphs``: filled in so an
#: omitted option and its explicit default address the same entry
ENVELOPE_KEY_DEFAULTS = {
    "latency_mode": "global",
    "gap_mode": "constant",
    "overhead_mode": "constant",
    "max_pieces": 50_000,
}

#: ``build_lp`` options that never change the curve, left out of the key
_CURVE_NEUTRAL_OPTIONS = ("engine", "name")


def combine_digests(*parts: object) -> str:
    """Derive one sha256 cache key from several digest/config components.

    Each part is hashed behind a separator so the combination is injective
    over the part list (no concatenation ambiguity).
    """
    h = hashlib.sha256(b"repro:artifact-key:v1\0")
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def envelope_key(graph, params, *, l_min: float, l_max: float, **config: object) -> str:
    """The cache key of one exact ``T(L)`` envelope.

    Combines the graph and parameter content digests with the swept interval
    and the configuration that changes the produced curve — the LP build
    modes and ``max_pieces`` (defaults filled in from
    :data:`ENVELOPE_KEY_DEFAULTS`) plus any extra ``config`` — sorted by name
    so keyword order is irrelevant.  The LP engine and model name are left
    out: every caller that sweeps the same graph, parameters, interval and
    modes addresses one entry.
    """
    return envelope_key_from_digests(
        graph.content_digest(),
        params.content_digest(),
        l_min=l_min,
        l_max=l_max,
        **config,
    )


def envelope_key_from_digests(
    graph_digest: str, params_digest: str, *, l_min: float, l_max: float,
    **config: object,
) -> str:
    """:func:`envelope_key` for callers that hold only the content digests.

    Pool workers resolve scenarios by ``(graph_digest, params_digest)``
    without ever materialising the graph, yet must address the same store
    entries the in-process path writes — both key builders therefore share
    this digest-level implementation.
    """
    parts: list[object] = [
        "envelope",
        graph_digest,
        params_digest,
        repr(float(l_min)),
        repr(float(l_max)),
    ]
    config = {
        **ENVELOPE_KEY_DEFAULTS,
        **{k: v for k, v in config.items() if k not in _CURVE_NEUTRAL_OPTIONS},
    }
    for name in sorted(config):
        parts.append(name)
        parts.append(repr(config[name]))
    return combine_digests(*parts)


class ArtifactStore:
    """Content-addressed ``get_or_build`` cache over :mod:`.serialize`.

    The store is safe to share between processes (atomic writes, reads of
    complete files only); the hit/miss counters are process-local.
    """

    KINDS = ("graph", "lp", "envelope")

    _SAVERS: dict[str, Callable] = {
        "graph": save_graph,
        "lp": save_lp,
        "envelope": save_envelope,
    }
    _LOADERS: dict[str, Callable] = {
        "graph": load_graph,
        "lp": load_lp,
        "envelope": load_envelope,
    }

    def __init__(
        self, root: str | Path, *, graph_mmap_mode: str | None = None
    ) -> None:
        if graph_mmap_mode not in (None, "r"):
            raise ValueError(
                f"graph_mmap_mode must be None or 'r', got {graph_mmap_mode!r}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.graph_mmap_mode = graph_mmap_mode
        self.hits: dict[str, int] = {kind: 0 for kind in self.KINDS}
        self.misses: dict[str, int] = {kind: 0 for kind in self.KINDS}

    # -- addressing ---------------------------------------------------------

    def path_for(self, kind: str, key: str) -> Path:
        """The on-disk path of entry ``(kind, key)`` (whether it exists or not)."""
        self._check_kind(kind)
        key = str(key)
        if len(key) < 6 or not set(key) <= _HEX:
            raise ValueError(f"artifact key must be a hex digest, got {key!r}")
        return self.root / kind / key[:2] / f"{key}.npz"

    def contains(self, kind: str, key: str) -> bool:
        return self.path_for(kind, key).exists()

    def _check_kind(self, kind: str) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}; expected one of {self.KINDS}")

    # -- read/write ---------------------------------------------------------

    def _atomic_save(self, kind: str, path: Path, obj: object) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        os.close(fd)
        try:
            self._SAVERS[kind](obj, tmp)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get(self, kind: str, key: str):
        """Load entry ``(kind, key)`` or return ``None`` (miss or corrupt).

        A corrupt entry is deleted so the next :meth:`get_or_build` rebuilds
        it.  Counters are not touched — use :meth:`get_or_build` for the
        counted path.
        """
        path = self.path_for(kind, key)
        if not path.exists():
            return None
        try:
            if kind == "graph" and self.graph_mmap_mode is not None:
                # zero-copy columns over the stored archive; every load is
                # context-managed or fd-free, so a long-lived fleet pool
                # serving thousands of gets never accumulates descriptors
                return self._LOADERS[kind](path, mmap_mode=self.graph_mmap_mode)
            return self._LOADERS[kind](path)
        except Exception:
            path.unlink(missing_ok=True)
            return None

    def put(self, kind: str, key: str, obj: object) -> Path:
        """Store ``obj`` under ``(kind, key)`` unconditionally (atomic)."""
        path = self.path_for(kind, key)
        self._atomic_save(kind, path, obj)
        return path

    def get_or_build(self, kind: str, key: str, builder: Callable[[], object]):
        """Return the cached entry for ``key``, building and storing on miss."""
        cached = self.get(kind, key)
        if cached is not None:
            self.hits[kind] += 1
            return cached
        obj = builder()
        self.misses[kind] += 1
        self._atomic_save(kind, self.path_for(kind, key), obj)
        return obj

    # typed conveniences (fixed kind, precise return types for callers)

    def get_or_build_graph(self, key: str, builder: Callable[[], object]):
        return self.get_or_build("graph", key, builder)

    def get_or_build_lp(self, key: str, builder: Callable[[], object]):
        """``builder`` returns an :class:`LPModel`; the cached load returns
        ``(model, meta)`` like :func:`repro.artifacts.load_lp` — use
        :meth:`get`/:meth:`put` directly to control ``meta``."""
        cached = self.get("lp", key)
        if cached is not None:
            self.hits["lp"] += 1
            return cached[0]
        model = builder()
        self.misses["lp"] += 1
        self._atomic_save("lp", self.path_for("lp", key), model)
        return model

    def get_or_build_envelope(self, key: str, builder: Callable[[], object]):
        return self.get_or_build("envelope", key, builder)

    # -- maintenance --------------------------------------------------------

    def entries(self, kind: str | None = None) -> list[Path]:
        """All stored entry files, optionally restricted to one kind."""
        kinds = self.KINDS if kind is None else (kind,)
        found: list[Path] = []
        for k in kinds:
            self._check_kind(k)
            base = self.root / k
            if base.is_dir():
                found.extend(sorted(base.glob("*/*.npz")))
        return found

    def stats(self) -> dict[str, object]:
        """Per-kind entry counts/sizes plus this process's hit/miss counters."""
        kinds = {}
        for kind in self.KINDS:
            files = self.entries(kind)
            kinds[kind] = {
                "entries": len(files),
                "bytes": sum(f.stat().st_size for f in files),
                "hits": self.hits[kind],
                "misses": self.misses[kind],
            }
        return {
            "root": str(self.root),
            "kinds": kinds,
            "total_entries": sum(k["entries"] for k in kinds.values()),
            "total_bytes": sum(k["bytes"] for k in kinds.values()),
        }

    def clear(self, kind: str | None = None) -> int:
        """Delete stored entries (all kinds by default); returns the count."""
        files = self.entries(kind)
        for path in files:
            path.unlink(missing_ok=True)
        return len(files)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArtifactStore(root={str(self.root)!r})"
