"""Content-addressed on-disk cache of experiment results.

Layout: one entry per key under ``<root>/results/<key[:2]>/<key>.json``
in the shared checksum envelope of :mod:`repro.runner.store`
(``repro-result 3 <sha256>`` header line, then a compact JSON body
holding a metadata header — experiment id, scale, seed, code
fingerprint — next to the full
:class:`~repro.validation.series.ExperimentResult` serialisation).
JSON round-trips ``float64`` exactly (``repr`` is the shortest
round-tripping decimal), so cached series are bit-identical to freshly
computed ones — which the golden tests assert.

The default root is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.  Writes
are atomic (unique temp file + ``os.replace``) so a crashed run never
leaves a truncated entry behind.

Self-healing reads: every read verifies the envelope checksum.  An
entry that fails to verify or to parse (bit-rot, torn write, stale
checksum, an older format) is *quarantined* — moved aside under
``<root>/quarantine/`` for post-mortems — and reported as a miss, so
the caller recomputes and the next ``put`` heals the slot.  The chaos
suite drives this path via the ``cache-corrupt``/``cache-truncate``
/``cache-stale`` fault points, which mangle the envelope between
serialisation and the atomic rename.

Fleet mode: when a shared-memory arena is attached (``arena=``), the
exact stored bytes are mirrored into it, so sibling worker processes
hit warm entries without touching the filesystem.  Arena reads go
through the same envelope decode as disk reads — a poisoned arena slot
is invalidated and the read falls back to disk (and from there to
recompute).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..faults import corrupt_text, fault_flag
from ..validation.series import ExperimentResult
from .store import ContentStore, seal, unseal

__all__ = ["CacheStats", "ResultCache", "default_cache_root"]

_MAGIC = b"repro-result"
_FORMAT = 3  # v3: the shared store envelope (v2 embedded the checksum)


def default_cache_root() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro"


def _result_doc(body: bytes) -> dict:
    return json.loads(body)["result"]


@dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: entries moved aside after failing verification or parsing.
    quarantined: int = 0
    #: per-experiment outcome, id -> "hit" | "miss"
    outcomes: dict[str, str] = field(default_factory=dict)

    def record(self, exp_id: str, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        self.outcomes[exp_id] = "hit" if hit else "miss"

    def summary(self) -> str:
        base = f"{self.hits} hit(s), {self.misses} miss(es)"
        if self.quarantined:
            base += f", {self.quarantined} quarantined"
        return base


class ResultCache:
    """Read/write access to the content-addressed result store."""

    def __init__(self, root: Path | str | None = None, *, arena=None):
        self.root = Path(root) if root is not None else default_cache_root()
        self.store = ContentStore(self.root / "results", suffix=".json",
                                  magic=_MAGIC, fmt=_FORMAT,
                                  quarantine=self.root / "quarantine")
        self.stats = CacheStats()
        #: optional cross-process entry mirror (fleet mode).
        self.arena = arena

    @staticmethod
    def _arena_key(key: str) -> bytes:
        return f"rc:{key}".encode()

    def _get(self, key: str, label: str, parse):
        """``parse(body)`` of the verified entry under ``key``, or None.

        The arena mirror is tried first; a poisoned slot is dropped and
        the read falls back to disk.  A disk entry that fails to verify
        or to parse is quarantined, so the caller recomputes.
        """
        if self.arena is not None:
            hot = self.arena.get(self._arena_key(key))
            if hot is not None:
                try:
                    value = parse(unseal(_MAGIC, _FORMAT, hot))
                except Exception:
                    self.arena.invalidate(self._arena_key(key))
                else:
                    self.stats.record(label, hit=True)
                    return value
        raw, value = self.store.load(key, parse)
        if value is None:
            self.stats.quarantined += raw is not None
            self.stats.record(label, hit=False)
            return None
        if self.arena is not None:
            self.arena.put(self._arena_key(key), raw)
        self.stats.record(label, hit=True)
        return value

    def get_doc(self, key: str, label: str = "?") -> dict | None:
        """The raw JSON payload cached under ``key``, or None (the
        ablation and bounds harnesses cache per-cell documents this
        way)."""
        return self._get(key, label, _result_doc)

    def get(self, key: str, exp_id: str = "?") -> ExperimentResult | None:
        """The cached result under ``key``, or None."""
        return self._get(key, exp_id, lambda body: ExperimentResult
                         .from_dict(_result_doc(body)))

    def put(self, key: str, result: ExperimentResult, *,
            meta: dict | None = None) -> Path:
        """Store ``result`` under ``key`` atomically; returns the path."""
        return self.put_doc(key, result.to_dict(), meta=meta)

    def put_doc(self, key: str, result_doc: dict, *,
                meta: dict | None = None) -> Path:
        """Store a raw JSON payload under ``key`` atomically.

        The ``cache-*`` fault points mangle the sealed envelope here,
        between serialisation and the atomic rename.
        """
        body = json.dumps({"meta": meta or {}, "result": result_doc},
                          separators=(",", ":")).encode()
        blob = seal(_MAGIC, _FORMAT, body)
        if fault_flag("cache-stale"):
            nl = blob.index(b"\n")
            blob = blob[:nl - 64] + b"0" * 64 + blob[nl:]
        if fault_flag("cache-truncate"):
            blob = blob[: len(blob) // 2]
        if fault_flag("cache-corrupt"):
            blob = corrupt_text(blob.decode()).encode()
        path = self.store.write(key, blob)
        if self.arena is not None:
            # mirror the exact stored bytes — fault-mangled payloads stay
            # mangled, so arena readers verify the same bytes as disk
            self.arena.put(self._arena_key(key), blob)
        self.stats.stores += 1
        return path

    # ------------------------------------------------------------------
    def entries(self) -> list[dict]:
        """Metadata headers of the healthy entries (sorted by experiment
        id) — exactly the entries :meth:`clear` removes.  A damaged entry
        is listed without metadata until a read quarantines it."""
        out = []
        for path in self.store.entries():
            try:
                raw = path.read_bytes()
            except OSError:
                continue  # removed since the listing
            try:
                meta = json.loads(unseal(_MAGIC, _FORMAT, raw))["meta"]
            except (ValueError, KeyError, TypeError):
                meta = {}
            out.append({"key": path.stem, "bytes": len(raw), **meta})
        return sorted(out, key=lambda e: (e.get("experiment", ""), e["key"]))

    def quarantined(self) -> list[Path]:
        """The quarantined entry files (newest last)."""
        qdir = self.store.quarantine_dir
        if not qdir.is_dir():
            return []
        return sorted(qdir.glob("*.json"), key=lambda p: p.stat().st_mtime)

    def clear(self) -> int:
        """Delete every healthy cache entry; returns the number removed."""
        return self.store.clear()
