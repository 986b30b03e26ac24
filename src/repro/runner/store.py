"""One checksummed, content-addressed disk store.

:class:`ContentStore` sits under both on-disk stores of the package —
the result cache (:mod:`repro.runner.cache`) and the step-program store
(:mod:`repro.simulator.ir`) — and owns what they share:

* layout ``<root>/<key[:2]>/<key><suffix>``, written as a unique temp
  file plus ``os.replace``, so readers never see a torn entry, however
  many threads or processes write one key;
* the envelope ``<magic> <format> <sha256 of body>\\n<body>``, verified
  on every read by one hash over the body bytes;
* quarantine: an entry that fails verification or the caller's parse
  is moved aside and reported as a miss, and the next write heals it;
* accounting: :meth:`ContentStore.stats` counts the healthy entries
  (quarantined ones excluded), exactly what :meth:`ContentStore.clear`
  removes.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from contextlib import suppress
from pathlib import Path
from typing import Any, Callable

from ..core.errors import ExperimentError

__all__ = ["ContentStore", "seal", "unseal"]

_HEX = frozenset("0123456789abcdef")


def seal(magic: bytes, fmt: int, body: bytes) -> bytes:
    """Wrap ``body`` in the checksum envelope."""
    digest = hashlib.sha256(body).hexdigest().encode()
    return b"%s %d %s\n" % (magic, fmt, digest) + body


def unseal(magic: bytes, fmt: int, raw: bytes) -> bytes:
    """The body of a :func:`seal` envelope; ``ValueError`` on any damage
    (no header, foreign magic, other format, checksum mismatch)."""
    head, sep, body = raw.partition(b"\n")
    if not sep or head != b"%s %d %s" % (
            magic, fmt, hashlib.sha256(body).hexdigest().encode()):
        raise ValueError(f"damaged {magic.decode()} entry: {head[:80]!r}")
    return body


class ContentStore:
    """Entries of one envelope kind (``magic``/``fmt``) under ``root``."""

    def __init__(self, root: Path | str, *, suffix: str, magic: bytes,
                 fmt: int, quarantine: Path | str | None = None):
        self.root = Path(root)
        self.suffix = suffix
        self.magic = magic
        self.fmt = fmt
        self.quarantine_dir = (Path(quarantine) if quarantine is not None
                               else self.root / "quarantine")

    def path(self, key: str) -> Path:
        if len(key) < 8 or not _HEX.issuperset(key):
            raise ExperimentError(f"malformed cache key {key!r}")
        return self.root / key[:2] / f"{key}{self.suffix}"

    # ------------------------------------------------------------------
    def load(self, key: str, parse: Callable[[bytes], Any]) \
            -> tuple[bytes | None, Any]:
        """``(raw, parse(body))`` of the entry under ``key``.

        ``(None, None)`` when there is no readable entry.  An entry that
        fails verification or ``parse`` is quarantined and comes back as
        ``(raw, None)``.
        """
        path = self.path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None, None
        try:
            return raw, parse(unseal(self.magic, self.fmt, raw))
        except Exception:
            self.quarantine(key)
            return raw, None

    def write(self, key: str, blob: bytes) -> Path:
        """Store ``blob`` under ``key`` atomically; returns the path."""
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
        return path

    def quarantine(self, key: str) -> None:
        """Move the entry under ``key`` aside for post-mortems (best
        effort: an entry that cannot be moved is deleted instead)."""
        path = self.path(key)
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            with suppress(OSError):
                path.unlink()

    # ------------------------------------------------------------------
    def entries(self) -> list[Path]:
        """The healthy entry files, sorted (no temp or quarantined files)."""
        return sorted(self.root.glob(f"??/*{self.suffix}"))

    def stats(self) -> tuple[int, int]:
        """``(count, bytes)`` of the healthy entries."""
        count = size = 0
        for path in self.entries():
            with suppress(OSError):
                size += path.stat().st_size
                count += 1
        return count, size

    def clear(self) -> int:
        """Delete the healthy entries; returns how many were removed."""
        removed = 0
        for path in self.entries():
            with suppress(OSError):
                path.unlink()
                removed += 1
        for sub in self.root.glob("??"):
            with suppress(OSError):
                sub.rmdir()  # empty fan-out directories only
        return removed
