#!/usr/bin/env python
"""CI gate: both on-disk stores heal a flipped byte, byte-identically.

1. ``repro run fig5`` into a fresh cache directory, then hash every
   healthy file of the result cache (``results/``) and of the IR
   step-program store (``ir/``) and note the ``repro cache info --json``
   counts;
2. flip one byte in one result entry and one in one IR blob;
3. run again and require: exit 0, exactly one quarantined file in each
   store, every healthy file byte-identical to its pre-corruption hash,
   and unchanged ``cache info`` counts.

Run from the root of a checkout: ``python scripts/store_heal_check.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def repro(root: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "REPRO_CACHE_DIR": str(root),
           "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "repro", *args], env=env,
                          capture_output=True, text=True)


def healthy(root: Path) -> dict[str, str]:
    """sha256 of every healthy entry file, by path under ``root``."""
    files = [*root.glob("results/??/*.json"), *root.glob("ir/??/*.irp")]
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes())
            .hexdigest() for p in sorted(files)}


def counts(root: Path) -> tuple[int, int]:
    info = json.loads(repro(root, "cache", "info", "--json").stdout)
    return info["count"], info["ir"]["count"]


def flip(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))


def main() -> int:
    problems: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "cache"
        first = repro(root, "run", "fig5", "--scale", "0.3")
        if first.returncode != 0:
            print(first.stdout, first.stderr, sep="\n")
            return 1
        before, info = healthy(root), counts(root)
        flip(min(root.glob("results/??/*.json")))
        flip(min(root.glob("ir/??/*.irp")))

        second = repro(root, "run", "fig5", "--scale", "0.3")
        if second.returncode != 0:
            problems.append(f"second run exited {second.returncode}: "
                            f"{second.stderr.strip()}")
        for qdir in (root / "quarantine", root / "ir" / "quarantine"):
            n = len(list(qdir.glob("*"))) if qdir.is_dir() else 0
            if n != 1:
                problems.append(f"{qdir.relative_to(root)}: {n} "
                                "quarantined file(s), expected 1")
        after = healthy(root)
        if after != before:
            changed = sorted(set(before.items()) ^ set(after.items()))
            problems.append(f"healthy files differ after heal: {changed}")
        if counts(root) != info:
            problems.append(f"cache info counts {counts(root)} != {info}")
        print(f"{len(before)} healthy file(s) hashed "
              f"({info[0]} result(s), {info[1]} IR blob(s)); "
              f"one byte flipped in each store")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("store heal check:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
