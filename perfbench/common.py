"""Shared pieces of the benchmark: paths, seeds, statistics and stamps.

Everything here is stdlib; ``repro`` itself is imported from the
checkout's ``src/`` directory only (see :func:`import_repro`), so the
benchmark always measures the tree it sits in.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: connections/threads the load generator may use: one per CPU, and the
#: workloads are written for exactly two (hot + miss, or one sweep).
MAX_CONCURRENCY = 2


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def import_repro():
    """Put the checkout's ``src/`` first on ``sys.path`` and import repro.

    Refuses to fall back to any other installed copy: a benchmark run
    outside a full checkout must fail, not measure something else.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, "
                         f"expected {SRC / 'repro'}")
    return repro


def cpu_count() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def derive_seed(seed: int, *parts) -> int:
    """A 31-bit seed determined by ``seed`` and ``parts`` (stable)."""
    text = json.dumps([seed, *parts], separators=(",", ":"))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4],
                          "big") & 0x7FFFFFFF


def fresh_seeds(seed: int, tag: str, used: set[int]):
    """Endless stream of seeds derived from ``seed``, none in ``used``.

    Every yielded seed is added to ``used``, so streams sharing one set
    never repeat a seed — "a seed never used before" is by construction.
    """
    k = 0
    while True:
        s = derive_seed(seed, tag, k)
        k += 1
        if s not in used:
            used.add(s)
            yield s


def summarize(values: list[float]) -> dict:
    """Median and 90th percentile (linear interpolation), with the count.

    ``tail_ok`` records whether at least ten samples lie beyond the 90th
    percentile — the rule the reported percentiles follow.
    """
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return {"n": len(values), "median": deciles[4], "p90": deciles[8],
            "tail_ok": len(values) * 0.1 >= 10}


def peak_rss_mb_self() -> float:
    import resource

    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def environment_stamp(seed: int) -> dict:
    import numpy

    return {"host": platform.node(), "cpus": cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "workload_seed": seed}


def ir_counts(store) -> dict:
    return {"recorded": store.recorded, "loaded_from_disk": store.disk_hits,
            "served_from_memory": store.memory_hits}


def ir_delta(before: dict, after: dict) -> dict:
    """IR-store activity between two :func:`ir_counts` snapshots."""
    return {k: after[k] - before[k] for k in before}


class WorkDir:
    """A private scratch directory inside the checkout, removed on exit."""

    def __init__(self, workload: str):
        base = ROOT / ".perfbench_work"
        self.path = base / f"{workload}-{os.getpid()}-{time.time_ns()}"
        self.path.mkdir(parents=True)

    def __enter__(self) -> Path:
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only if no sibling run is using it
        except OSError:
            pass


def result_digest(doc) -> str:
    """SHA-256 of a JSON document's canonical bytes."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
