"""A host-speed probe, so that timings can be compared across host states.

On a shared 2-CPU VM the same sweep pass takes anywhere from 1.4 s to
3.2 s, and the host stays fast or slow for tens of seconds at a time,
longer than a benchmark run.  Every run therefore also times this probe,
a fixed piece of work that imports nothing from ``repro``: interpreter
work (object allocation, dict and list operations), small numpy
operations (sort, bincount, cumsum) and memory-bound numpy over a
preallocated 1.6 MB buffer.  A change to the program moves the
workload's time and not the probe's; a change of host speed moves both.

The time metrics of a run are reported in *reference seconds*: raw
seconds times ``REFERENCE_S`` over the mean probe time measured
interleaved with the timed work.  Over six runs of each of
``sweep-replay`` and ``serve-mixed`` on that VM, this cut the spread
(interquartile range over median) of the time metrics from 0.09-0.27
raw to 0.02-0.09.  Raw values stay in the report.
"""

from __future__ import annotations

import time

import numpy as np

#: mean probe time, in seconds, that defines one reference second
#: (about the probe's time on a quiet 2-CPU VM; any constant works, it
#: only sets the scale).
REFERENCE_S = 0.0025

_rng = np.random.default_rng(20240501)
_SMALL = _rng.random(256)
_IDX = _rng.integers(0, 256, 512)
_LARGE = _rng.random(200_000)
_BUF = np.empty_like(_LARGE)


class _Obj:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def probe() -> float:
    """Run the fixed work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(1500):
        o = _Obj(i, i * 2)
        table[i & 127] = o
        hit = table.get((i * 7) & 127)
        acc += hit.b if hit is not None else 0
        acc += len([o.a, o.b, acc])
    for _ in range(60):
        z = _SMALL.cumsum()
        np.maximum(np.sort(_SMALL), z[::-1])
        np.bincount(_IDX, minlength=256)
    for _ in range(3):  # into a preallocated buffer: no allocator state
        np.multiply(_LARGE, 1.0001, out=_BUF)
        np.add(_BUF, _LARGE, out=_BUF)
        float(_BUF.sum())
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Host slowdown: mean probe time over ``REFERENCE_S`` (1 = reference)."""
    if not samples:
        raise ValueError("no probe samples")
    return sum(samples) / len(samples) / REFERENCE_S
