"""Chaos test for the bounds scoreboard's pool path.

Bound cells run as jobs of the shared keyed evaluator, so a pool worker
measuring one passes the same ``worker-*`` fault points as an experiment
or ablation worker.  Under a certain ``worker-crash`` every pool attempt
dies, so each cell is measured by the in-process fallback — and the
report stays byte-identical to the fault-free one.
"""

import json

import pytest

from repro.bounds import api
from repro.bounds.api import BoundsRequest, bounds
from repro.bounds.measure import measure_cell
from repro.faults import faults_active

pytestmark = [pytest.mark.chaos, pytest.mark.slow]

CELLS = ("apsp/gcel", "lu/gcel")

#: cells measured in *this* process (pool workers count in their own copy)
_in_process: list[str] = []


def _counting_measure(cell, *, scale, seed):
    _in_process.append(cell.name)
    return measure_cell(cell, scale=scale, seed=seed)


def report_bytes(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True).encode()


def test_worker_crash_fires_on_the_bounds_pool_path(monkeypatch):
    req = dict(cells=CELLS, scale=0.3, use_cache=False)
    baseline = report_bytes(bounds(BoundsRequest(**req)))
    monkeypatch.setattr(api, "measure_cell", _counting_measure)
    _in_process.clear()
    with faults_active("worker-crash"):
        report = bounds(BoundsRequest(**req, jobs=2))
    # the crash point fired on every pool attempt of every cell, so the
    # fallback measured each cell here, once
    assert sorted(_in_process) == sorted(CELLS)
    assert report_bytes(report) == baseline
