"""Evaluator: run an ablation matrix, incrementally and in parallel.

Each distinct cell run is one :class:`~repro.runner.pool.Job` of the
shared keyed evaluator (:func:`repro.runner.pool.evaluate_keyed`), keyed
by its run ID.  A cell run is a pure function of its run ID — all
randomness is seeded — so cache hits, pool workers, in-process
fallbacks and serial execution are all bit-identical.
"""

from __future__ import annotations

from functools import partial

from ..faults import Clock, FaultPlan, RetryPolicy, faults_active
from ..runner.cache import ResultCache
from ..runner.fingerprint import source_fingerprint
from ..runner.pool import Job, evaluate_keyed
from ..validation.scoreboard import run_cell
from .runs import CellRun

__all__ = ["evaluate_matrix"]


def _cell_doc(cell: str, disable: tuple[str, ...], scale: float,
              seed: int) -> dict:
    """Run one ablated scoreboard cell; JSON-safe document."""
    cells = run_cell(cell, scale=scale, seed=seed, disable=disable)
    return {"cell": cell, "disable": list(disable),
            "models": [c.to_dict() for c in cells]}


def evaluate_matrix(runs: list[CellRun], *, scale: float, seed: int,
                    jobs: int = 1, cache: ResultCache | None = None,
                    force: bool = False,
                    faults: FaultPlan | str | None = None,
                    retry: RetryPolicy | None = None,
                    exec_timeout_s: float | None = None,
                    clock: Clock | None = None) -> dict[str, dict]:
    """Evaluate every cell run; returns ``run_id -> cell document``.

    ``cache=None`` disables caching; ``force=True`` recomputes even on
    a hit (refreshing the entry).  ``faults``/``retry``/
    ``exec_timeout_s``/``clock`` tune the fault-injection and recovery
    machinery of :func:`~repro.runner.pool.evaluate_keyed`.
    """
    fingerprint = source_fingerprint()
    # baseline runs are shared across components: one job per run ID
    work = {cr.run_id: Job(
        key=cr.run_id,
        meta={"experiment": f"ablate:{cr.cell}", "disable": list(cr.disable),
              "scale": scale, "seed": seed, "code": fingerprint},
        run=partial(_cell_doc, cr.cell, cr.disable, scale, seed))
        for cr in runs}
    with faults_active(faults):
        done = evaluate_keyed(work, jobs=jobs, cache=cache, force=force,
                              seed=seed, retry=retry,
                              exec_timeout_s=exec_timeout_s, clock=clock)
    return {run_id: out.result for run_id, out in done.items()}
