"""Keyed evaluation with cache-aware scheduling on a warm process pool.

:func:`evaluate_keyed` is the one evaluator behind experiments
(:func:`run_experiments`), ablation cells
(:func:`repro.ablation.evaluate.evaluate_matrix`) and bound cells
(:func:`repro.bounds.api.bounds`).  The flow per job:

1. probe the on-disk cache under the job's content-addressed key
   (:mod:`repro.runner.fingerprint`) — hits are served in milliseconds;
2. dispatch the misses to ``jobs`` worker processes (or run them inline
   when ``jobs == 1``);
3. round-trip each fresh document through JSON and store it.

Determinism: every job draws all randomness from generators seeded by
its ``(seed, scale)`` arguments, so a result is a pure function of its
cache key — parallel and serial runs are bit-identical, and a
cache hit equals a recomputation.  Workers are separate processes, so
per-process memoisation (calibration fits) never leaks between runs.

Workers are *persistent*: one forked worker pool lives for the process
(:func:`warm_pool`), so the interpreter/NumPy import cost is paid once
per worker rather than once per batch.  Before the pool is built the
parent pre-fits the standard Table 1 calibrations (``calibration_for``
is memoised per process); forked workers inherit the warmed memo, so no
experiment pays the fit cost either (on platforms without ``fork`` a
per-worker initializer does the same warming).  A memo hit is
observationally identical to a recomputation — see
:mod:`repro.calibration.table1` — so pre-warming cannot change results.

Fault tolerance: the pool is instrumented with deterministic fault
points (:mod:`repro.faults`) at worker spawn (``spawn-crash``,
``spawn-slow``) and exec (``worker-crash``, ``worker-hang``).  A failed
or timed-out worker task is retried under a bounded
:class:`~repro.faults.RetryPolicy` (respawning the pool when it broke);
once the attempts are exhausted the job falls back to in-process
execution.  Because results are pure functions of their arguments,
every recovery path is bit-identical to the fault-free run.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, NamedTuple

from ..core.errors import ExperimentError, FaultInjected
from ..faults import (
    Clock,
    FaultPlan,
    RetryExhausted,
    RetryPolicy,
    SYSTEM_CLOCK,
    active,
    fault_point,
    faults_active,
    install,
    retry_call,
)
from ..validation.series import ExperimentResult
from .cache import ResultCache
from .fingerprint import experiment_key, source_fingerprint

__all__ = ["Job", "RunOutcome", "collect_resilient",
           "evaluate_keyed", "resolve_ids", "run_experiments", "warm_pool",
           "shutdown_pool"]

#: machine configurations the worker initializer pre-fits: the three
#: paper machines at their default partitions (what ``calibrated`` asks
#: for in every figure).
_WARM_CONFIGS = (("maspar", 1024), ("gcel", 64), ("cm5", 64))

#: failures worth a respawn/retry — injected faults, a broken pool and
#: per-task deadline overruns.  Real experiment errors (bad parameters)
#: are deterministic and propagate immediately.
_RETRYABLE = (FaultInjected, BrokenProcessPool, FutureTimeout)

_pool: ProcessPoolExecutor | None = None
_pool_workers: int | None = None
_pool_plan: str | None = None
_pool_engine: str | None = None

# one process-wide atexit guard, registered at import: however the pool
# is (re)built later, interpreter exit always reaps it.
atexit.register(lambda: shutdown_pool())


def _fit_calibrations(seed: int) -> None:
    """Pre-fit the standard calibrations into the process-wide memo.

    The fits land with the exact keys ``calibrated`` uses
    (``machine_seed = seed + 1000``), so experiment code hits the memo
    instead of re-fitting.
    """
    from ..calibration.table1 import calibration_for

    for name, P in _WARM_CONFIGS:
        calibration_for(name, P=P, machine_seed=seed + 1000, seed=seed)


def _child_init(plan_text: str | None, seed: int, warm: bool) -> None:
    """Worker initializer: faults in, spawn fault points, optional warm.

    Runs once per worker process.  The fault plan is re-installed from
    its text so every worker replays a fresh per-point schedule; the
    ``spawn-*`` points then simulate crash/slow-start during pool
    bring-up (a crash marks the executor broken — the parent recovers
    by falling back to in-process execution).
    """
    if plan_text:
        install(FaultPlan.parse(plan_text))
    fault_point("spawn-slow")
    fault_point("spawn-crash")
    if warm:
        _fit_calibrations(seed)


def _plan_signature() -> str | None:
    """The active fault plan's canonical text (pool identity component)."""
    injector = active()
    return injector.plan.render() if injector is not None else None


def warm_pool(jobs: int, *, seed: int = 0) -> ProcessPoolExecutor:
    """The persistent worker pool, (re)built when ``jobs`` or the active
    fault plan changes.

    Forked workers survive across :func:`run_experiments` calls; the
    parent's memo is warmed first so they inherit the fits.  A later
    call with a different ``seed`` reuses the running pool — workers
    then fit that seed's calibrations once each on demand (still
    memoised per worker process).
    """
    global _pool, _pool_workers, _pool_plan, _pool_engine
    plan_text = _plan_signature()
    # forked workers resolve engine="auto" through the $REPRO_ENGINE they
    # inherited, so a changed engine needs a fresh pool
    engine = os.environ.get("REPRO_ENGINE")
    if _pool is not None and _pool_workers == jobs \
            and _pool_plan == plan_text and _pool_engine == engine:
        return _pool
    shutdown_pool()
    try:
        ctx = multiprocessing.get_context("fork")
        _fit_calibrations(seed)  # children fork off the warmed memo
        initargs = (plan_text, seed, False)
    except ValueError:  # no fork (e.g. Windows): warm each worker instead
        ctx = multiprocessing.get_context()
        initargs = (plan_text, seed, True)
    _pool = ProcessPoolExecutor(max_workers=jobs, mp_context=ctx,
                                initializer=_child_init, initargs=initargs)
    _pool_workers = jobs
    _pool_plan = plan_text
    _pool_engine = engine
    return _pool


def shutdown_pool() -> None:
    """Stop the persistent pool (no-op when none is running)."""
    global _pool, _pool_workers, _pool_plan, _pool_engine
    if _pool is not None:
        _pool.shutdown(wait=True, cancel_futures=True)
        _pool = None
        _pool_workers = None
        _pool_plan = None
        _pool_engine = None


@dataclass
class RunOutcome:
    """One evaluated job's result plus how it was obtained (the document
    from :func:`evaluate_keyed`, an :class:`ExperimentResult` from
    :func:`run_experiments`)."""

    id: str
    result: Any
    cached: bool
    elapsed_s: float


def resolve_ids(ids: list[str]) -> list[str]:
    """Expand ``all``, validate every id, drop duplicates (order kept).

    Raises :class:`ExperimentError` naming the valid ids on an unknown id.
    """
    from ..experiments import all_experiments

    known = all_experiments()
    if ids == ["all"]:
        return list(known)
    out: list[str] = []
    for exp_id in ids:
        if exp_id not in known:
            valid = ", ".join(known)
            raise ExperimentError(
                f"unknown experiment {exp_id!r}; valid ids: {valid}")
        if exp_id not in out:
            out.append(exp_id)
    return out


class Job(NamedTuple):
    """One keyed evaluation for :func:`evaluate_keyed`.

    ``run()`` must be a pure function of ``key`` returning a JSON
    document, and picklable — a module-level function or a
    :func:`functools.partial` of one — since it may run in a pool
    worker.  ``meta`` is stored beside the cached document; its
    ``"experiment"`` entry names the job in the cache statistics and in
    ``repro cache info``.
    """

    key: str
    meta: dict
    run: Callable[[], Any]


def _timed(run: Callable[[], Any]) -> tuple[Any, float]:
    t0 = time.perf_counter()
    doc = run()
    return doc, time.perf_counter() - t0


def _pool_task(run: Callable[[], Any]) -> tuple[Any, float]:
    """Every job's pool-side shim: the worker fault points, then the job,
    timed in the worker (compute cost, not queue wait)."""
    fault_point("worker-hang")
    fault_point("worker-crash")
    return _timed(run)


def collect_resilient(run: Callable[[], Any], first_fut, *, jobs: int,
                      seed: int, policy: RetryPolicy, clock: Clock,
                      timeout_s: float | None) -> tuple[Any, float]:
    """Await one pool task, retrying transient failures under ``policy``.

    Attempt 0 consumes the already-submitted future; later attempts
    resubmit :func:`_pool_task` (rebuilding the pool first when it
    broke).  A timed-out task is cancelled and retried elsewhere.  Once
    the bounded attempts are spent, ``run`` executes in-process — the
    same pure function, so a bit-identical result.
    """
    state = {"fut": first_fut}

    def attempt(i: int):
        if i > 0:
            state["fut"] = warm_pool(jobs, seed=seed).submit(_pool_task, run)
        fut = state["fut"]
        try:
            return fut.result(timeout=timeout_s)
        except FutureTimeout:
            fut.cancel()
            raise
        except BrokenProcessPool:
            shutdown_pool()  # the next attempt (or caller) rebuilds
            raise

    try:
        return retry_call(attempt, policy=policy, clock=clock,
                          retry_on=_RETRYABLE)
    except RetryExhausted:
        return _timed(run)


def evaluate_keyed(work: dict[str, Job], *, jobs: int = 1,
                   cache: ResultCache | None = None, force: bool = False,
                   seed: int = 0, retry: RetryPolicy | None = None,
                   exec_timeout_s: float | None = None,
                   clock: Clock | None = None) -> dict[str, RunOutcome]:
    """Evaluate every job of ``work``; returns ``name -> RunOutcome``.

    Each job's cache key is probed first (``cache=None`` disables the
    cache; ``force=True`` skips the probe and refreshes the entry).  The
    misses run inline when ``jobs == 1`` or there is only one, else on
    the warm pool, each under :func:`collect_resilient` with ``retry``
    (default: three attempts from 50 ms backoff), an ``exec_timeout_s``
    deadline per attempt and the in-process fallback.  Every fresh
    document is round-tripped through JSON before it is stored and
    returned, so fresh output is byte-identical to a later cache hit.
    """
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    out: dict[str, RunOutcome] = {}
    misses: list[str] = []
    for name, job in work.items():
        if cache is not None and not force:
            t0 = time.perf_counter()
            doc = cache.get_doc(job.key, job.meta["experiment"])
            if doc is not None:
                out[name] = RunOutcome(name, doc, True,
                                       time.perf_counter() - t0)
                continue
        misses.append(name)

    if jobs == 1 or len(misses) <= 1:
        fresh = {name: _timed(work[name].run) for name in misses}
    else:
        policy = retry or RetryPolicy(max_attempts=3, base_delay_s=0.05,
                                      max_delay_s=1.0, seed=seed)
        ex = warm_pool(jobs, seed=seed)
        futures = {name: ex.submit(_pool_task, work[name].run)
                   for name in misses}
        try:
            fresh = {name: collect_resilient(
                work[name].run, fut, jobs=jobs, seed=seed, policy=policy,
                clock=clock or SYSTEM_CLOCK, timeout_s=exec_timeout_s)
                for name, fut in futures.items()}
        except BaseException:
            # never leak a busy pool past an unexpected failure: cancel
            # what has not started, reap the workers, and let the error
            # propagate (regression-tested)
            for pending in futures.values():
                pending.cancel()
            shutdown_pool()
            raise

    for name, (doc, elapsed) in fresh.items():
        job = work[name]
        doc = json.loads(json.dumps(doc))
        if cache is not None:
            if force:
                cache.stats.record(job.meta["experiment"], hit=False)
            cache.put_doc(job.key, doc, meta=job.meta)
        out[name] = RunOutcome(name, doc, False, elapsed)
    return out


def _worker(exp_id: str, scale: float, seed: int) -> dict:
    """Run one experiment: the job function of :func:`run_experiments`."""
    from ..experiments import get

    return get(exp_id).run(scale=scale, seed=seed).to_dict()


def run_experiments(ids: list[str], *, scale: float = 1.0, seed: int = 0,
                    jobs: int = 1, cache: ResultCache | None = None,
                    force: bool = False,
                    faults: FaultPlan | str | None = None,
                    retry: RetryPolicy | None = None,
                    exec_timeout_s: float | None = None,
                    clock: Clock | None = None,
                    engine: str | None = None) -> list[RunOutcome]:
    """Run a batch of experiments, using ``cache`` and ``jobs`` workers.

    ``cache=None`` disables caching entirely; ``force=True`` recomputes
    even on a hit (and refreshes the stored entry).  Outcomes come back
    in the order of ``ids``.

    ``faults`` installs a :class:`~repro.faults.FaultPlan` for the
    duration of the batch (also active inside pool workers);
    ``retry``/``exec_timeout_s``/``clock`` tune the recovery path of
    :func:`evaluate_keyed`.

    ``engine`` pins the simulation engine for the batch (``None`` /
    ``"auto"`` keep the ambient default).  Engines are observationally
    identical, so the cache key does not include it; an unknown name
    raises :class:`ExperimentError` before anything runs.
    """
    from ..experiments import all_experiments
    from ..simulator.vector import ENGINES, engine_scope

    if engine is not None and engine not in ENGINES:
        raise ExperimentError(
            f"unknown engine {engine!r}; expected one of {ENGINES}")
    ids = resolve_ids(ids)
    registry = all_experiments()

    with faults_active(faults), engine_scope(engine):
        fingerprint = source_fingerprint()
        work = {exp_id: Job(
            key=experiment_key(exp_id, scale=scale, seed=seed,
                               fingerprint=fingerprint,
                               inputs=registry[exp_id].cache_inputs()),
            meta={"experiment": exp_id, "scale": scale, "seed": seed,
                  "code": fingerprint},
            run=partial(_worker, exp_id, scale, seed)) for exp_id in ids}
        done = evaluate_keyed(work, jobs=jobs, cache=cache, force=force,
                              seed=seed, retry=retry,
                              exec_timeout_s=exec_timeout_s, clock=clock)
    return [replace(done[exp_id],
                    result=ExperimentResult.from_dict(done[exp_id].result))
            for exp_id in ids]
