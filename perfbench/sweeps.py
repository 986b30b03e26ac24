"""The two sweep workloads: ``sweep-replay`` and ``sweep-newseed``.

Both set up by recording all experiments at scale 1.0 and the workload
seed into a fresh cache root, then run full 35-experiment passes for
the timed window, in this process and one at a time:

* ``sweep-replay`` re-runs the sweep at the workload seed.  Every step
  program is already in memory, so a pass is pure replay and pricing.
* ``sweep-newseed`` runs each pass at a seed never used before, with a
  fresh ``IRStore`` over the shared on-disk store and a cleared
  calibration memo: what a new ``repro run --seed s`` process sees on a
  host that has already run other seeds.

The result cache is never consulted (``Experiment.run`` is called
directly), so every experiment is computed.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import time
from pathlib import Path
from statistics import median as _median

import hostspeed
from common import (ROOT, derive_seed, environment_stamp, fresh_seeds,
                    ir_counts, ir_delta, peak_rss_mb_self, result_digest,
                    summarize)

SCALE = 1.0
#: a pass is the unit of ``pass_s``; three passes give the 105
#: experiment samples that ``exp_p90_ms`` needs (ten beyond p90).
MIN_PASSES = 3
#: (experiment, seed) pairs re-run on the vector engine after a
#: ``sweep-newseed`` window.
VECTOR_SAMPLE = 4
ALGORITHMS = ("apsp", "bitonic", "lu", "matmul", "radix", "samplesort",
              "stencil")


class HitTimer:
    """Times algorithm ``run()`` calls served from in-memory programs.

    A call counts as a hit when the IR store served it from memory
    without recording or loading anything.  Only outermost calls are
    timed; the probe costs two clock reads per algorithm run.
    """

    def __init__(self, ir):
        self.ir = ir
        self.active = False
        self.hit_s: list[float] = []
        self._depth = 0

    def install(self, rebind) -> None:
        for alg in ALGORITHMS:
            mod = importlib.import_module(f"repro.algorithms.{alg}")
            rebind(mod.run, self._wrap(mod.run))

    def _wrap(self, fn):
        def run(*a, **k):
            if not self.active or self._depth:
                return fn(*a, **k)
            store = self.ir.ir_store()
            before = (store.memory_hits, store.disk_hits, store.recorded)
            self._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                dt = time.perf_counter() - t0
                self._depth -= 1
                if (store.memory_hits > before[0]
                        and (store.disk_hits, store.recorded) == before[1:]):
                    self.hit_s.append(dt)

        return run


def _golden_check(get) -> dict:
    """Re-run every experiment snapshot in ``tests/golden/`` and compare.

    Snapshots pin an experiment at their own (scale, seed); the sweep
    runs at scale 1.0, so the check re-runs them at the pinned point.
    """
    checked, mismatched = [], []
    for path in sorted((ROOT / "tests" / "golden").glob("*.json")):
        doc = json.loads(path.read_text())
        if "result" not in doc:
            continue  # ablation / bounds reports, not experiments
        exp_id = doc["result"]["experiment"]
        fresh = get(exp_id).run(scale=doc["scale"], seed=doc["seed"])
        checked.append(exp_id)
        if result_digest(fresh.to_dict()) != result_digest(doc["result"]):
            mismatched.append(exp_id)
    return {"checked": checked, "mismatched": mismatched}


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> dict:
    t_setup = time.perf_counter()
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    from common import import_repro

    import_repro()
    from repro.calibration import table1
    from repro.experiments import all_experiments, get
    from repro.simulator import ir
    from repro.simulator.vector import engine_scope

    import tracer as tr

    exps = all_experiments()
    hits = HitTimer(ir)
    hits.install(tr._rebind)
    tracer = None
    if trace:
        tracer = tr.Tracer()
        tr.install(tracer)
    setup_raw = time.perf_counter() - t_setup  # imports
    speed: list[float] = []
    for e in exps.values():
        speed.append(hostspeed.probe())  # outside the timed region
        t0 = time.perf_counter()
        e.run(scale=SCALE, seed=seed)
        setup_raw += time.perf_counter() - t0
    setup_factor = hostspeed.factor(speed)

    newseed = workload == "sweep-newseed"
    seeds = fresh_seeds(seed, "newseed", {seed})
    reference: dict[str, str] = {}
    runs: list[tuple[str, int, str | None]] = []  # (exp, seed, digest)
    exp_s: list[float] = []      # reference seconds
    raw_exp_s: list[float] = []
    hit_s: list[float] = []      # reference seconds
    passes: list[dict] = []
    store_state = {"recorded": 0, "loaded_from_disk": 0,
                   "served_from_memory": 0}
    verdicts = {"passed": 0, "failed": 0}
    attempted = failed = changed = 0
    errors: list[str] = []
    cal_hits = cal_calls = 0
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        s = next(seeds) if newseed else seed
        if newseed:
            ir.set_ir_store(ir.IRStore())
            table1.clear_calibration_memo()
        traced = tracer is not None and len(passes) % 2 == 1
        store = ir.ir_store()
        before = ir_counts(store)
        cal0 = table1.calibration_memo_stats()
        wall = 0.0
        lat: list[float] = []
        speed = []
        first_hit = len(hits.hit_s)
        hits.active = True
        if traced:
            tracer.enabled = True
        for exp_id, e in exps.items():
            attempted += 1
            speed.append(hostspeed.probe())
            t0 = time.perf_counter()
            try:
                result = e.run(scale=SCALE, seed=s)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                wall += time.perf_counter() - t0
                failed += 1
                errors.append(f"{exp_id}@{s}: {exc!r}")
                runs.append((exp_id, s, None))
                continue
            dt = time.perf_counter() - t0
            wall += dt
            lat.append(dt)
            digest = result_digest(result.to_dict())
            runs.append((exp_id, s, digest))
            verdicts["passed" if result.passed else "failed"] += 1
            if not newseed and reference.setdefault(exp_id, digest) != digest:
                failed += 1
                changed += 1
                errors.append(f"{exp_id}: pass {len(passes)} differs "
                              "from pass 0")
        hits.active = False
        if tracer is not None:
            tracer.enabled = False
        f = hostspeed.factor(speed)
        exp_s += [x / f for x in lat]
        raw_exp_s += lat
        hit_s += [x / f for x in hits.hit_s[first_hit:]]
        if traced:
            cal1 = table1.calibration_memo_stats()
            cal_hits += cal1["hits"] - cal0["hits"]
            cal_calls += (cal1["hits"] + cal1["misses"]
                          - cal0["hits"] - cal0["misses"])
        delta = ir_delta(before, ir_counts(store))
        for k, v in delta.items():
            store_state[k] += v
        passes.append({"seed": s, "wall_s": wall, "host_factor": f,
                       "ref_s": wall / f, "traced": traced, "ir": delta})
    peak_rss = peak_rss_mb_self()

    verification: dict = {}
    correct = True
    if newseed:
        rng = random.Random(derive_seed(seed, "vector-sample"))
        done = [r for r in runs if r[2] is not None]
        rng.shuffle(done)
        by_exp: dict[str, tuple[int, str]] = {}
        for exp_id, s, digest in done:  # one random pass per experiment
            by_exp.setdefault(exp_id, (s, digest))
        sample = list(by_exp)[:VECTOR_SAMPLE]
        mism = []
        with engine_scope("vector"):
            for exp_id in sample:
                s, digest = by_exp[exp_id]
                table1.clear_calibration_memo()
                again = get(exp_id).run(scale=SCALE, seed=s)
                if result_digest(again.to_dict()) != digest:
                    mism.append(f"{exp_id}@{s}")
        verification["vector_rerun"] = {
            "pairs": [f"{e}@{by_exp[e][0]}" for e in sample],
            "mismatched": mism}
        failed += len(mism)
        correct = not mism
    else:
        golden = _golden_check(get)
        verification["golden"] = golden
        verification["passes_identical"] = not changed
        correct = bool(golden["checked"]) and not golden["mismatched"]
    correct = correct and failed == 0

    def stats(xs):
        return summarize([x * 1e3 for x in xs])

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    exp, hit = stats(exp_s), stats(hit_s)
    raw_exp, raw_hit = stats(raw_exp_s), stats(hits.hit_s)
    report = {
        "workload": workload,
        "stamp": {**environment_stamp(seed), "scale": SCALE,
                  "store_state": store_state},
        "setup": {"raw_s": setup_raw, "host_factor": setup_factor},
        "passes": passes,
        "samples_ms": {"experiments": exp, "hit_runs": hit},
        "raw_metrics": {
            "setup_s": setup_raw,
            "pass_s": _median([p["wall_s"] for p in untraced]),
            "exp_p50_ms": raw_exp["median"], "exp_p90_ms": raw_exp["p90"],
            "req_per_s": len(exp_s) / sum(p["wall_s"] for p in passes),
            "hit_p50_ms": raw_hit["median"], "hit_p90_ms": raw_hit["p90"]},
        "verdicts": verdicts,
        "verification": verification,
        "errors": errors[:20],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
    }
    # time metrics in reference seconds (see hostspeed.py)
    report["metrics"] = {
        "setup_s": (setup_raw / setup_factor, "s"),
        "pass_s": (_median([p["ref_s"] for p in untraced]), "s"),
        "exp_p50_ms": (exp["median"], "ms"),
        "exp_p90_ms": (exp["p90"], "ms"),
        "req_per_s": (len(exp_s) / sum(p["ref_s"] for p in passes), "1/s"),
        "hit_p50_ms": (hit["median"], "ms"),
        "hit_p90_ms": (hit["p90"], "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    if tracer is not None:
        dump = tracer.dump()
        tot, counts = tr.totals(dump)
        report["layers"] = tr.layer_metrics(
            tot, counts, passes=len(traced),
            traced_wall_s=sum(p["wall_s"] for p in traced),
            overhead_frac=_median([p["ref_s"] for p in traced])
            / _median([p["ref_s"] for p in untraced]) - 1.0,
            calibration=(cal_hits, cal_calls))
        report["layer_detail"] = {
            "machines.pricer_build_s by machine": tr.breakdown(
                dump, "machines.pricer_build", "machine",
                passes=len(traced)),
            "algorithms.self_s by algorithm": tr.breakdown(
                dump, "algorithms.run", "alg", passes=len(traced))}
        report["trace_dump"] = dump
        report["traced_pid"] = os.getpid()
    return report


def schedule(seed: int, passes: int = 3) -> dict:
    """The experiment seeds each workload's first ``passes`` passes use."""
    seeds = fresh_seeds(seed, "newseed", {seed})
    return {"sweep-replay": [seed] * passes,
            "sweep-newseed": [next(seeds) for _ in range(passes)]}
