#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-replay --seed 1 \
        --seconds 20 --trace 0

Workloads: ``sweep-replay``, ``sweep-newseed``, ``serve-mixed`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes a separate traced run that reports the
per-layer metrics and writes a Chrome trace (open it in Perfetto) plus
the full report under ``.perfbench_out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the full report (environment and store-state stamp, sample counts,
paper-check verdicts and verification details).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (MAX_CONCURRENCY, ROOT, BenchError,  # noqa: E402
                    WorkDir, cpu_count, import_repro)

WORKLOADS = ("sweep-replay", "sweep-newseed", "serve-mixed")
#: where a traced run leaves its report and Chrome trace
OUT_DIR = ".perfbench_out"


def self_check(seed: int) -> dict:
    """Load-generator determinism and concurrency checks.

    The same workload seed must give the same experiment-seed and
    request-body schedule, a different seed a different one, and the
    generator must fit in one connection/thread per CPU.
    """
    import serve
    import sweeps

    def sched(s):
        return {**sweeps.schedule(s), "serve-mixed": serve.schedule(s)}

    same = sched(seed) == sched(seed)
    other = sched(seed + 1)
    differs = all(sched(seed)[w] != other[w] for w in WORKLOADS)
    fits = MAX_CONCURRENCY <= cpu_count()
    return {"same_seed_same_schedule": same,
            "new_seed_new_schedule": differs,
            "concurrency": MAX_CONCURRENCY, "cpus": cpu_count(),
            "ok": same and differs and fits}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be > 0 and --seed >= 0")
    try:
        import_repro()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    check = self_check(args.seed)
    if args.workload == "serve-mixed":
        import serve as workload
    else:
        import sweeps as workload
    with WorkDir(args.workload) as work:
        report = workload.run(args.workload, args.seed, args.seconds,
                              bool(args.trace), work)
    report["self_check"] = check
    correct = bool(report["correct"] and check["ok"])
    metrics = report["layers"] if args.trace else report["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    if sorted((m["name"], m["unit"]) for m in declared) != sorted(
            (name, unit) for name, (_, unit) in metrics.items()):
        print("perfbench: metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 3

    dump = report.pop("trace_dump", None)
    if args.trace:
        import tracer

        out = ROOT / OUT_DIR
        out.mkdir(parents=True, exist_ok=True)
        stem = out / f"{args.workload}"
        report["chrome_trace"] = {
            "path": str(stem.with_suffix(".trace.json").relative_to(ROOT)),
            "events": tracer.chrome_trace(
                dump, stem.with_suffix(".trace.json"),
                pid=report.pop("traced_pid", 0), process=args.workload)}
        stem.with_suffix(".report.json").write_text(
            json.dumps(report, indent=1) + "\n")

    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    t0 = time.perf_counter()
    rc = main()
    print(f"perfbench: finished in {time.perf_counter() - t0:.1f}s",
          file=sys.stderr)
    sys.exit(rc)
