#!/usr/bin/env python3
"""Run a single-process ``repro serve`` with the benchmark's hooks.

Usage::

    python3 perfbench/serve_launcher.py --cache-dir DIR --snap-dir DIR \
        [--trace]

Listens on an ephemeral port of 127.0.0.1 and prints the server's
banner (which names the port).  Each ``SIGUSR1`` writes a counter
snapshot — IR store, calibration memo, LRU and batch sizes — to
``snap-<k>.json`` in ``--snap-dir``.  With ``--trace`` the layer hooks
of :mod:`tracer` are installed before the server starts; snapshot 1
switches tracing on and snapshot 2 switches it off, and the recorded
spans go to ``spans.json`` when the server exits (``SIGTERM``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import import_repro, ir_counts  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--snap-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    import_repro()
    from repro.calibration.table1 import calibration_memo_stats
    from repro.service import server
    from repro.simulator.ir import ir_store

    apps = []
    orig_init = server.ServiceApp.__init__

    def init(self, *a, **k):
        orig_init(self, *a, **k)
        apps.append(self)

    server.ServiceApp.__init__ = init
    tracer = None
    if args.trace:
        import tracer as tr

        tracer = tr.Tracer()
        tr.install(tracer, service=True)

    snap_dir = Path(args.snap_dir)
    snaps = [0]

    def snapshot(signum, frame):
        k = snaps[0]
        snaps[0] += 1
        if tracer is not None and k in (1, 2):
            tracer.enabled = k == 1
        app = apps[0] if apps else None
        doc = {"ir": ir_counts(ir_store()),
               "calibration": calibration_memo_stats(),
               "pid": os.getpid()}
        if app is not None:
            lru = app.batcher.cache
            hist = app.metrics.batch_size
            doc["lru"] = {"hits": lru.hits, "misses": lru.misses}
            doc["batches"] = {"count": hist.count(),
                              "sum": hist.mean() * hist.count()}
        tmp = snap_dir / f".snap-{k}.json"
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, snap_dir / f"snap-{k}.json")

    signal.signal(signal.SIGUSR1, snapshot)
    config = server.ServiceConfig(host="127.0.0.1", port=0,
                                  cache_dir=args.cache_dir)
    rc = server.run_service(config)
    if tracer is not None:
        out = snap_dir / "spans.json"
        out.with_suffix(".tmp").write_text(json.dumps(tracer.dump()))
        os.replace(out.with_suffix(".tmp"), out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
