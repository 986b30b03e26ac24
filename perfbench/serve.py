"""The ``serve-mixed`` workload: one ``repro serve`` process, two clients.

Setup starts ``serve_launcher.py`` on a fresh cache root, waits for
``/healthz``, requests every body of the hot pool once (which puts it
in the server's LRU or result cache) and runs one warm-up rotation of
the miss list, so that lazily imported modules are loaded before the
timed window.  It does this three times, each with a new server and
cache root, and ``setup_s`` is the median; the last server is the one
measured.  The window then drives two keep-alive connections
closed-loop, one thread each:

* the *hot* connection cycles the hot pool — ``/predict``, ``/compare``
  and ``/experiments/{id}`` bodies whose answers are already cached;
* the *miss* connection cycles whole rotations of the miss list —
  ``/predict``, ``/compare``, one small ``/bounds`` and one small
  ``/ablate`` body — each with a seed never used before, so each misses
  the LRU and the result cache.

Each class keeps to one latency mode, so its percentiles never straddle
the hit/miss boundary; contention between the classes is part of what
is measured.  The miss list has 15 bodies: with 15 equally frequent
bodies the median and the 90th percentile fall in the middle of one
body's samples (ranks 7.5 and 13.5 of 15), not between two bodies.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import hostspeed
from common import (BENCH_DIR, MAX_CONCURRENCY, BenchError, derive_seed,
                    environment_stamp, fresh_seeds, ir_delta,
                    peak_rss_mb_pid, result_digest, summarize)

#: (machine, model, algorithm) of the hot /predict bodies.
HOT_PREDICT = [("gcel", "bsp", "matmul"), ("cm5", "loggp", "bitonic"),
               ("t800", "mp-bsp", "radix"), ("modern", "bsp", "samplesort"),
               ("gcel", "mp-bpram", "apsp"), ("cm5", "pram", "stencil")]
#: (machine, algorithm) of the hot /compare bodies.
HOT_COMPARE = [("gcel", "bitonic-blk"), ("cm5", "matmul")]
#: experiments of the hot /experiments/{id} requests (scale 1.0).
HOT_EXPERIMENTS = ["fig14", "abl-sync"]

#: the miss rotation: 15 bodies whose fresh-seed evaluations all take
#: tens of milliseconds on a 2-CPU host (no MasPar body: its 0.3-0.9 s
#: evaluations would form a second mode).
MISS_LIST = (
    [("predict", {"machine": m, "model": mo, "algorithm": a})
     for m, mo, a in [("gcel", "bsp", "matmul"), ("cm5", "loggp", "radix"),
                      ("t800", "bsp", "bitonic"), ("gcel", "mp-bsp", "apsp"),
                      ("cm5", "bsp", "samplesort"),
                      ("t800", "mp-bpram", "stencil"),
                      ("modern", "bsp", "matmul"),
                      ("gcel", "pram", "bitonic-blk"),
                      ("cm5", "loggp", "matmul-naive")]]
    + [("compare", {"machine": m, "algorithm": a})
       for m, a in [("cm5", "matmul"), ("gcel", "radix"),
                    ("t800", "matmul"), ("cm5", "bitonic")]]
    + [("bounds", {"cells": ["radix/gcel"], "scale": 0.2}),
       ("ablate", {"components": ["endpoint-contention"],
                   "cells": ["matmul"], "scale": 0.2})])
#: miss bodies re-computed offline and compared byte for byte.
MISS_VERIFY = 15
#: servers set up per run; ``setup_s`` is the median of their set-ups.
SETUPS = 3



def _hot_pool(seed: int) -> list[tuple[str, str, bytes | None]]:
    pool = []
    for k, (m, mo, a) in enumerate(HOT_PREDICT):
        pool.append(("POST", "/predict", _body(
            {"machine": m, "model": mo, "algorithm": a,
             "seed": derive_seed(seed, "hot", k)})))
    for k, (m, a) in enumerate(HOT_COMPARE):
        pool.append(("POST", "/compare", _body(
            {"machine": m, "algorithm": a,
             "seed": derive_seed(seed, "hot-compare", k)})))
    for k, exp_id in enumerate(HOT_EXPERIMENTS):
        s = derive_seed(seed, "hot-exp", k)
        pool.append(("GET", f"/experiments/{exp_id}?scale=1.0&seed={s}",
                     None))
    return pool


def _body(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


class _MissSchedule:
    """Whole rotations of :data:`MISS_LIST`, each body with a fresh seed."""

    def __init__(self, seed: int, used: set[int]):
        self._seeds = fresh_seeds(seed, "miss", used)

    def rotation(self) -> list[tuple[str, str, bytes]]:
        return [("POST", f"/{kind}", _body({**doc, "seed": next(self._seeds)}))
                for kind, doc in MISS_LIST]


def schedule(seed: int, rotations: int = 2) -> dict:
    """The hot pool and the first miss rotations a workload seed yields."""
    used = _hot_seeds(seed)
    miss = _MissSchedule(seed, used)
    return {"hot": _hot_pool(seed),
            "miss": [miss.rotation() for _ in range(rotations)]}


def _hot_seeds(seed: int) -> set[int]:
    """Seeds the hot pool uses, which the miss schedule must avoid."""
    return {json.loads(b)["seed"] if b else int(p.rsplit("=", 1)[1])
            for _, p, b in _hot_pool(seed)}


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class _Gauge:
    """Counts open connections; the generator may hold two at most."""

    def __init__(self):
        self.open = self.peak = 0
        self._lock = threading.Lock()

    def inc(self):
        with self._lock:
            self.open += 1
            self.peak = max(self.peak, self.open)
            if self.open > MAX_CONCURRENCY:
                raise BenchError("load generator exceeded its connections")

    def dec(self):
        with self._lock:
            self.open -= 1


class _Conn:
    def __init__(self, port: int, gauge: _Gauge):
        self.gauge = gauge
        gauge.inc()
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body: bytes | None):
        headers = {"Content-Type": "application/json"} if body else {}
        self.http.request(method, path, body=body, headers=headers)
        resp = self.http.getresponse()
        return resp.status, resp.read()

    def close(self):
        self.http.close()
        self.gauge.dec()


class _Server:
    """The launcher subprocess, its port, snapshots and shutdown."""

    def __init__(self, work: Path, trace: bool):
        self.dir = work
        self.log = open(work / "server.log", "wb")
        cmd = [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
               "--cache-dir", str(work / "cache"), "--snap-dir", str(work)]
        if trace:
            cmd.append("--trace")
        env = {**os.environ, "REPRO_CACHE_DIR": str(work / "cache")}
        self.proc = subprocess.Popen(cmd, stdout=self.log,
                                     stderr=subprocess.STDOUT, env=env)
        self.snaps = 0
        self.port = self._wait_port()

    def _wait_port(self, timeout: float = 120.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited: {self.tail()}")
            for line in (self.dir / "server.log").read_text(
                    errors="replace").splitlines():
                if "listening on http://" in line:
                    return int(line.split("http://", 1)[1].split()[0]
                               .rsplit(":", 1)[1])
            time.sleep(0.02)
        raise BenchError("server never printed its banner")

    def tail(self) -> str:
        return (self.dir / "server.log").read_text(errors="replace")[-2000:]

    def wait_healthy(self, gauge: _Gauge, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            conn = _Conn(self.port, gauge)
            try:
                if conn.call("GET", "/healthz", None)[0] == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.02)
        raise BenchError("server never became healthy")

    def snapshot(self) -> dict:
        """Ask the server for a counter snapshot (``SIGUSR1``) and read it."""
        k = self.snaps
        self.snaps += 1
        path = self.dir / f"snap-{k}.json"
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30.0
        while not path.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise BenchError(f"no snapshot {k}: {self.tail()}")
            time.sleep(0.001)
        return json.loads(path.read_text())

    def stop(self) -> None:
        """``SIGTERM`` (graceful drain), then ``SIGKILL`` if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class _Loop:
    """One closed-loop client thread over one keep-alive connection."""

    def __init__(self, conn: _Conn, bodies, stop: threading.Event, *,
                 probe: bool = False):
        self.conn = conn
        self.bodies = bodies  # iterator of (method, path, body, tag)
        self.stop = stop
        self.samples: list[tuple] = []  # (t_send, t_recv, status, tag, resp)
        #: host-speed probe times, one before each request when ``probe``
        self.speed: list[float] | None = [] if probe else None
        self.error: BaseException | None = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        try:
            for method, path, body, tag in self.bodies:
                if self.stop.is_set():
                    return
                if self.speed is not None:
                    self.speed.append(hostspeed.probe())
                t0 = time.perf_counter()
                try:
                    status, data = self.conn.call(method, path, body)
                except (OSError, http.client.HTTPException) as exc:
                    status, data = -1, repr(exc).encode()
                self.samples.append((t0, time.perf_counter(), status, tag,
                                     data))
        except BaseException as exc:  # noqa: BLE001 - re-raised by caller
            self.error = exc


def _hot_bodies(pool):
    while True:
        for i, (m, p, b) in enumerate(pool):
            yield m, p, b, ("hot", i)


def _miss_bodies(sched: _MissSchedule, rotations: list):
    r = 0
    while True:
        rot = sched.rotation()
        rotations.append(rot)
        for i, (m, p, b) in enumerate(rot):
            yield m, p, b, ("miss", r, i)
        r += 1


def _drive(server, hot, miss, pool, sched, seconds, trace):
    """The timed window: client loops, rotations, snapshots, window times
    and the host-speed probes taken during it."""
    stop = threading.Event()
    rotations: list = []
    snaps = [server.snapshot()]
    t_start = time.perf_counter()
    # the miss connection probes host speed before each request: then
    # only the hot connection's requests are in flight beside the probe
    loops = [_Loop(hot, _hot_bodies(pool), stop),
             _Loop(miss, _miss_bodies(sched, rotations), stop, probe=True)]
    for loop in loops:
        loop.thread.start()
    t_on = None
    if trace:
        time.sleep(seconds / 2)
        snaps.append(server.snapshot())
        t_on = time.perf_counter()
        time.sleep(max(0.0, t_start + seconds - time.perf_counter()))
    else:
        time.sleep(seconds)
    stop.set()
    for loop in loops:
        loop.thread.join(timeout=150)
        if loop.thread.is_alive():
            raise BenchError("client thread did not finish")
        if loop.error is not None:
            raise loop.error
    t_end = time.perf_counter()
    snaps.append(server.snapshot())
    return loops, rotations, snaps, t_start, t_on, t_end, loops[1].speed


def _setup(work: Path, trace: bool, gauge: _Gauge, pool, warmup):
    """Start a server and warm it: spawn, healthy, hot fill, one rotation.

    Returns the server, its two open connections, any non-200 answers,
    the set-up time in raw seconds and the host factor measured by
    probes between the set-up requests.  On failure the server is
    stopped before re-raising.
    """
    t0 = time.perf_counter()
    work.mkdir()
    server = _Server(work, trace)
    conns: list[_Conn] = []
    speed: list[float] = []
    try:
        server.wait_healthy(gauge)
        conns = [_Conn(server.port, gauge), _Conn(server.port, gauge)]
        errors = []
        for conn, bodies in zip(conns, (pool, warmup)):
            for m, p, b in bodies:
                speed.append(hostspeed.probe())  # between requests
                status, data = conn.call(m, p, b)
                if status != 200:
                    errors.append(f"{p}: {status} {data[:200]!r}")
    except BaseException:
        for conn in conns:
            conn.close()
        server.stop()
        raise
    raw = time.perf_counter() - t0 - sum(speed)
    return server, conns, errors, raw, hostspeed.factor(speed)


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> dict:
    gauge = _Gauge()
    pool = _hot_pool(seed)
    sched = _MissSchedule(seed, _hot_seeds(seed))
    warmup = sched.rotation()  # its seeds never recur in the window
    setups: list[tuple[float, float]] = []  # (raw s, host factor)
    setup_errors: list[str] = []
    for k in range(SETUPS):
        server, (hot, miss), errors, raw, f = _setup(
            work / f"server-{k}", trace, gauge, pool, warmup)
        setups.append((raw, f))
        setup_errors += errors
        if k < SETUPS - 1:
            hot.close()
            miss.close()
            server.stop()
    setup_s = median(raw / f for raw, f in setups)
    try:
        loops, rotations, snaps, t_start, t_on, t_end, speed = _drive(
            server, hot, miss, pool, sched, seconds, trace)
        peak_rss = peak_rss_mb_pid(server.proc.pid)
    finally:
        hot.close()
        miss.close()
        server.stop()
    traced_pid = server.proc.pid

    hot_s, miss_s = loops[0].samples, loops[1].samples
    report = _verify(pool, hot_s, miss_s, rotations, seed, work)
    report["errors"] = setup_errors + report["errors"]
    report["correct"] = report["correct"] and not setup_errors
    window = t_end - t_start
    f = hostspeed.factor(speed)
    complete: dict[int, list] = {}
    for t0, t1, _, tag, _ in miss_s:
        complete.setdefault(tag[1], []).append((t0, t1))
    # a rotation's time is the sum of its requests' latencies, so the
    # probes between them are not counted
    rot_walls = [sum(t1 - t0 for t0, t1 in v)
                 for v in complete.values() if len(v) == len(MISS_LIST)]
    hot = summarize([(t1 - t0) * 1e3 / f for t0, t1, *_ in hot_s])
    miss = summarize([(t1 - t0) * 1e3 / f for t0, t1, *_ in miss_s])
    report.update({
        "workload": workload,
        "stamp": {**environment_stamp(seed),
                  "store_state": ir_delta(snaps[0]["ir"], snaps[-1]["ir"])},
        "setups": [{"raw_s": raw, "host_factor": sf} for raw, sf in setups],
        "window": {"raw_s": window, "host_factor": f,
                   "rotations_raw_s": rot_walls},
        "samples_ms": {"hot": hot, "miss": miss},
        "raw_metrics": {
            "setup_s": median(raw for raw, _ in setups),
            "pass_s": median(rot_walls),
            "exp_p50_ms": miss["median"] * f, "exp_p90_ms": miss["p90"] * f,
            "req_per_s": (len(hot_s) + len(miss_s)) / window,
            "hit_p50_ms": hot["median"] * f, "hit_p90_ms": hot["p90"] * f},
        "connections_peak": gauge.peak,
    })
    # time metrics in reference seconds (see hostspeed.py)
    report["metrics"] = {
        "setup_s": (setup_s, "s"),
        "pass_s": (median(rot_walls) / f, "s"),
        "exp_p50_ms": (miss["median"], "ms"),
        "exp_p90_ms": (miss["p90"], "ms"),
        "req_per_s": ((len(hot_s) + len(miss_s)) / (window / f), "1/s"),
        "hit_p50_ms": (hot["median"], "ms"),
        "hit_p90_ms": (hot["p90"], "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    if trace:
        report.update(_layers(server.dir, hot_s, miss_s, snaps, t_start,
                              t_on, t_end))
        report["traced_pid"] = traced_pid
    return report


def _layers(work, hot_s, miss_s, snaps, t_start, t_on, t_end) -> dict:
    """Per-layer metrics of the traced (second) half of the window."""
    import tracer as tr

    dump = json.loads((work / "spans.json").read_text())
    tr.link_service(dump)
    on_ns, off_ns = int(t_on * 1e9), int(t_end * 1e9)
    roots = [sp for sp in dump["spans"] if sp[0] == "service.request"
             and sp[1] >= on_ns and sp[1] + sp[2] <= off_ns]
    ops = {sp[5] for sp in roots}
    tot, hits = tr.totals(dump, ops)
    both = hot_s + miss_s
    traced = [(t0, t1) for t0, t1, *_ in both if t0 >= t_on and t1 <= t_end]
    before = [(t0, t1) for t0, t1, *_ in both if t1 <= t_on]
    traced_rate = len(traced) / (t_end - t_on)
    untraced_rate = len(before) / (t_on - t_start)
    mid, end = snaps[1], snaps[2]
    lru_h = end["lru"]["hits"] - mid["lru"]["hits"]
    lru_m = end["lru"]["misses"] - mid["lru"]["misses"]
    nb = end["batches"]["count"] - mid["batches"]["count"]
    sb = end["batches"]["sum"] - mid["batches"]["sum"]
    cal = {k: end["calibration"][k] - mid["calibration"][k]
           for k in ("hits", "misses")}
    traced_miss = sum(1 for t0, t1, *_ in miss_s
                      if t0 >= t_on and t1 <= t_end)
    passes = max(1, round(traced_miss / len(MISS_LIST)))
    layers = tr.layer_metrics(
        tot, hits, passes=passes,
        # coverage against what the client waited for: the remainder
        # is outside the server's request spans (sockets, the client's
        # own parsing, and the event loop waiting for the interpreter
        # lock while a batch thread evaluates)
        traced_wall_s=sum(t1 - t0 for t0, t1 in traced),
        overhead_frac=untraced_rate / traced_rate - 1.0,
        calibration=(cal["hits"], cal["hits"] + cal["misses"]),
        service={"batch_mean": sb / nb if nb else 0.0,
                 "lru_hit_ratio": lru_h / (lru_h + lru_m)
                 if lru_h + lru_m else 0.0})
    detail = {
        "machines.pricer_build_s by machine": tr.breakdown(
            dump, "machines.pricer_build", "machine", passes=passes,
            ops=ops),
        "algorithms.self_s by algorithm": tr.breakdown(
            dump, "algorithms.run", "alg", passes=passes, ops=ops)}
    return {"layers": layers, "layer_detail": detail, "trace_dump": dump}


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
def _verify(pool, hot_s, miss_s, rotations, seed, work) -> dict:
    """Check served bodies against the offline pipeline, byte for byte.

    Every hot answer must equal the first answer to the same body, and
    the first answer must equal the offline result.  A seeded sample of
    miss answers is recomputed offline too.  ``/experiments/{id}``
    answers carry a timing and a cached flag, so only their ``result``
    is compared.
    """
    os.environ["REPRO_CACHE_DIR"] = str(work / "verify-cache")
    from repro.experiments import get
    from repro.service.httpd import Response
    from repro.service.oracle import (ablate_offline, bounds_offline,
                                      compare_offline, predict_offline)

    offline = {"/predict": predict_offline, "/compare": compare_offline,
               "/bounds": bounds_offline, "/ablate": ablate_offline}

    def expected(method, path, body):
        if method == "GET":
            exp_id, query = path[len("/experiments/"):].split("?")
            q = dict(kv.split("=") for kv in query.split("&"))
            return result_digest(get(exp_id).run(
                scale=float(q["scale"]), seed=int(q["seed"])).to_dict())
        return Response.json(offline[path](json.loads(body))).body

    def served(method, data):
        return (result_digest(json.loads(data)["result"]) if method == "GET"
                else data)

    errors: list[str] = []
    failed = 0
    first: dict[int, bytes] = {}
    for _, _, status, (_, i), data in hot_s:
        method = pool[i][0]
        if status != 200:
            failed += 1
            errors.append(f"hot {pool[i][1]}: {status}")
            continue
        key = served(method, data)
        if first.setdefault(i, key) != key:
            failed += 1
            errors.append(f"hot {pool[i][1]}: answer changed")
    for i, key in first.items():
        if expected(*pool[i]) != key:
            failed += 1
            errors.append(f"hot {pool[i][1]}: differs from offline")
    ok_miss = []
    for _, _, status, tag, data in miss_s:
        if status != 200:
            failed += 1
            errors.append(f"miss {tag}: {status} {data[:200]!r}")
        else:
            ok_miss.append((tag, data))
    rng = random.Random(derive_seed(seed, "miss-verify"))
    sample = rng.sample(ok_miss, min(MISS_VERIFY, len(ok_miss)))
    for (_, r, i), data in sample:
        if expected(*rotations[r][i]) != data:
            failed += 1
            errors.append(f"miss {rotations[r][i][1]} rotation {r}: "
                          "differs from offline")
    return {"attempted": len(hot_s) + len(miss_s), "failed": failed,
            "correct": failed == 0,
            "verification": {"hot_bodies": len(first),
                             "miss_sampled": len(sample)},
            "errors": errors[:20]}
