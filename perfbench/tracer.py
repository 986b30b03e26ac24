"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each ``repro`` layer
so that, while :attr:`Tracer.enabled` is set, every call opens a span.
Nothing under ``src/`` changes: module functions are re-bound in every
``repro`` module that imported them by name, and methods are wrapped on
the class that defines them and on every subclass that overrides them.

Spans nest through a :class:`contextvars.ContextVar`, so nesting is
per thread and, on the server's event loop, per connection task.  A
span's *self time* is its duration minus the durations of the spans it
directly contains; summing self times over a tree gives the root's wall
time back, which is what ``bench.self_time_coverage`` checks.  Spans
stay in memory; :func:`chrome_trace` writes them out at the end as
Chrome trace-event JSON that Perfetto opens.  ``Superstep.work_nominal_us``
calls, one per superstep a cost model prices, are *aggregated*: they
add to their parent's child time and to per-operation totals but keep
no per-call record.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

_now = time.perf_counter_ns

#: span name of the algorithm-level ``run_lowered`` when that call
#: recorded a new step program (renamed at close; see IRStore.put hook).
RECORD = "simulator.record"
LOWERED = "simulator.run_lowered"


class _Frame:
    __slots__ = ("name", "start", "child", "op", "parent", "args", "token",
                 "recorded")

    def __init__(self, name, op, parent, args):
        self.name = name
        self.op = op
        self.parent = parent
        self.args = args
        self.child = 0
        self.token = None
        self.recorded = False
        self.start = 0


class Tracer:
    """In-memory span recorder.

    ``spans`` holds one ``[name, start_ns, dur_ns, self_ns, tid, op,
    args]`` record per kept call; aggregated calls add to
    ``agg[(op, name)] = [self_ns, calls]`` instead.  ``hits[(op, name)]``
    counts calls whose result was a hit (a non-``None`` lookup).
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self.agg: dict[tuple, list[int]] = defaultdict(lambda: [0, 0])
        self.hits: dict[tuple, int] = defaultdict(int)
        self._cur: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._ops = itertools.count(1)
        self._lock = threading.Lock()

    def open(self, name: str, args=None) -> _Frame:
        parent = self._cur.get()
        op = parent.op if parent is not None else next(self._ops)
        f = _Frame(name, op, parent, args)
        f.token = self._cur.set(f)
        f.start = _now()
        return f

    def close(self, f: _Frame, *, keep: bool = True) -> None:
        end = _now()
        self._cur.reset(f.token)
        dur = end - f.start
        name = RECORD if f.recorded else f.name
        own = dur - f.child
        with self._lock:
            if keep:
                self.spans.append([name, f.start, dur, own, _tid(), f.op,
                                   f.args])
            else:
                tot = self.agg[(f.op, name)]
                tot[0] += own
                tot[1] += 1
        if f.parent is not None:
            f.parent.child += dur

    def record(self, name: str, start: int, end: int, parent: _Frame) -> None:
        """Add a finished leaf span measured by the caller."""
        dur = end - start
        with self._lock:
            self.spans.append([name, start, dur, dur, _tid(), parent.op,
                               None])
        parent.child += dur

    def hit(self, op: int, name: str) -> None:
        with self._lock:
            self.hits[(op, name)] += 1

    def current(self) -> _Frame | None:
        return self._cur.get()

    def mark_recorded(self) -> None:
        """Flag the innermost ``run_lowered`` span as a recording."""
        f = self._cur.get()
        while f is not None and f.name != LOWERED:
            f = f.parent
        if f is not None:
            f.recorded = True

    def dump(self) -> dict:
        """Everything recorded, as JSON-serialisable lists."""
        return {"spans": self.spans,
                "agg": [[op, name, s, n]
                        for (op, name), (s, n) in self.agg.items()],
                "hits": [[op, name, n] for (op, name), n in self.hits.items()]}


def _tid():
    """Thread id, or the asyncio task's id on an event-loop thread.

    Tasks interleave on one thread; giving each its own track keeps
    every track's spans properly nested in the trace viewer.
    """
    try:
        task = asyncio.current_task()
    except RuntimeError:
        task = None
    if task is not None:
        return f"task-{id(task) & 0xFFFFFF:x}"
    return threading.current_thread().name


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap_sync(tr: Tracer, name: str, fn, *, keep=True, hit=False,
               args_of=None):
    @functools.wraps(fn)
    def wrapper(*a, **k):
        if not tr.enabled:
            return fn(*a, **k)
        cur = tr.current()
        if cur is not None and cur.name == name:
            return fn(*a, **k)  # override calling super(): one span
        f = tr.open(name, args_of(a, k) if args_of else None)
        try:
            out = fn(*a, **k)
        finally:
            tr.close(f, keep=keep)
        if hit and out is not None:
            tr.hit(f.op, name)
        return out

    return wrapper


def _wrap_async(tr: Tracer, name: str, fn, *, args_of=None):
    @functools.wraps(fn)
    async def wrapper(*a, **k):
        if not tr.enabled:
            return await fn(*a, **k)
        f = tr.open(name, args_of(a, k) if args_of else None)
        try:
            return await fn(*a, **k)
        finally:
            tr.close(f)

    return wrapper


def _rebind(orig, new) -> int:
    """Point every ``repro`` module attribute that is ``orig`` at ``new``."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
                n += 1
    return n


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        c = todo.pop()
        if c not in seen:
            seen.append(c)
            todo.extend(c.__subclasses__())
    return seen


def _wrap_method(tr: Tracer, cls, meth: str, name: str, **kw) -> int:
    """Wrap ``meth`` on ``cls`` and on every subclass that defines it."""
    n = 0
    for c in _subclasses(cls):
        raw = c.__dict__.get(meth)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            setattr(c, meth, classmethod(_wrap_sync(tr, name, raw.__func__,
                                                    **kw)))
        elif inspect.iscoroutinefunction(raw):
            setattr(c, meth, _wrap_async(tr, name, raw, **kw))
        else:
            setattr(c, meth, _wrap_sync(tr, name, raw, **kw))
        n += 1
    return n


def install(tr: Tracer, *, service: bool = False) -> dict[str, int]:
    """Wrap every layer entry point; returns wrap counts per span name.

    Must run after the modules are imported (``all_experiments()`` and,
    for ``service=True``, ``repro.service``) so every by-name import of
    a wrapped function is re-bound.
    """
    import importlib

    from repro.calibration import table1
    from repro.core.base import CostModel
    from repro.core.trace import Superstep
    from repro.experiments import all_experiments
    from repro.experiments.base import Experiment
    from repro.machines.base import CommPricer, Machine
    from repro.runner.cache import ResultCache
    from repro.simulator import ir, lower

    # the package re-exports the function under the submodule's name
    replay = importlib.import_module("repro.simulator.replay")

    all_experiments()
    counts: dict[str, int] = defaultdict(int)

    def fn(mod, attr, name, **kw):
        orig = getattr(mod, attr)
        counts[name] += _rebind(orig, _wrap_sync(tr, name, orig, **kw))

    counts["experiments.run"] += _wrap_method(
        tr, Experiment, "run", "experiments.run",
        args_of=lambda a, k: {"seed": k.get("seed")})
    for alg in ("apsp", "bitonic", "lu", "matmul", "radix", "samplesort",
                "stencil"):
        fn(importlib.import_module(f"repro.algorithms.{alg}"), "run",
           "algorithms.run", args_of=lambda a, k, alg=alg: {"alg": alg})
    fn(lower, "run_lowered", LOWERED)
    fn(replay, "replay", "simulator.replay")
    counts["simulator.ir_get"] += _wrap_method(
        tr, ir.IRStore, "get", "simulator.ir_get", hit=True)
    orig_put = ir.IRStore.put

    def put(self, key, prog):
        if tr.enabled:
            tr.mark_recorded()
        return orig_put(self, key, prog)

    ir.IRStore.put = put
    counts["simulator.ir_put"] += _wrap_method(
        tr, ir.IRStore, "put", "simulator.ir_put")
    counts["machines.pricer_build"] += _wrap_method(
        tr, Machine, "comm_time_batch", "machines.pricer_build",
        args_of=lambda a, k: {"machine": a[0].name})
    counts["machines.sequence_costs"] += _wrap_method(
        tr, CommPricer, "sequence_costs", "machines.sequence_costs")
    counts["core.work_nominal"] += _wrap_method(
        tr, Superstep, "work_nominal_us", "core.work_nominal", keep=False)
    counts["core.model_cost"] += _wrap_method(
        tr, CostModel, "comm_cost_batch", "core.model_cost")
    fn(table1, "calibration_for", "calibration.fit")
    counts["runner.cache_get"] += _wrap_method(
        tr, ResultCache, "get_doc", "runner.cache_get", hit=True)
    counts["runner.cache_put"] += _wrap_method(
        tr, ResultCache, "put_doc", "runner.cache_put")
    if service:
        _install_service(tr, counts)
    missing = [k for k, v in counts.items() if not v]
    if missing:
        raise RuntimeError(f"tracer hooks matched nothing: {missing}")
    return dict(counts)


def _install_service(tr: Tracer, counts) -> None:
    """Service-side spans: one root per HTTP request plus its stages.

    The root starts when the request line arrives and closes after the
    response is encoded, so the time a keep-alive connection sits idle
    between requests is in no span; reading the rest of the request
    counts as ``service.parse``.
    """
    from repro.ablation.api import AblateRequest
    from repro.bounds.api import BoundsRequest
    from repro.service import batcher, httpd, oracle, server
    from repro.service.router import Router

    orig_read = server.read_request
    orig_endpoint = Router.endpoint_of
    orig_encode = server.encode_response
    #: id(request.path) -> (request line read, request fully read), ns
    arrived: dict[int, tuple[int, int]] = {}

    async def read_request(reader):
        # Runs inside ``wait_for``'s own task, so it cannot open the
        # request span in the connection task's context; it notes when
        # the request line arrived (the wait before it is idle
        # keep-alive time) and when the request was fully read.
        if not tr.enabled:
            return await orig_read(reader)
        first = reader.readline
        seen: list[int] = []

        async def readline():
            line = await first()
            seen.append(_now())
            del reader.readline
            return line

        reader.readline = readline
        try:
            req = await orig_read(reader)
        finally:
            reader.__dict__.pop("readline", None)
        if req is not None and seen:
            arrived[id(req.path)] = (seen[0], _now())
        return req

    def endpoint_of(self, method, path):
        # the first call the connection task makes with a new request
        if tr.enabled:
            root = tr.open("service.request", {"path": path})
            times = arrived.pop(id(path), None)
            if times is not None:
                root.start = times[0]
                tr.record("service.parse", times[0], times[1], root)
        return orig_endpoint(self, method, path)

    def encode_response(resp, **kw):
        root = tr.current()
        if not tr.enabled or root is None:
            return orig_encode(resp, **kw)
        f = tr.open("service.encode")
        try:
            return orig_encode(resp, **kw)
        finally:
            tr.close(f)
            if root.name == "service.request":
                root.args["status"] = resp.status
                tr.close(root)

    Router.endpoint_of = endpoint_of
    server.read_request = read_request
    server.encode_response = encode_response
    counts["service.request"] += 1
    counts["service.encode"] += _wrap_method(
        tr, httpd.Response, "json", "service.encode")
    for cls in (httpd.Request, oracle.PredictRequest, AblateRequest,
                BoundsRequest):
        meth = "json" if cls is httpd.Request else "from_json"
        counts["service.parse"] += _wrap_method(tr, cls, meth,
                                                "service.parse")
    counts["service.submit"] += _wrap_method(
        tr, batcher.MicroBatcher, "submit", "service.submit",
        args_of=lambda a, k: {"key": repr(a[2])})
    orig_eval = server.evaluate_batch
    counts["service.evaluate"] += _rebind(orig_eval, _wrap_sync(
        tr, "service.evaluate", orig_eval,
        args_of=lambda a, k: {"keys": [repr(key) for _, key, _ in a[0]]}))
    counts["service.run_experiment"] += _wrap_method(
        tr, server.ServiceApp, "run_experiment", "service.run_experiment")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
#: the per-layer metrics every traced run reports, with their units.
#: Times are self times and, like counts, are per pass (one
#: 35-experiment sweep, or one rotation of the serve miss list).  A
#: layer a workload never enters reports 0.
PER_LAYER = [
    ("simulator.record_s", "s/pass"), ("simulator.record_n", "count/pass"),
    ("simulator.self_s", "s/pass"),
    ("simulator.ir_get_s", "s/pass"), ("simulator.ir_put_s", "s/pass"),
    ("simulator.ir_hit_ratio", "ratio"),
    ("simulator.replay_s", "s/pass"), ("simulator.replay_n", "count/pass"),
    ("machines.pricer_build_s", "s/pass"),
    ("machines.pricer_build_n", "count/pass"),
    ("machines.sequence_costs_s", "s/pass"),
    ("core.work_nominal_s", "s/pass"), ("core.work_nominal_n", "count/pass"),
    ("core.model_cost_s", "s/pass"),
    ("algorithms.self_s", "s/pass"),
    ("calibration.fit_s", "s/pass"), ("calibration.memo_hit_ratio", "ratio"),
    ("experiments.self_s", "s/pass"),
    ("runner.cache_get_s", "s/pass"), ("runner.cache_put_s", "s/pass"),
    ("runner.cache_hit_ratio", "ratio"),
    ("service.self_s", "s/pass"),
    ("service.parse_s", "s/pass"), ("service.encode_s", "s/pass"),
    ("service.wait_s", "s/pass"), ("service.evaluate_s", "s/pass"),
    ("service.batch_mean", "count"), ("service.lru_hit_ratio", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.self_time_coverage", "ratio"),
]


def totals(dump: dict, ops=None) -> tuple[dict, dict]:
    """``({name: [self_ns, calls]}, {name: hits})``, optionally for ``ops``."""
    tot: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    hits: dict[str, int] = defaultdict(int)
    for name, _, _, own, _, op, _ in dump["spans"]:
        if ops is None or op in ops:
            tot[name][0] += own
            tot[name][1] += 1
    for op, name, own, n in dump["agg"]:
        if ops is None or op in ops:
            tot[name][0] += own
            tot[name][1] += n
    for op, name, n in dump["hits"]:
        if ops is None or op in ops:
            hits[name] += n
    return tot, hits


def link_service(dump: dict) -> None:
    """Attach worker-thread spans to the request that waited for them.

    A batch evaluation runs on a batcher thread, and an experiment on
    the server's executor thread, so neither is nested under its
    request by context.  This links each to the request span that
    covers it in time (and, for evaluations, shares its batch key),
    moves it to that request's op id, and takes its duration out of the
    waiting span's self time — the same rule as nested spans.
    """
    spans = dump["spans"]
    submits: dict[str, list] = defaultdict(list)
    exp_roots = []
    for sp in spans:
        if sp[0] == "service.submit":
            submits[sp[6]["key"]].append(sp)
        elif sp[0] == "service.request" and sp[6]["path"].startswith(
                "/experiments/"):
            exp_roots.append(sp)
    remap: dict[int, int] = {}
    for sp in spans:
        name, start, dur = sp[0], sp[1], sp[2]
        if name == "service.evaluate":
            cands = [s for key in sp[6]["keys"] for s in submits.get(key, ())]
        elif name == "service.run_experiment":
            cands = exp_roots
        else:
            continue
        for waiter in cands:
            if waiter[1] <= start and start + dur <= waiter[1] + waiter[2]:
                waiter[3] -= dur
                remap[sp[5]] = waiter[5]
                break
    for sp in spans:
        sp[5] = remap.get(sp[5], sp[5])
    for row in dump["agg"]:
        row[0] = remap.get(row[0], row[0])
    for row in dump["hits"]:
        row[0] = remap.get(row[0], row[0])


def layer_metrics(tot: dict, hits: dict, *, passes: int,
                  traced_wall_s: float, overhead_frac: float,
                  calibration: tuple[int, int],
                  service: dict | None = None) -> dict:
    """The :data:`PER_LAYER` values from ``totals`` output.

    ``traced_wall_s`` is the wall time the traced operations took,
    measured by the load generator, not by spans; coverage compares the
    sum of every span's self time against it.
    """
    passes = max(passes, 1)

    def sec(*names):
        return sum(tot[n][0] for n in names if n in tot) / 1e9 / passes

    def cnt(name):
        return tot[name][1] / passes if name in tot else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    service = service or {}
    cal_hits, cal_calls = calibration
    out = {
        "simulator.record_s": sec(RECORD),
        "simulator.record_n": cnt(RECORD),
        "simulator.self_s": sec(LOWERED),
        "simulator.ir_get_s": sec("simulator.ir_get"),
        "simulator.ir_put_s": sec("simulator.ir_put"),
        "simulator.ir_hit_ratio": ratio(
            hits.get("simulator.ir_get", 0),
            tot["simulator.ir_get"][1] if "simulator.ir_get" in tot else 0),
        "simulator.replay_s": sec("simulator.replay"),
        "simulator.replay_n": cnt("simulator.replay"),
        "machines.pricer_build_s": sec("machines.pricer_build"),
        "machines.pricer_build_n": cnt("machines.pricer_build"),
        "machines.sequence_costs_s": sec("machines.sequence_costs"),
        "core.work_nominal_s": sec("core.work_nominal"),
        "core.work_nominal_n": cnt("core.work_nominal"),
        "core.model_cost_s": sec("core.model_cost"),
        "algorithms.self_s": sec("algorithms.run"),
        "calibration.fit_s": sec("calibration.fit"),
        "calibration.memo_hit_ratio": ratio(cal_hits, cal_calls),
        "experiments.self_s": sec("experiments.run"),
        "runner.cache_get_s": sec("runner.cache_get"),
        "runner.cache_put_s": sec("runner.cache_put"),
        "runner.cache_hit_ratio": ratio(
            hits.get("runner.cache_get", 0),
            tot["runner.cache_get"][1] if "runner.cache_get" in tot else 0),
        "service.self_s": sec("service.request", "service.run_experiment"),
        "service.parse_s": sec("service.parse"),
        "service.encode_s": sec("service.encode"),
        "service.wait_s": sec("service.submit"),
        "service.evaluate_s": sec("service.evaluate"),
        "service.batch_mean": service.get("batch_mean", 0.0),
        "service.lru_hit_ratio": service.get("lru_hit_ratio", 0.0),
        "bench.trace_overhead_frac": overhead_frac,
        "bench.self_time_coverage": ratio(
            sum(v[0] for v in tot.values()) / 1e9, traced_wall_s),
    }
    return {name: (out[name], unit) for name, unit in PER_LAYER}


def chrome_trace(dump: dict, path, *, pid: int, process: str) -> int:
    """Write ``dump``'s kept spans as Chrome trace-event JSON.

    Perfetto and ``chrome://tracing`` open the file.  Spans of one
    experiment or one request carry the same ``args.op``.  Returns the
    number of events written.
    """
    events: list[dict] = [{"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": process}}]
    for name, start, dur, own, tid, op, args in dump["spans"]:
        a = {"op": op, "self_us": own / 1000.0}
        if args:
            a.update(args)
        events.append({"name": name, "cat": name.split(".")[0], "ph": "X",
                       "ts": start / 1000.0, "dur": dur / 1000.0,
                       "pid": pid, "tid": tid, "args": a})
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return len(events)


def breakdown(dump: dict, name: str, arg: str, *, passes: int,
              ops=None) -> dict[str, float]:
    """Self seconds per pass of span ``name``, split by ``args[arg]``."""
    out: dict[str, float] = defaultdict(float)
    for n, _, _, own, _, op, args in dump["spans"]:
        if n == name and (ops is None or op in ops):
            out[args[arg]] += own / 1e9 / max(passes, 1)
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
