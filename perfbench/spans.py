"""Span recorder for traced runs, installed from the benchmark's files.

``install(recorder)`` wraps the public entry points of each layer in
place (class attributes and the module globals the scheduler calls), so
the program's sources stay untouched and untraced runs pay nothing.  A
span records its name, start and end (``time.perf_counter``, which is
``CLOCK_MONOTONIC`` on Linux and so comparable across the benchmark and
its server child), its parent span and a session key.  The current span
lives in a ``ContextVar``: asyncio tasks and threads each see their own
chain, so a flush on the scheduler thread is a root of its own that
lists the session keys it served.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import re
import time
from contextvars import ContextVar
from pathlib import Path

_CURRENT: ContextVar = ContextVar("perfbench_span", default=None)
_SESSION_PATH = re.compile(r"^/sessions/([^/]+)/")

#: span name -> layer (module) it belongs to
LAYER_OF = {
    "http.request": "serve.http",
    "http.websocket": "serve.http",
    "service.ask": "serve.async_service",
    "service.answer": "serve.async_service",
    "service.spawn": "serve.async_service",
    "service.result": "serve.async_service",
    "scheduler.flush": "serve.scheduler",
    "scheduler.plan": "serve.scheduler",
    "scheduler.group": "serve.scheduler",
    "collection.stats": "core.collection",
    "collection.stats_many": "core.collection",
    "collection.partition": "core.collection",
    "kernels.scan": "core.kernels",
    "kernels.candidate_scan": "core.kernels",
    "kernels.scan_many": "core.kernels",
    "kernels.positive_counts": "core.kernels",
    "kernels.partition_many": "core.kernels",
    "kernels.score": "core.kernels",
    "lookahead.select": "core.lookahead",
    "construction.build_tree": "core.construction",
}


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "key", "attrs")

    def __init__(self, name, parent, key=None) -> None:
        self.name = name
        self.parent = parent
        self.key = key
        self.attrs = None
        self.t1 = 0.0
        self.t0 = time.perf_counter()


class Recorder:
    """In-memory span store plus counters measured at the same calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        #: last scheduler seen by a flush (its EngineStats are read at end)
        self.scheduler = None

    def count(self, name: str, by: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def begin(self, name: str, key=None) -> "tuple[Span, object]":
        span = Span(name, _CURRENT.get(), key)
        self.spans.append(span)
        return span, _CURRENT.set(span)

    @staticmethod
    def end(span: Span, token) -> None:
        span.t1 = time.perf_counter()
        _CURRENT.reset(token)

    def dump(self, path: Path, extra: dict | None = None) -> None:
        """Write every span (parents as indices) plus counters as JSON."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [
                s.name,
                s.t0,
                s.t1,
                index.get(id(s.parent), -1) if s.parent is not None else -1,
                None if s.key is None else str(s.key),
                s.attrs,
            ]
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": self.counts, **(extra or {})}, fh)


def load(path: Path) -> "tuple[list[Span], dict]":
    """Read a :meth:`Recorder.dump` file back into linked spans."""
    with open(path) as fh:
        data = json.load(fh)
    spans = []
    for name, t0, t1, parent, key, attrs in data["spans"]:
        span = Span.__new__(Span)
        span.name, span.t0, span.t1, span.key, span.attrs = name, t0, t1, key, attrs
        span.parent = parent
        spans.append(span)
    for span in spans:
        span.parent = spans[span.parent] if span.parent >= 0 else None
    return spans, data


# --------------------------------------------------------------------- #
# Wrappers
# --------------------------------------------------------------------- #


def _sync(rec: Recorder, name: str, fn, key_arg=None, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        key = args[key_arg] if key_arg is not None and len(args) > key_arg else None
        span, token = rec.begin(name, key)
        if before is not None:
            before(span, args, kwargs)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(span, token)
        if after is not None:
            after(span, args, out)
        return out

    return wrapper


def _async(rec: Recorder, name: str, fn, key_arg=None):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        key = args[key_arg] if key_arg is not None and len(args) > key_arg else None
        span, token = rec.begin(name, key)
        try:
            return await fn(*args, **kwargs)
        finally:
            rec.end(span, token)

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points (see ``LAYER_OF``)."""
    from repro.core import construction
    from repro.core.collection import SetCollection
    from repro.core.kernels import NativeKernel
    from repro.core.lookahead import KLPSelector
    from repro.serve import scheduler as sched_mod
    from repro.serve.async_service import AsyncDiscoveryService
    from repro.serve.http import DiscoveryApp

    # -- serve.http: one span per ASGI call (a whole WS connection) ---- #
    app_call = DiscoveryApp.__call__

    @functools.wraps(app_call)
    async def app_wrapper(self, scope, receive, send):
        kind = scope.get("type")
        if kind not in ("http", "websocket"):
            return await app_call(self, scope, receive, send)
        match = _SESSION_PATH.match(scope.get("path", ""))
        span, token = rec.begin(
            "http.request" if kind == "http" else "http.websocket",
            match.group(1) if match else None,
        )
        try:
            return await app_call(self, scope, receive, send)
        finally:
            rec.end(span, token)

    DiscoveryApp.__call__ = app_wrapper

    # -- serve.async_service ------------------------------------------- #
    svc = AsyncDiscoveryService
    svc.ask = _async(rec, "service.ask", svc.ask, key_arg=1)
    svc.result = _async(rec, "service.result", svc.result, key_arg=1)
    svc.answer = _sync(rec, "service.answer", svc.answer, key_arg=1)

    def spawned(span, args, out):
        span.key = out

    svc.spawn = _sync(rec, "service.spawn", svc.spawn, after=spawned)

    # -- serve.scheduler ----------------------------------------------- #
    def flushed(span, args, report):
        rec.scheduler = args[0]
        keys = set(report.questions) | set(report.finished)
        keys |= set(report.already_pending)
        span.attrs = {"keys": [str(k) for k in keys]}

    sched_mod.ScanScheduler.flush = _sync(
        rec, "scheduler.flush", sched_mod.ScanScheduler.flush, after=flushed
    )
    sched_mod.plan_stacked_scan = _sync(
        rec, "scheduler.plan", sched_mod.plan_stacked_scan
    )
    sched_mod.group_for_scoring = _sync(
        rec, "scheduler.group", sched_mod.group_for_scoring
    )
    sched_mod.select_best_many = _sync(
        rec, "kernels.score", sched_mod.select_best_many
    )

    # -- core.collection (cache checked before each call) -------------- #
    def words(coll) -> int:
        return (coll.n_sets + 63) // 64

    def rows_of(coll, candidates) -> int:
        if candidates is None:
            return coll.n_entities
        return len(candidates) if hasattr(candidates, "__len__") else 0

    def stats_before(span, args, kwargs):
        coll, mask = args[0], args[1]
        candidates = args[2] if len(args) > 2 else kwargs.get("candidates")
        rec.count("collection.masks")
        if candidates is None and coll.is_cached(mask):
            rec.count("collection.cache_hits")
            return
        rec.count("kernels.masks_scanned")
        rec.count("kernels.bytes_swept", rows_of(coll, candidates) * words(coll) * 8)

    def stats_many_before(span, args, kwargs):
        coll, masks = args[0], args[1]
        cands = args[2] if len(args) > 2 else kwargs.get("candidates_list")
        seen = set()
        for i, mask in enumerate(masks):
            rec.count("collection.masks")
            if coll.is_cached(mask) or mask in seen:
                rec.count("collection.cache_hits")
                continue
            seen.add(mask)
            rec.count("kernels.masks_scanned")
            cand = cands[i] if cands is not None else None
            rec.count("kernels.bytes_swept", rows_of(coll, cand) * words(coll) * 8)

    SetCollection.informative_stats = _sync(
        rec, "collection.stats", SetCollection.informative_stats,
        before=stats_before,
    )
    SetCollection.informative_stats_many = _sync(
        rec, "collection.stats_many", SetCollection.informative_stats_many,
        before=stats_many_before,
    )
    SetCollection.partition = _sync(
        rec, "collection.partition", SetCollection.partition
    )

    # -- core.kernels --------------------------------------------------- #
    scan = NativeKernel.scan_informative

    @functools.wraps(scan)
    def scan_wrapper(self, mask, n_selected, candidates):
        name = "kernels.scan" if candidates is None else "kernels.candidate_scan"
        span, token = rec.begin(name)
        try:
            return scan(self, mask, n_selected, candidates)
        finally:
            rec.end(span, token)

    NativeKernel.scan_informative = scan_wrapper
    NativeKernel.scan_informative_many = _sync(
        rec, "kernels.scan_many", NativeKernel.scan_informative_many
    )
    NativeKernel.positive_counts = _sync(
        rec, "kernels.positive_counts", NativeKernel.positive_counts
    )
    NativeKernel.partition_many = _sync(
        rec, "kernels.partition_many", NativeKernel.partition_many
    )

    # -- core.lookahead / core.construction ----------------------------- #
    KLPSelector.select = _sync(rec, "lookahead.select", KLPSelector.select)
    construction.build_tree = _sync(
        rec, "construction.build_tree", construction.build_tree
    )


# --------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------- #


def children_map(spans) -> dict:
    kids: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(id(span.parent), []).append(span)
    return kids


def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_time(span: Span, kids: dict) -> float:
    """A span's duration minus the part its children cover."""
    children = kids.get(id(span), ())
    return (span.t1 - span.t0) - covered(
        [(c.t0, c.t1) for c in children], span.t0, span.t1
    )


def nesting_violations(spans, slack: float = 5e-5) -> int:
    """Children that start before or end after their parent."""
    bad = 0
    for span in spans:
        p = span.parent
        if p is not None and (span.t0 < p.t0 - slack or span.t1 > p.t1 + slack):
            bad += 1
    return bad


def _depth(span: Span, base: dict) -> int:
    d = 0
    while span.parent is not None:
        span = span.parent
        d += 1
    return d + base.get(span.name, 1)


def attribute(lo: float, hi: float, spans, base_depth: dict) -> dict:
    """Split ``[lo, hi]`` among layers: each instant goes to the deepest
    span active then; instants no span covers go to ``unaccounted``.

    The parts sum to ``hi - lo`` by construction, so the per-layer split
    of a measured round trip can be checked against the measurement.
    """
    events = []
    for span in spans:
        a, b = max(span.t0, lo), min(span.t1, hi)
        if b > a:
            events.append((a, b, _depth(span, base_depth), LAYER_OF[span.name]))
    out: dict[str, float] = {}
    if not events:
        out["unaccounted"] = hi - lo
        return out
    cuts = sorted({lo, hi, *(e[0] for e in events), *(e[1] for e in events)})
    for a, b in zip(cuts, cuts[1:]):
        mid = (a + b) / 2
        best = None
        for e in events:
            if e[0] <= mid < e[1] and (best is None or e[2] > best[2]):
                best = e
        layer = best[3] if best is not None else "unaccounted"
        out[layer] = out.get(layer, 0.0) + (b - a)
    return out


def subtree(span: Span, kids: dict) -> list:
    out, stack = [], [span]
    while stack:
        s = stack.pop()
        out.append(s)
        stack.extend(kids.get(id(s), ()))
    return out
