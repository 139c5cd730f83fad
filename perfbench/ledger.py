"""Per-layer metrics and the latency ledger of a traced run.

The ledger splits each measured round trip (a question's latency, or a
tree build) among the layers whose spans cover it, and checks that the
parts add back up to the measurement; time no span covers is reported as
``unaccounted`` rather than hidden.
"""

from __future__ import annotations

from bisect import bisect_left

from .common import BenchError, quantile
from .spans import (
    LAYER_OF,
    attribute,
    children_map,
    nesting_violations,
    self_time,
    subtree,
)

#: the ledger's parts must sum to the measured time within this share
LEDGER_TOLERANCE = 0.01
#: at most this share of spans may sit outside their parent's interval
NESTING_TOLERANCE = 0.001

#: depth of a root span in the per-question sweep: a flush sits under the
#: ask that waits on it, kernel spans under the flush
ROOT_DEPTH = {
    "http.request": 1,
    "http.websocket": 1,
    "service.ask": 2,
    "service.answer": 2,
    "service.spawn": 2,
    "service.result": 2,
    "scheduler.flush": 3,
    "construction.build_tree": 1,
}

#: every per-layer metric, in BENCHMARK.json order, with its unit
PER_LAYER = {
    "serve.http.requests": "count",
    "serve.http.self_ms_p50": "ms",
    "serve.http.self_ms_p99": "ms",
    "serve.http.cpu_ms_per_question": "ms",
    "serve.async_service.ask_ms_p50": "ms",
    "serve.async_service.ask_ms_p99": "ms",
    "serve.async_service.queue_wait_ms_p99": "ms",
    "serve.scheduler.flushes": "count",
    "serve.scheduler.flush_ms_p50": "ms",
    "serve.scheduler.flush_ms_p99": "ms",
    "serve.scheduler.busy_frac": "ratio",
    "serve.scheduler.requests_per_flush": "count",
    "serve.scheduler.plan_ms": "ms",
    "serve.scheduler.scan_ms": "ms",
    "serve.scheduler.score_ms": "ms",
    "serve.scheduler.scan_cache_hit_ratio": "ratio",
    "serve.scheduler.scoring_dedup_ratio": "ratio",
    "core.collection.stats_calls": "count",
    "core.collection.stats_cache_hit_ratio": "ratio",
    "core.collection.partition_calls": "count",
    "core.collection.partition_ms": "ms",
    "core.kernels.scan_calls": "count",
    "core.kernels.masks_scanned": "count",
    "core.kernels.scan_ms": "ms",
    "core.kernels.candidate_scan_ms": "ms",
    "core.kernels.bytes_swept": "B",
    "core.kernels.gbps": "GB/s",
    "core.kernels.score_ms": "ms",
    "core.lookahead.selects": "count",
    "core.lookahead.self_ms": "ms",
    "core.lookahead.scans_per_select": "count",
    "core.lookahead.partitions_per_select": "count",
    "loadgen.late_ms_p99": "ms",
    "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio",
}

_KERNEL_SCANS = ("kernels.scan", "kernels.candidate_scan", "kernels.scan_many")


def _ms(seconds: float) -> float:
    return seconds * 1e3


def check_nesting(spans) -> None:
    bad = nesting_violations(spans)
    if spans and bad > NESTING_TOLERANCE * len(spans):
        raise BenchError(f"{bad} of {len(spans)} spans escape their parent")


def question_ledger(roots, spans, http_stream_keys=frozenset()) -> dict:
    """Split each question round trip ``(lo, hi, key)`` among layers.

    A round trip owns the spans recorded under its session key, their
    descendants, and every flush that served the key.  On ``wire`` the
    HTTP stream's session-create request has no key yet, so HTTP request
    spans of that stream are matched by time instead (one request is in
    flight per stream at a time); ``http_stream_keys`` names its sessions.
    """
    kids = children_map(spans)
    for span in spans:  # a websocket connection takes its session's key
        if span.name == "http.websocket" and span.key is None:
            for child in kids.get(id(span), ()):
                if child.key is not None:
                    span.key = str(child.key)
                    break
    by_key: dict[str, list] = {}
    flushes: dict[str, list] = {}
    http_roots = []
    for span in spans:
        if span.name == "scheduler.flush":
            for key in (span.attrs or {}).get("keys", ()):
                flushes.setdefault(key, []).append(span)
        elif span.parent is None and span.name.startswith("http."):
            by_key.setdefault(str(span.key), []).append(span)
            if span.name == "http.request":
                http_roots.append(span)
        elif span.parent is None and span.key is not None:
            by_key.setdefault(str(span.key), []).append(span)
    http_roots.sort(key=lambda s: s.t0)
    http_starts = [s.t0 for s in http_roots]
    totals: dict[str, float] = {}
    measured = 0.0
    for lo, hi, key in roots:
        key = str(key)
        owned = [s for s in by_key.get(key, ()) if s.t1 > lo and s.t0 < hi]
        owned += [s for s in flushes.get(key, ()) if s.t1 > lo and s.t0 < hi]
        if key in http_stream_keys:
            i = bisect_left(http_starts, lo)
            while i < len(http_roots) and http_roots[i].t0 < hi:
                if http_roots[i].key is None:
                    owned.append(http_roots[i])
                i += 1
        events = []
        for span in owned:
            events.extend(subtree(span, kids))
        for layer, seconds in attribute(lo, hi, events, ROOT_DEPTH).items():
            totals[layer] = totals.get(layer, 0.0) + seconds
        measured += hi - lo
    return _checked(totals, measured)


def build_ledger(spans, measured: float) -> dict:
    """Per-layer self time of single-threaded, nested tree builds."""
    kids = children_map(spans)
    totals: dict[str, float] = {}
    for span in spans:
        layer = LAYER_OF[span.name]
        totals[layer] = totals.get(layer, 0.0) + self_time(span, kids)
    totals["unaccounted"] = max(0.0, measured - sum(totals.values()))
    return _checked(totals, measured)


def _checked(totals: dict, measured: float) -> dict:
    if measured <= 0:
        raise BenchError("traced phase measured nothing")
    accounted = sum(totals.values())
    if abs(accounted - measured) > LEDGER_TOLERANCE * measured:
        raise BenchError(
            f"layer self-times sum to {accounted:.4f}s but the measured "
            f"round trips total {measured:.4f}s"
        )
    return {"measured_s": measured, "layers_s": totals}


def queue_waits(spans) -> list:
    """Ask start to the start of the flush that served it (key join)."""
    flush_starts: dict[str, list] = {}
    for span in spans:
        if span.name == "scheduler.flush":
            for key in (span.attrs or {}).get("keys", ()):
                flush_starts.setdefault(key, []).append(span.t0)
    for starts in flush_starts.values():
        starts.sort()
    waits = []
    for span in spans:
        if span.name != "service.ask":
            continue
        starts = flush_starts.get(str(span.key), [])
        i = bisect_left(starts, span.t0)
        if i < len(starts) and starts[i] <= span.t1:
            waits.append(starts[i] - span.t0)
        else:
            waits.append(0.0)  # served from the pre-selected question
    return waits


def layer_metrics(
    spans,
    counts: dict,
    *,
    wall_s: float,
    ledger: dict,
    overhead_frac: float,
    engine_stats: dict | None = None,
    http_cpu_s: float = 0.0,
    questions: int = 0,
    late_s=(),
) -> dict:
    """Every per-layer metric (zero where the workload skips a layer)."""
    kids = children_map(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def durations(*names):
        return [s.t1 - s.t0 for n in names for s in by_name.get(n, ())]

    http = by_name.get("http.request", [])
    http_self = [self_time(s, kids) for s in http]
    asks = durations("service.ask")
    flushes = by_name.get("scheduler.flush", [])
    flush_d = [s.t1 - s.t0 for s in flushes]
    stats_many_in_flush = [
        s.t1 - s.t0
        for s in by_name.get("collection.stats_many", ())
        if s.parent is not None and s.parent.name == "scheduler.flush"
    ]
    es = engine_stats or {}
    looked = es.get("scan_cache_hits", 0) + es.get("scanned_masks", 0)
    selections = es.get("batched_selections", 0)
    scan_calls = sum(len(by_name.get(n, ())) for n in _KERNEL_SCANS)
    scan_s = sum(durations("kernels.scan", "kernels.scan_many"))
    cand_s = sum(durations("kernels.candidate_scan"))
    selects = by_name.get("lookahead.select", [])
    partitions = len(by_name.get("collection.partition", ()))
    masks = counts.get("collection.masks", 0)
    out = {
        "serve.http.requests": len(http) + len(by_name.get("http.websocket", ())),
        "serve.http.self_ms_p50": _ms(quantile(http_self, 0.50)),
        "serve.http.self_ms_p99": _ms(quantile(http_self, 0.99)),
        "serve.http.cpu_ms_per_question": (
            _ms(http_cpu_s) / questions if http and questions else 0.0
        ),
        "serve.async_service.ask_ms_p50": _ms(quantile(asks, 0.50)),
        "serve.async_service.ask_ms_p99": _ms(quantile(asks, 0.99)),
        "serve.async_service.queue_wait_ms_p99": _ms(
            quantile(queue_waits(spans), 0.99)
        ),
        "serve.scheduler.flushes": len(flushes),
        "serve.scheduler.flush_ms_p50": _ms(quantile(flush_d, 0.50)),
        "serve.scheduler.flush_ms_p99": _ms(quantile(flush_d, 0.99)),
        "serve.scheduler.busy_frac": sum(flush_d) / wall_s if wall_s else 0.0,
        "serve.scheduler.requests_per_flush": (
            sum(len((s.attrs or {}).get("keys", ())) for s in flushes)
            / len(flushes)
            if flushes
            else 0.0
        ),
        "serve.scheduler.plan_ms": _ms(
            sum(durations("scheduler.plan", "scheduler.group"))
        ),
        "serve.scheduler.scan_ms": _ms(sum(stats_many_in_flush)),
        "serve.scheduler.score_ms": _ms(sum(durations("kernels.score"))),
        "serve.scheduler.scan_cache_hit_ratio": (
            es.get("scan_cache_hits", 0) / looked if looked else 0.0
        ),
        "serve.scheduler.scoring_dedup_ratio": (
            1.0 - es.get("scoring_groups", 0) / selections if selections else 0.0
        ),
        "core.collection.stats_calls": len(by_name.get("collection.stats", ()))
        + len(by_name.get("collection.stats_many", ())),
        "core.collection.stats_cache_hit_ratio": (
            counts.get("collection.cache_hits", 0) / masks if masks else 0.0
        ),
        "core.collection.partition_calls": partitions,
        "core.collection.partition_ms": _ms(sum(durations("collection.partition"))),
        "core.kernels.scan_calls": scan_calls,
        "core.kernels.masks_scanned": counts.get("kernels.masks_scanned", 0),
        "core.kernels.scan_ms": _ms(scan_s),
        "core.kernels.candidate_scan_ms": _ms(cand_s),
        "core.kernels.bytes_swept": counts.get("kernels.bytes_swept", 0),
        "core.kernels.gbps": (
            counts.get("kernels.bytes_swept", 0) / (scan_s + cand_s) / 1e9
            if scan_s + cand_s > 0
            else 0.0
        ),
        "core.kernels.score_ms": _ms(sum(durations("kernels.score"))),
        "core.lookahead.selects": len(selects),
        "core.lookahead.self_ms": _ms(sum(self_time(s, kids) for s in selects)),
        "core.lookahead.scans_per_select": (
            scan_calls / len(selects) if selects else 0.0
        ),
        "core.lookahead.partitions_per_select": (
            partitions / len(selects) if selects else 0.0
        ),
        "loadgen.late_ms_p99": _ms(quantile(list(late_s), 0.99)),
        "trace.overhead_frac": overhead_frac,
        "trace.unaccounted_frac": (
            ledger["layers_s"].get("unaccounted", 0.0) / ledger["measured_s"]
        ),
    }
    missing = set(PER_LAYER) - set(out)
    if missing:  # pragma: no cover - guards the table above
        raise BenchError(f"per-layer metrics not computed: {sorted(missing)}")
    return out


def ledger_lines(ledger: dict, per: int, unit: str) -> list:
    """Human-readable ledger: each layer's time per ``unit`` and share."""
    measured = ledger["measured_s"]
    lines = [f"ledger: {_ms(measured) / per:.4f} ms per {unit} measured"]
    for layer, seconds in sorted(
        ledger["layers_s"].items(), key=lambda kv: -kv[1]
    ):
        lines.append(
            f"  {layer:<22} {_ms(seconds) / per:10.4f} ms/{unit} "
            f"{seconds / measured:7.1%}"
        )
    return lines
