"""``tree-build``: offline Algorithm 3 with the paper's 3-LPLE selector.

Each build constructs the full decision tree (k=3, q=10, AD) over a
collection rebuilt cold from its raw sets, so no informative-stats or
lookahead cache survives between builds.  The run cycles through
``COLLECTIONS`` seeded collections so that one unusual collection cannot
set a run's figures; ``questions_per_target`` is the mean average depth
over them, which is fixed by the seed.
"""

from __future__ import annotations

import random
import time

from .common import (
    BenchError,
    build_collection,
    median,
    quantile,
    self_peak_rss_mb,
)

#: 2000 sets keeps the paper's set sizes and overlap while fitting about
#: twenty builds in a 30 s run (5000 sets took 8-12.5 s per build on 2 vCPUs)
CONFIG = {"n_sets": 2000, "size_lo": 50, "size_hi": 60, "overlap": 0.9}
COLLECTIONS = 4


class TimedSelector:
    """Delegates to the real selector and stamps each select's start.

    ``build_tree`` calls ``select`` once per internal node, so the time
    from one select's start to the next (or to the end of the build) is
    the time that node's question took: its selection plus the partition
    and child-candidate scan that follow it.
    """

    def __init__(self, selector) -> None:
        self.selector = selector
        self.starts: list = []

    def select(self, collection, mask, candidates=None, exclude=frozenset()):
        self.starts.append(time.perf_counter())
        return self.selector.select(collection, mask, candidates, exclude)


def make_inputs(seed: int) -> list:
    from repro.data.synthetic import SyntheticConfig, generate_sets

    rng = random.Random(seed)
    return [
        generate_sets(SyntheticConfig(**CONFIG, seed=rng.randrange(1 << 31)))
        for _ in range(COLLECTIONS)
    ]


def _phase(inputs, seconds: float) -> dict:
    """Build trees until ``seconds`` pass (every collection at least once)."""
    from repro.core import construction
    from repro.core.bounds import AD
    from repro.core.lookahead import KLPSelector

    out = {"setup": [], "build": [], "node": [], "ad": {}, "failed": 0}
    start = time.perf_counter()
    i = 0
    while i < len(inputs) or time.perf_counter() - start < seconds:
        j = i % len(inputs)
        t0 = time.perf_counter()
        collection = build_collection(inputs[j])
        t1 = time.perf_counter()
        selector = TimedSelector(KLPSelector(k=3, q=10, metric=AD))
        tree = construction.build_tree(collection, selector)
        t2 = time.perf_counter()
        stamps = selector.starts + [t2]
        out["node"].append([b - a for a, b in zip(stamps, stamps[1:])])
        out["setup"].append(t1 - t0)
        out["build"].append(t2 - t1)
        try:
            tree.validate(collection)
        except (ValueError, AssertionError):
            out["failed"] += 1
        ad = tree.average_depth()
        if out["ad"].setdefault(j, ad) != ad:
            raise BenchError(f"collection {j} built trees of different AD")
        i += 1
    return out


def _end_to_end(res: dict) -> dict:
    """Time metrics come from the fastest quarter of each collection's
    builds.

    The baseline host alternates, seconds at a time, between speed levels
    about 1.5x apart (the same build took 0.33 s in one phase and 0.50 s
    in the next); a whole-run median follows the phase mix, the fastest
    quarter follows the program.
    """
    best = []
    for j in range(COLLECTIONS):  # the same share of every collection
        own = sorted(
            range(j, len(res["build"]), COLLECTIONS), key=res["build"].__getitem__
        )
        best += own[: -(-len(own) // 4)]  # a quarter, rounded up
    nodes = [t for i in best for t in res["node"][i]]
    per_question = [res["build"][i] / len(res["node"][i]) for i in best]
    return {
        "setup_s": median(res["setup"]),
        "latency_p50_ms": median(per_question) * 1e3,
        "latency_p99_ms": quantile(nodes, 0.99) * 1e3,
        "questions_per_s": len(nodes) / sum(res["build"][i] for i in best),
        "questions_per_target": sum(res["ad"].values()) / len(res["ad"]),
        "build_s": median([res["build"][i] for i in best]),
        "peak_rss_mb": self_peak_rss_mb(),
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    inputs = make_inputs(seed)
    if not trace:
        res = _phase(inputs, seconds)
        return {
            "metrics": _end_to_end(res),
            "attempted": len(res["build"]),
            "failed": res["failed"],
            "correct": res["failed"] == 0,
            "samples": {
                "builds": len(res["build"]),
                "build_s_all": [round(b, 4) for b in res["build"]],
            },
        }

    from . import ledger, spans

    plain = _phase(inputs, seconds / 2)
    rec = spans.Recorder()
    spans.install(rec)
    traced = _phase(inputs, seconds / 2)
    check = ledger.build_ledger(rec.spans, sum(traced["build"]))
    ledger.check_nesting(rec.spans)
    overhead = median(traced["build"]) / median(plain["build"]) - 1.0
    metrics = ledger.layer_metrics(
        rec.spans,
        rec.counts,
        wall_s=sum(traced["build"]),
        ledger=check,
        overhead_frac=overhead,
    )
    failed = plain["failed"] + traced["failed"]
    return {
        "metrics": metrics,
        "attempted": len(plain["build"]) + len(traced["build"]),
        "failed": failed,
        "correct": failed == 0,
        "ledger": ledger.ledger_lines(check, len(traced["build"]), "build"),
        "spans": rec,
    }
