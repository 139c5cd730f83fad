"""Sharded-scan benchmark: worker-pool column shards vs the single kernel.

Simulates the stacked informative scan of one multi-session engine tick —
N concurrent session masks over one large collection — and times it
through :class:`ShardedKernel` with K set-range shards on the thread pool,
one leg per base the box supports:

* ``sharded`` — numpy sub-kernels (always available);
* ``native-pool`` — native sub-kernels (requires the compiled extension).

Each leg's ``speedup`` divides the *unsharded kernel of the same base*
(``unsharded-numpy``, ``unsharded-native``) by the leg, so it measures
sharding alone, not the backend.  Every leg's results are asserted
bit-identical to the unsharded numpy kernel before anything is timed
(parity is the contract, throughput is the product).

Writes ``benchmarks/out/BENCH_shards.json`` — CI uploads it with the other
``BENCH_*.json`` artifacts and the perf trajectory picks up its
``speedup`` figures — and the pytest wrapper gates the minimum numpy
thread-pool speedup, skipping on a single core.  Timing hygiene: every
kernel is warmed up (lazy CSR mirrors, pool spawn, tuning calibration)
before its first timed repetition, and CI pins ``OMP_NUM_THREADS=1`` so
NumPy's own thread pool cannot fight the shard workers.  Run standalone via ``python benchmarks/bench_shards.py`` or as
part of ``pytest benchmarks/``.  Scale knobs (environment):

* ``REPRO_SHARDS_BENCH_SESSIONS`` — concurrent session masks (default 256)
* ``REPRO_SHARDS_BENCH_SETS`` — sets in the collection (default 100000)
* ``REPRO_SHARDS_BENCH_UNIVERSE`` — entity universe size (default 2000)
* ``REPRO_SHARDS_BENCH_SHARDS`` — shard count (default 4)
* ``REPRO_SHARDS_BENCH_REPEAT`` — timing repetitions, best-of (default 3)
* ``REPRO_SHARDS_BENCH_MIN_SPEEDUP`` — asserted sharded speedup (default 2)
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.core.bitmask import popcount
from repro.core.collection import SetCollection
from repro.core.kernels import HAS_NATIVE, HAS_NUMPY, get_tuning, make_kernel
from repro.core.universe import Universe
from repro.data.synthetic import SyntheticConfig, generate_sets

_OUT_PATH = Path(__file__).parent / "out" / "BENCH_shards.json"


def _bench_config() -> dict:
    return {
        "n_sessions": int(os.environ.get("REPRO_SHARDS_BENCH_SESSIONS", "256")),
        "n_sets": int(os.environ.get("REPRO_SHARDS_BENCH_SETS", "100000")),
        "universe_size": int(
            os.environ.get("REPRO_SHARDS_BENCH_UNIVERSE", "2000")
        ),
        "shards": int(os.environ.get("REPRO_SHARDS_BENCH_SHARDS", "4")),
        "repeat": int(os.environ.get("REPRO_SHARDS_BENCH_REPEAT", "3")),
        "size_lo": 50,
        "size_hi": 60,
        "overlap": 0.9,
        "seed": 7,
    }


def _build_collection(cfg: dict) -> SetCollection:
    raw = generate_sets(
        SyntheticConfig(
            n_sets=cfg["n_sets"],
            size_lo=cfg["size_lo"],
            size_hi=cfg["size_hi"],
            overlap=cfg["overlap"],
            universe_size=cfg["universe_size"],
            seed=cfg["seed"],
        )
    )
    return SetCollection(
        (sorted(s) for s in raw), universe=Universe(), backend="numpy"
    )


def _session_masks(collection: SetCollection, cfg: dict) -> list[int]:
    """One engine tick's worth of masks: sessions at mixed depths.

    Each mask is the full collection narrowed by 0-3 random membership
    answers — the same wide-root / deep-tail mix a live tick stacks.
    """
    rng = random.Random(13)
    eids = list(collection.entity_ids())
    masks = []
    for _ in range(cfg["n_sessions"]):
        mask = collection.full_mask
        for _ in range(rng.randint(0, 3)):
            em = collection.entity_mask(rng.choice(eids))
            narrowed = mask & em if rng.random() < 0.5 else mask & ~em
            if popcount(narrowed) >= 2:
                mask = narrowed
        masks.append(mask)
    return masks


def _scan(kernel, masks: list[int], ns: list[int]):
    return kernel.scan_informative_many(masks, ns)


def _assert_parity(a, b) -> None:
    for (ea, ca), (eb, cb) in zip(a, b):
        assert list(map(int, ea)) == list(map(int, eb)), (
            "sharded scan returned different entities — parity violation"
        )
        assert list(map(int, ca)) == list(map(int, cb)), (
            "sharded scan returned different counts — parity violation"
        )


def _leg_plan() -> list[tuple[str, str]]:
    """The ``(leg_name, base)`` pairs this box supports."""
    legs = [("sharded", "numpy")]
    if HAS_NATIVE:
        legs.append(("native-pool", "native"))
    return legs


def _best_of(kernel, masks: list[int], ns: list[int], repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        _scan(kernel, masks, ns)
        best = min(best, time.perf_counter() - start)
    return best


def run_shards_comparison(out_path: Path = _OUT_PATH) -> dict:
    """Time each base unsharded and sharded; write BENCH_shards.json."""
    cfg = _bench_config()
    collection = _build_collection(cfg)
    masks = _session_masks(collection, cfg)
    ns = [popcount(m) for m in masks]

    # Warm-up before any timing: builds the lazy CSR mirror and triggers
    # first-use tuning calibration — neither belongs in the steady state —
    # and yields the parity reference every other kernel is held to.
    reference = _scan(collection.kernel, masks, ns)

    # Per base: the unsharded kernel, then the sharded one, each built,
    # warmed (pool spawn), parity-checked, timed and closed before the
    # next starts, so pools never overlap.
    legs = _leg_plan()
    best: dict[str, float] = {}
    speedup: dict[str, float] = {}
    for leg, base in legs:
        for name, shards in ((f"unsharded-{base}", None), (leg, cfg["shards"])):
            kernel = make_kernel(
                base,
                collection._sets,
                collection._entity_masks,
                len(collection._sets),
                shards=shards,
            )
            try:
                _assert_parity(reference, _scan(kernel, masks, ns))
                best[name] = _best_of(kernel, masks, ns, cfg["repeat"])
            finally:
                if hasattr(kernel, "close"):
                    kernel.close()
        speedup[leg] = best[f"unsharded-{base}"] / max(best[leg], 1e-12)

    report = {
        "bench": "shards-stacked-scan",
        "config": cfg,
        "legs": {
            leg: {"base": base, "baseline": f"unsharded-{base}"}
            for leg, base in legs
        },
        "cpu_count": os.cpu_count(),
        "tuning_source": get_tuning().source,
        "results": {
            name: {
                "seconds": best[name],
                "masks_per_s": len(masks) / best[name],
            }
            for name in best
        },
        "speedup": speedup,
    }
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend unavailable")
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="sharded speedup needs >1 core; parity is tested in tier-1",
)
def test_sharded_scan_speedup():
    report = run_shards_comparison()
    min_speedup = float(
        os.environ.get("REPRO_SHARDS_BENCH_MIN_SPEEDUP", "2")
    )
    assert report["speedup"]["sharded"] >= min_speedup, (
        f"sharded scan only {report['speedup']['sharded']:.2f}x faster "
        f"than the single kernel (required {min_speedup:.1f}x): "
        f"{json.dumps(report, indent=2)}"
    )


def main() -> None:
    report = run_shards_comparison()
    print(json.dumps(report, indent=2))
    print(f"written to {_OUT_PATH}")


if __name__ == "__main__":
    main()
