"""Explicit word-boundary tests for the packed bit-matrix kernels.

The numpy and sharded backends pack set masks into 64-bit words; the
boundary cases — collections of *exactly* 64 and 128 sets (no partial tail
word), masks whose tail words are all zero, and masks with stray bits
above ``n_sets`` — were previously only reachable by chance through the
randomized suites.  These tests pin them down directly; the stray-bit case
memorialises a real divergence they flushed out (``member_union`` on the
big-int backend crashed on bits above ``n_sets`` while the numpy packing
silently dropped them).
"""

from __future__ import annotations

import random

import pytest

from repro.core.collection import SetCollection
from repro.core.kernels import HAS_NATIVE, HAS_NUMPY

#: (backend, shards, shard_executor) triples covering every kernel family
#: and both shard executors (``None`` is the default thread pool).
BACKENDS = [("bigint", None, None), ("bigint", 3, None)]
if HAS_NUMPY:
    BACKENDS += [("numpy", None, None), ("numpy", 4, None), ("numpy", 3, "serial")]
if HAS_NATIVE:
    BACKENDS += [("native", None, None), ("native", 4, None)]


def build(raw, backend, shards, executor) -> SetCollection:
    return SetCollection(
        raw, backend=backend, shards=shards, shard_executor=executor
    )


def exact_word_collection(n_sets: int, seed: int = 0) -> list[list[int]]:
    """``n_sets`` unique random sets over a small, tie-prone universe."""
    rng = random.Random(seed)
    universe = 30
    seen: set[frozenset[int]] = set()
    out: list[list[int]] = []
    while len(out) < n_sets:
        fs = frozenset(rng.sample(range(universe), rng.randint(2, 12)))
        if fs in seen:
            continue
        seen.add(fs)
        out.append(sorted(fs))
    return out


def reference(raw) -> SetCollection:
    return SetCollection(raw, backend="bigint")


@pytest.mark.parametrize(
    "n_sets", [63, 64, 65, 127, 128, 129, 255, 256, 257]
)
@pytest.mark.parametrize("backend,shards,executor", BACKENDS)
def test_exact_word_multiples(n_sets, backend, shards, executor):
    raw = exact_word_collection(n_sets, seed=n_sets)
    ref = reference(raw)
    coll = build(raw, backend, shards, executor)
    eids = list(range(-1, ref.n_entities + 2))
    # the highest set's bit lives at the very edge of the last word
    masks = [
        ref.full_mask,
        (1 << (n_sets - 1)) | 1,
        ref.full_mask & ~1,
        (1 << (n_sets - 1)) | (1 << (n_sets - 2)),
    ]
    for mask in masks:
        assert coll.informative_entities(mask) == ref.informative_entities(
            mask
        )
        assert coll.positive_counts(mask, eids) == ref.positive_counts(
            mask, eids
        )
        assert coll.partition_many(mask, eids) == ref.partition_many(
            mask, eids
        )


@pytest.mark.parametrize("backend,shards,executor", BACKENDS)
def test_all_zero_tail_words(backend, shards, executor):
    # 130 sets (3 words) but the probed masks select only word-0 sets, so
    # words 1-2 of the packed mask are entirely zero.
    raw = exact_word_collection(130, seed=9)
    ref = reference(raw)
    coll = build(raw, backend, shards, executor)
    word0 = (1 << 40) - 1
    masks = [word0, (1 << 63) | 1, 0b1010101]
    for mask in masks:
        assert coll.informative_entities(mask) == ref.informative_entities(
            mask
        )
        stats = coll.informative_stats(mask)
        assert all(0 < int(c) < mask.bit_count() for c in stats[1])


@pytest.mark.parametrize("backend,shards,executor", BACKENDS)
def test_tail_only_masks(backend, shards, executor):
    # The complementary case: word 0 of the packed mask entirely zero.
    raw = exact_word_collection(130, seed=11)
    ref = reference(raw)
    coll = build(raw, backend, shards, executor)
    tail_only = ref.full_mask & ~((1 << 64) - 1)
    assert coll.informative_entities(tail_only) == ref.informative_entities(
        tail_only
    )


@pytest.mark.parametrize("backend,shards,executor", BACKENDS)
def test_stray_bits_above_n_sets_scan(backend, shards, executor):
    # Regression: member_union (the small-mask scan path) used to index
    # out of range on mask bits >= n_sets on the big-int backend, while
    # the numpy packing dropped them — backends must agree instead.
    raw = exact_word_collection(65, seed=5)
    ref = reference(raw)
    coll = build(raw, backend, shards, executor)
    stray = ref.full_mask | (1 << 80) | (1 << 130)
    small_stray = 0b11 | (1 << 90)
    for mask in (stray, small_stray):
        assert coll.informative_entities(mask) == ref.informative_entities(
            mask
        )
        assert coll.entities_in(mask) == ref.entities_in(mask)


@pytest.mark.parametrize("backend,shards,executor", BACKENDS)
def test_single_set_and_empty_masks(backend, shards, executor):
    raw = exact_word_collection(64, seed=3)
    coll = build(raw, backend, shards, executor)
    assert coll.informative_entities(1 << 63) == []
    assert coll.informative_entities(0) == []
    assert coll.positive_counts(0, [0, 1, 2]) == [0, 0, 0]
