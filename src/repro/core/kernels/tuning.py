"""First-use micro-calibration of the kernel routing constants.

Backend routing used to rest on two magic numbers: ``AUTO_MIN_CELLS`` (the
bit-matrix size above which ``backend="auto"`` switches from the big-int
reference to the vectorized kernel) and the ``member_cost``/``row_cost``
units of the stacked-scan cost model (set-major CSR gather vs bit-matrix
row pass, :mod:`repro.core.kernels.numpy_backend`).  Both are machine
dependent: the crossover moves with NumPy's fixed per-call overhead and the
gather/popcount throughput ratio moves with cache sizes.

This module replaces them with a :class:`KernelTuning` measured once per
process.  On the first :func:`get_tuning` call a ~tens-of-milliseconds
micro-benchmark times the same deterministic synthetic workload through
both backends and through both stacked-scan strategies, derives the
crossover and the cost units, and caches the result for the lifetime of
the process (build a thousand collections, calibrate once).

Calibration only ever changes *routing*, never results — every path is
exact (see the parity contract in :mod:`repro.core.kernels.base`), which is
what makes measuring instead of hard-coding safe.  Set ``REPRO_TUNING=off``
to skip measurement and use the legacy constants (useful for perfectly
reproducible benchmark baselines); :func:`set_tuning` overrides the values
explicitly (the randomized parity harness forces each strategy this way).
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable

#: Environment variable controlling calibration: ``auto`` (default,
#: measure on first use) or ``off`` (use :data:`DEFAULT_TUNING`).
TUNING_ENV_VAR = "REPRO_TUNING"

#: Legacy fixed crossover: bit-matrix cells below which ``auto`` keeps the
#: big-int backend.  Used verbatim when calibration is off or numpy is
#: missing, and re-exported as ``kernels.AUTO_MIN_CELLS`` for callers that
#: want the uncalibrated default.
DEFAULT_AUTO_MIN_CELLS = 1 << 15

#: Legacy stacked-scan cost units (in "row-pass elements"): the set-major
#: gather pays ``member_cost`` per membership of the selected sets, a row
#: pass pays ``row_cost`` per (candidate row, nonzero mask word) element.
DEFAULT_MEMBER_COST = 2.0
DEFAULT_ROW_COST = 1.0

#: Uncalibrated cost of one *native* row-pass element relative to a numpy
#: row-pass element (the fused C sweep skips numpy's temporaries, so its
#: per-element cost is a fraction of the ufunc pipeline's).  Scales the
#: ``row_cost`` term in :meth:`NativeKernel._set_major_wins`, moving the
#: CSR-gather crossover toward smaller masks.
DEFAULT_NATIVE_ROW_COST = 0.4

#: Total collection membership below which the single-mask scan never
#: builds the set-major CSR mirror: on tiny collections the member-union
#: walk is already free and the mirror build is pure overhead.
CSR_MIN_MEMBERSHIP = 4096

#: Calibrated ``auto_min_cells`` is clamped into this range so that a noisy
#: measurement can neither route toy collections (``tests`` worked
#: examples) to numpy nor keep genuinely large matrices on the reference
#: backend.
AUTO_MIN_CELLS_CLAMP = (1 << 12, 1 << 20)

#: Clamp for the calibrated member/row unit-cost ratio.
MEMBER_COST_CLAMP = (0.25, 16.0)

#: Clamp for the calibrated native/numpy row unit-cost ratio.  The bottom
#: guards against a degenerate timing claiming a free scan; the top
#: allows ratios above 1.0 because a compiler without a hardware-popcount
#: path (e.g. MSVC on non-x64 targets falls back to the software
#: popcount) can genuinely produce a native pass slower than numpy's
#: SIMD pipeline — calibration must be able to say so and push the
#: CSR-gather crossover the other way.
NATIVE_ROW_COST_CLAMP = (1.0 / 64.0, 8.0)


@dataclass(frozen=True)
class KernelTuning:
    """Routing constants consumed by ``make_kernel`` and the numpy kernel.

    ``source`` records where the values came from (``default``,
    ``calibrated`` or ``override``) — surfaced in benchmark reports so a
    perf trajectory can tell tuned runs from fallback runs.
    """

    auto_min_cells: int = DEFAULT_AUTO_MIN_CELLS
    member_cost: float = DEFAULT_MEMBER_COST
    row_cost: float = DEFAULT_ROW_COST
    native_row_cost: float = DEFAULT_NATIVE_ROW_COST
    source: str = "default"

    #: Routes nothing; a class attribute the benchmark fingerprint records.
    thread_min_cells = 1 << 18


#: The uncalibrated fallback (legacy magic numbers).
DEFAULT_TUNING = KernelTuning()

_lock = threading.Lock()
_tuning: KernelTuning | None = None


def get_tuning() -> KernelTuning:
    """The process-wide tuning, calibrating on first use unless disabled."""
    global _tuning
    if _tuning is not None:
        return _tuning
    with _lock:
        if _tuning is None:
            mode = (os.environ.get(TUNING_ENV_VAR, "auto") or "auto").lower()
            if mode in ("off", "default", "0", "false", "no"):
                _tuning = DEFAULT_TUNING
            else:
                _tuning = calibrate()
    return _tuning


def set_tuning(tuning: KernelTuning | None) -> None:
    """Install an explicit tuning, or reset to uncalibrated with ``None``.

    Resetting makes the next :func:`get_tuning` call re-consult the
    environment (and re-calibrate when enabled).
    """
    global _tuning
    with _lock:
        _tuning = (
            replace(tuning, source="override") if tuning is not None else None
        )


def _avg_seconds(fn: Callable[[], object], min_seconds: float = 0.002) -> float:
    """Average per-call seconds of ``fn``, repeated until measurable.

    Micro-ops here run in microseconds; accumulating at least
    ``min_seconds`` keeps the estimate above timer resolution without
    letting the whole calibration exceed a few tens of milliseconds.
    """
    fn()  # warm-up: JIT-free but primes caches and lazy structures
    calls = 0
    total = 0.0
    while total < min_seconds:
        start = time.perf_counter()
        fn()
        total += time.perf_counter() - start
        calls += 1
        if calls >= 64:  # pathological timer/fn: bail with what we have
            break
    return total / max(calls, 1)


def _synthetic_index(
    n_sets: int, n_entities: int, set_size: int, seed: int = 0xC0FFEE
) -> tuple[tuple[frozenset[int], ...], dict[int, int]]:
    """A deterministic random inverted index for the micro-benchmark."""
    rng = random.Random(seed)
    sets: list[frozenset[int]] = []
    entity_masks = {e: 0 for e in range(n_entities)}
    for idx in range(n_sets):
        members = rng.sample(range(n_entities), set_size)
        sets.append(frozenset(members))
        for e in members:
            entity_masks[e] |= 1 << idx
    return tuple(sets), entity_masks


def calibrate() -> KernelTuning:
    """Measure the routing constants on this machine (one-off, ~tens of ms).

    Without numpy there is nothing to route between, so the defaults are
    returned unchanged.
    """
    from .bigint import BigIntKernel
    from .numpy_backend import HAS_NUMPY, NumpyKernel

    if not HAS_NUMPY:
        return DEFAULT_TUNING

    # -- full-scan throughput of both backends at a mid-size matrix ------ #
    n_sets, n_entities, set_size = 192, 192, 12
    sets, masks = _synthetic_index(n_sets, n_entities, set_size)
    full = (1 << n_sets) - 1
    big = BigIntKernel(sets, masks, n_sets)
    vec = NumpyKernel(sets, masks, n_sets, tuning=DEFAULT_TUNING)
    cells = n_sets * n_entities
    t_big = _avg_seconds(lambda: big.scan_informative(full, n_sets, None))
    t_vec = _avg_seconds(lambda: vec.scan_informative(full, n_sets, None))

    # -- numpy fixed per-call overhead from a tiny matrix ---------------- #
    s_sets, s_masks = _synthetic_index(16, 32, 4, seed=0xBEEF)
    s_full = (1 << 16) - 1
    s_vec = NumpyKernel(s_sets, s_masks, 16, tuning=DEFAULT_TUNING)
    t_overhead = _avg_seconds(lambda: s_vec.scan_informative(s_full, 16, None))

    # Solve ``big_rate * cells == overhead + vec_rate * cells`` for the
    # matrix size where vectorization starts winning.
    big_rate = t_big / cells
    vec_rate = max((t_vec - t_overhead) / cells, 0.0)
    if big_rate > vec_rate and t_overhead > 0.0:
        crossover = int(t_overhead / (big_rate - vec_rate))
    else:  # pragma: no cover - degenerate timing; keep the legacy constant
        crossover = DEFAULT_AUTO_MIN_CELLS
    lo, hi = AUTO_MIN_CELLS_CLAMP
    auto_min_cells = min(max(crossover, lo), hi)

    # -- set-major gather vs row-pass unit costs ------------------------- #
    # Unit of the row pass: one (candidate row, word) AND+popcount element.
    # Both micro-workloads are small enough that NumPy's fixed per-call
    # overhead would dominate a naive division and bias the ratio toward
    # whichever side touches fewer elements; subtract the measured
    # overhead so the units reflect *marginal* throughput.
    row_unit = max(t_vec - t_overhead, 1e-9) / (n_entities * vec._n_words)
    small_mask = (1 << 32) - 1  # 32 sets: firmly membership-bound
    vec._ensure_set_rows()
    memberships = sum(len(sets[i]) for i in range(32))
    t_member = _avg_seconds(
        lambda: vec._counts_by_members(small_mask, vec._words_of(small_mask))
    )
    member_unit = max(t_member - t_overhead, 1e-9) / max(memberships, 1)
    lo_m, hi_m = MEMBER_COST_CLAMP
    member_cost = min(max(member_unit / max(row_unit, 1e-12), lo_m), hi_m)

    # -- native crossover: fused C sweep vs the numpy row pass ----------- #
    # Measured on the same mid-size full scan so the ratio captures the
    # marginal per-element cost; routing-only, like everything here.
    native_row_cost = DEFAULT_NATIVE_ROW_COST
    from .native_backend import HAS_NATIVE, NativeKernel

    if HAS_NATIVE:
        nat = NativeKernel(sets, masks, n_sets, tuning=DEFAULT_TUNING)
        t_nat = _avg_seconds(
            lambda: nat.scan_informative(full, n_sets, None)
        )
        native_unit = max(t_nat - t_overhead, 1e-9) / (
            n_entities * nat._n_words
        )
        lo_n, hi_n = NATIVE_ROW_COST_CLAMP
        native_row_cost = min(
            max(native_unit / max(row_unit, 1e-12), lo_n), hi_n
        )

    return KernelTuning(
        auto_min_cells=auto_min_cells,
        member_cost=member_cost,
        row_cost=DEFAULT_ROW_COST,
        native_row_cost=native_row_cost,
        source="calibrated",
    )
