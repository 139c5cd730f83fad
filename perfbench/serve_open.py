"""``serve-open``: the in-process ``AsyncDiscoveryService`` under an open
loop of independent users.

Every user gives two example members of its target (the paper's
protocol) and answers with a seeded exponential think time, so candidate
masks almost never repeat: wide stacked scans and batched scoring set the
time, and latency rises with queueing before throughput stops rising.
The arrival rate is frozen (see ``RATE``); a slower program shows as
higher latency and, once a backlog grows, lower ``questions_per_s``.
"""

from __future__ import annotations

import asyncio
import ctypes
import dataclasses
import gc
import random
import time

from .common import (
    BenchError,
    build_collection,
    Replay,
    best_window,
    check_parity,
    median,
    proc_status_mb,
    quantile,
)
from .loadgen import THINK_DRAWS, open_loop_schedule

#: the collection is the workload's fixed dataset (7.5 MB packed, larger
#: than L2); the run's seed draws the traffic: arrivals, targets,
#: examples and think times
CONFIG = {
    "n_sets": 10000,
    "size_lo": 150,
    "size_hi": 180,
    "overlap": 0.9,
    "universe_size": 6000,
    "seed": 42,
}
#: sessions per second, sized once at the seed commit so the flush thread
#: was about 60% busy, then frozen (README.md, "serve-open")
RATE = 50.0
THINK_MEAN_S = 0.1
EXAMPLES = 2
SETUPS = 3
PARITY_SAMPLE = 96
#: sessions replayed sequentially for ``build_s``, drawn from a fixed
#: seed so that the replayed work is the same on every run; replayed once
#: after each set-up and twice after the load
REPLAY_SESSIONS = 96
#: a session not finished this long after the window closes is a failure
DRAIN_TIMEOUT_S = 60.0


async def _setup(raw, warm) -> "tuple[object, object, float]":
    """Collection build, kernel pack, service and one warm-up session.

    The tuning is reset first so every repetition pays the first-use
    calibration a fresh server process pays.
    """
    from repro.core.kernels import set_tuning
    from repro.core.selection import InfoGainSelector
    from repro.oracle import SimulatedUser
    from repro.serve import AsyncDiscoveryService

    set_tuning(None)
    t0 = time.perf_counter()
    collection = build_collection(raw)
    service = AsyncDiscoveryService(collection)
    key = service.spawn(InfoGainSelector(), initial=warm.examples, key="warm-up")
    oracle = SimulatedUser(collection, target_index=warm.target)
    entity = await service.ask(key)
    while entity is not None:
        service.answer(key, oracle(entity))
        entity = await service.ask(key)
    await service.result(key)
    return collection, service, time.perf_counter() - t0


async def _drive(service, collection, schedule, seconds: float, tag: str) -> dict:
    """Run the schedule; every question is timed from when it was due."""
    from repro.core.selection import InfoGainSelector
    from repro.oracle import SimulatedUser

    questions: list = []  # (due, received, key)
    late: list = []
    results: dict = {}
    errors: list = []
    t_start = time.perf_counter() + 0.05

    async def user(i: int, arrival) -> None:
        key = f"{tag}{i}"
        oracle = SimulatedUser(collection, target_index=arrival.target)
        due = t_start + arrival.at
        late.append(time.perf_counter() - due)
        try:
            service.spawn(InfoGainSelector(), initial=arrival.examples, key=key)
            entity = await service.ask(key)
            n = 0
            while entity is not None:
                received = time.perf_counter()
                questions.append((due, received, key))
                due = received + arrival.think[n % THINK_DRAWS]
                n += 1
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                late.append(time.perf_counter() - due)
                service.answer(key, oracle(entity))
                entity = await service.ask(key)
            results[i] = await service.result(key)
        except Exception as exc:  # counted in error_rate, never fatal
            errors.append(f"{key}: {exc!r}")

    rss = [proc_status_mb("self", "VmRSS")]

    async def sample_rss() -> None:
        while True:
            await asyncio.sleep(0.1)
            rss.append(proc_status_mb("self", "VmRSS"))

    sampler = asyncio.create_task(sample_rss())
    tasks = []
    for i, arrival in enumerate(schedule):
        delay = t_start + arrival.at - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(user(i, arrival)))
    done, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
    for task in (sampler, *pending):
        task.cancel()
    await asyncio.gather(sampler, *pending, return_exceptions=True)
    for task in done:
        task.result()
    window_end = t_start + seconds
    in_window = sum(1 for _, received, _ in questions if received < window_end)
    return {
        "t_start": t_start,
        "peak_rss_mb": max(rss),
        "questions": questions,
        "late": late,
        "results": results,
        "errors": errors + [f"{tag}: session timed out"] * len(pending),
        "questions_per_s": in_window / seconds,
    }


def _check_targets(schedule, results) -> int:
    """Sessions whose found set is not their user's target (or missing)."""
    wrong = 0
    for i, arrival in enumerate(schedule):
        result = results.get(i)
        if result is not None and list(result.candidates) != [arrival.target]:
            wrong += 1
    return wrong


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.data.synthetic import SyntheticConfig, generate_sets

    raw = generate_sets(SyntheticConfig(**CONFIG))
    schedule_seed = random.Random(seed).randrange(1 << 31)
    window = seconds / 2 if trace else seconds
    schedule = open_loop_schedule(
        schedule_seed, raw, RATE, window, THINK_MEAN_S, EXAMPLES
    )
    if not schedule:
        raise BenchError("--seconds too short for one arrival")
    warm = open_loop_schedule(schedule_seed + 1, raw, 1.0, 1.0, THINK_MEAN_S, EXAMPLES)[0]
    sample = sorted(
        random.Random(seed + 1).sample(
            range(len(schedule)), min(PARITY_SAMPLE, len(schedule))
        )
    )
    fixed = open_loop_schedule(0, raw, REPLAY_SESSIONS, 1.0, THINK_MEAN_S, EXAMPLES)
    replay = Replay((a.target, a.examples) for a in fixed)
    return asyncio.run(_run(raw, warm, schedule, sample, window, trace, replay))


async def _run(raw, warm, schedule, sample, window, trace, replay) -> dict:
    setup_times = []
    collection = service = None
    for _ in range(1 if trace else SETUPS):
        if service is not None:
            await service.aclose()
            collection = service = None
            gc.collect()  # free the previous copy before building the next
        collection, service, elapsed = await _setup(raw, warm)
        setup_times.append(elapsed)
        if not trace:
            replay.run_once(collection)
    _trim_heap()
    try:
        if not trace:
            busy0 = service.stats.seconds
            run_ = await _drive(service, collection, schedule, window, "u")
            run_["busy_frac"] = (service.stats.seconds - busy0) / window
            run_["best"] = best_window(run_["questions"], run_["t_start"], window)
            for _ in range(2):
                replay.run_once(collection)
            return _plain(run_, collection, schedule, sample, setup_times, replay)
        return await _traced(service, collection, schedule, window)
    finally:
        await service.aclose()


def _trim_heap() -> None:
    """Hand the memory the extra set-ups freed back to the OS, so the load
    starts from one server's footprint (glibc only; a no-op elsewhere)."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def _plain(run_, collection, schedule, sample, setup_times, replay) -> dict:
    latencies = [received - due for due, received, _ in run_["questions"]]
    wrong = _check_targets(schedule, run_["results"])
    served = [i for i in sample if i in run_["results"]]
    check_parity(
        collection,
        [(schedule[i].target, schedule[i].examples) for i in served],
        [run_["results"][i].transcript for i in served],
    )
    counts = [r.n_questions for r in run_["results"].values()]
    failed = wrong + len(run_["errors"])
    return {
        "metrics": {
            "setup_s": median(setup_times),
            "latency_p50_ms": run_["best"]["p50"] * 1e3,
            "latency_p99_ms": run_["best"]["p99"] * 1e3,
            "questions_per_s": run_["questions_per_s"],
            "questions_per_target": sum(counts) / len(schedule),
            "build_s": replay.seconds,
            "peak_rss_mb": run_["peak_rss_mb"],
        },
        "attempted": len(schedule),
        "failed": failed,
        "correct": wrong == 0,
        "samples": {
            "sessions": len(schedule),
            "questions": len(latencies),
            "whole_run_p50_ms": quantile(latencies, 0.50) * 1e3,
            "whole_run_p99_ms": quantile(latencies, 0.99) * 1e3,
            "late_ms_p99": quantile(run_["late"], 0.99) * 1e3,
            "flush_busy_frac": run_["busy_frac"],
            "errors": run_["errors"][:5],
        },
    }


async def _traced(service, collection, schedule, window) -> dict:
    from . import ledger, spans

    plain = await _drive(service, collection, schedule, window, "a")
    rec = spans.Recorder()
    spans.install(rec)
    before = dataclasses.asdict(service.stats)
    t0 = time.perf_counter()
    traced = await _drive(service, collection, schedule, window, "b")
    wall = time.perf_counter() - t0
    after = dataclasses.asdict(service.stats)
    delta = {k: after[k] - before[k] for k in after}
    ledger.check_nesting(rec.spans)
    roots = traced["questions"]
    check = ledger.question_ledger(roots, rec.spans)

    def p50(run_):
        return quantile([r - d for d, r, _ in run_["questions"]], 0.50)

    metrics = ledger.layer_metrics(
        rec.spans,
        rec.counts,
        wall_s=wall,
        ledger=check,
        overhead_frac=p50(traced) / p50(plain) - 1.0,
        engine_stats=delta,
        late_s=traced["late"],
    )
    wrong = _check_targets(schedule, plain["results"]) + _check_targets(
        schedule, traced["results"]
    )
    failed = wrong + len(plain["errors"]) + len(traced["errors"])
    return {
        "metrics": metrics,
        "attempted": 2 * len(schedule),
        "failed": failed,
        "correct": wrong == 0,
        "ledger": ledger.ledger_lines(check, len(roots), "question"),
        "spans": rec,
    }
