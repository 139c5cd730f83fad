"""Shared helpers: native build, backend pin, fingerprint, statistics.

Everything here runs in the benchmark process before or after the timed
window; nothing in it is timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch output of runs (spans, result records); listed in .gitignore
OUT = ROOT / ".bench_build" / "perfbench"
NATIVE_DIR = SRC / "repro" / "core" / "kernels" / "_native"


class BenchError(RuntimeError):
    """A condition under which the benchmark must not print a result."""


def ensure_native_extension() -> None:
    """Build ``_nativeext`` in place when it is missing (never timed).

    The benchmark pins ``backend="native"``; numbers from the numpy
    fallback are not comparable, so a failed build is fatal here rather
    than a silent fallback.
    """
    if not (SRC / "repro").is_dir() or not (ROOT / "setup.py").is_file():
        raise BenchError(f"no program source under {ROOT}")
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    if (NATIVE_DIR / f"_nativeext{suffix}").is_file():
        return
    build = subprocess.run(
        [
            sys.executable,
            "setup.py",
            "-q",
            "build_ext",
            "--inplace",
            "--build-temp",
            str(ROOT / ".bench_build" / "ext"),
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=600,
    )
    if build.returncode != 0:
        raise BenchError(f"native extension build failed:\n{build.stdout}")


def import_path() -> None:
    """Make ``repro`` (from ``src``) and ``perfbench`` importable."""
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def child_env() -> dict:
    """Environment for a ``python -m repro`` child of this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def build_collection(raw):
    """A cold ``SetCollection`` over generated raw sets, pinned to native.

    The same composition as ``repro.data.synthetic.generate_collection``,
    split so that generating the inputs stays outside the timed build.
    """
    from repro.core.collection import SetCollection
    from repro.core.universe import Universe

    collection = SetCollection(
        (sorted(s) for s in raw),
        names=[f"S{i + 1}" for i in range(len(raw))],
        universe=Universe(),
        backend="native",
    )
    if collection.backend != "native":
        raise BenchError(
            f"collection resolved to backend {collection.backend!r}, "
            "not 'native'; refusing to measure a fallback backend"
        )
    return collection


# --------------------------------------------------------------------- #
# Fingerprint
# --------------------------------------------------------------------- #

#: fingerprint fields that must agree before two records are compared;
#: code identity and the measured crossovers are recorded but not compared
MACHINE_KEYS = (
    "nproc",
    "cpu_model",
    "simd_level",
    "backend",
    "shard_executor",
    "tuning_source",
    "python",
    "numpy",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_identity() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c", ".h") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def fingerprint() -> dict:
    """Machine and build facts every result record carries."""
    import numpy

    from repro.core.kernels import get_tuning, resolve_backend_name
    from repro.core.kernels._native import ext
    from repro.core.kernels.sharded import resolve_executor_name

    tuning = get_tuning()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "simd_level": ext.simd_level() if ext is not None else None,
        "backend": resolve_backend_name("native"),
        "shard_executor": resolve_executor_name(None),
        "tuning_source": tuning.source,
        "crossovers": {
            "auto_min_cells": tuning.auto_min_cells,
            "member_cost": round(tuning.member_cost, 4),
            "native_row_cost": round(tuning.native_row_cost, 4),
            "thread_min_cells": tuning.thread_min_cells,
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **_source_identity(),
    }


def machine_part(fp: dict) -> dict:
    return {k: fp.get(k) for k in MACHINE_KEYS}


def append_record(record: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of ``values`` (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


#: the load of a serving workload is read in this many equal windows (by
#: when each question was due) and the best window is reported; see
#: README.md, "Why some time metrics read the fastest part of a run"
WINDOWS = 6


def best_window(questions, t_start: float, seconds: float) -> dict:
    """Lowest p50 and p99 latency and highest questions/s over ``WINDOWS``
    equal windows of a load; ``questions`` holds ``(due, received, key)``.
    """
    width = seconds / WINDOWS
    latency: list = [[] for _ in range(WINDOWS)]
    received_in: list = [0] * WINDOWS
    for due, received, _ in questions:
        k = int((due - t_start) / width)
        latency[min(WINDOWS - 1, max(0, k))].append(received - due)
        k = int((received - t_start) / width)
        if 0 <= k < WINDOWS:
            received_in[k] += 1
    filled = [w for w in latency if w]
    return {
        "p50": min(quantile(w, 0.50) for w in filled),
        "p99": min(quantile(w, 0.99) for w in filled),
        "questions_per_s": max(received_in) / width,
    }


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_status_mb(pid: "int | str", field: str) -> float:
    """A ``/proc/<pid>/status`` memory field (``VmHWM``, ``VmRSS``) in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no {field} for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds consumed so far by ``pid``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def _discover(collection, target, examples):
    from repro.core.discovery import DiscoverySession
    from repro.core.selection import InfoGainSelector
    from repro.oracle import SimulatedUser

    session = DiscoverySession(collection, InfoGainSelector(), initial=examples)
    return session.run(SimulatedUser(collection, target_index=target))


def check_parity(collection, sessions, served: list) -> None:
    """Served transcripts must be byte-identical to sequential
    ``DiscoverySession.run`` for each ``(target, examples)``."""
    for (target, examples), transcript in zip(sessions, served):
        golden = _discover(collection, target, examples).transcript
        if transcript_bytes(transcript) != transcript_bytes(golden):
            raise BenchError(
                f"target {target}: served transcript differs from "
                "sequential DiscoverySession.run"
            )


class Replay:
    """Sequential ``DiscoverySession.run`` (InfoGain) of fixed ``(target,
    examples)`` sessions on a cleared cache: the core discovery path with
    no serving stack (``build_s`` on the serving workloads).

    Each session is timed on its own, in repeats spread over the run, and
    :attr:`seconds` sums each session's fastest time, so a slow phase of
    the host inflates only the repeats it overlaps.
    """

    def __init__(self, sessions) -> None:
        self.sessions = list(sessions)
        self.best = [float("inf")] * len(self.sessions)

    def run_once(self, collection) -> None:
        collection.clear_caches()
        for i, (target, examples) in enumerate(self.sessions):
            t0 = time.perf_counter()
            _discover(collection, target, examples)
            self.best[i] = min(self.best[i], time.perf_counter() - t0)
        collection.clear_caches()

    @property
    def seconds(self) -> float:
        return sum(self.best)


def transcript_bytes(transcript) -> bytes:
    """Canonical bytes of a transcript (objects or JSON dicts)."""
    rows = []
    for step in transcript:
        if isinstance(step, dict):
            rows.append(
                [
                    step["entity"],
                    step["answer"],
                    step["candidates_before"],
                    step["candidates_after"],
                ]
            )
        else:
            rows.append(
                [
                    step.entity,
                    step.answer,
                    step.candidates_before,
                    step.candidates_after,
                ]
            )
    return json.dumps(rows).encode()
