"""``wire``: ``python -m repro serve`` driven over real loopback sockets.

One load process, two closed-loop streams (as many as this box has
cores): one HTTP long-poll client on a keep-alive connection and one
WebSocket client (a connection per session, as the protocol requires).
Each runs InfoGain sessions back to back with no initial examples and no
think time.  Flushes are only one or two requests wide and the matrix
fits in cache, so edge parsing, JSON, framing and the event-loop hop
decide the time.
"""

from __future__ import annotations

import asyncio
import re
import signal
import subprocess
import sys
import time

from .common import (
    OUT,
    ROOT,
    BenchError,
    build_collection,
    child_env,
    Replay,
    best_window,
    check_parity,
    median,
    proc_cpu_s,
    proc_status_mb,
    quantile,
)
from .loadgen import target_lists

#: the CLI's synthetic defaults, passed explicitly so the benchmark's
#: replica (oracles, parity) matches the server's collection exactly; the
#: run's seed draws only the targets each stream discovers
SERVER = {"n_sets": 2000, "size_lo": 30, "size_hi": 40, "overlap": 0.85, "seed": 42}
SETUPS = 3
STREAMS = ("http", "ws")
TARGETS_PER_STREAM = 500
#: the first sessions of each stream: questions_per_target and parity
FIXED_SESSIONS = 40
#: targets replayed sequentially for ``build_s``, drawn from a fixed seed
#: so that the replayed work is the same on every run; replayed twice
#: before the load and three times after it
REPLAY_SESSIONS = 200
SESSION_TIMEOUT_S = 30.0
_READY = re.compile(r"^serving on http://([\d.]+):(\d+)$")


class Server:
    """A server child; ``startup_s`` runs from spawn to readiness line."""

    def __init__(self, command: list) -> None:
        self.command = command
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0
        self.startup_s = 0.0

    def start(self, timeout_s: float = 60.0) -> "Server":
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        assert self.proc.stdout is not None
        while True:
            line = self.proc.stdout.readline()
            if match := _READY.match(line.strip()):
                self.startup_s = time.perf_counter() - t0
                self.host, self.port = match.group(1), int(match.group(2))
                return self
            if (not line and self.proc.poll() is not None) or (
                time.perf_counter() - t0 > timeout_s
            ):
                self.stop()
                raise BenchError(f"server never became ready: {line!r}")

    def stop(self, timeout_s: float = 30.0) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.proc = None


def _serve_args() -> list:
    return [
        "serve",
        "--port",
        "0",
        "--n-sets",
        str(SERVER["n_sets"]),
        "--size-lo",
        str(SERVER["size_lo"]),
        "--size-hi",
        str(SERVER["size_hi"]),
        "--overlap",
        str(SERVER["overlap"]),
        "--seed",
        str(SERVER["seed"]),
        "--backend",
        "native",
    ]


async def _healthz(server: Server) -> dict:
    from repro.serve.client import HttpConnection

    async with HttpConnection(server.host, server.port) as conn:
        status, body = await conn.request("GET", "/healthz")
    if status != 200 or not isinstance(body, dict):
        raise BenchError(f"/healthz answered {status}: {body!r}")
    return body


async def _http_session(client, oracle, questions: list, late: list) -> dict:
    due = time.perf_counter()
    await client.create(selector="infogain")
    entity = await client.next_question()
    while entity is not None:
        received = time.perf_counter()
        questions.append((due, received, client.session))
        due = received
        value = oracle(entity)
        late.append(time.perf_counter() - due)
        await client.send_answer(value)
        entity = await client.next_question()
    return await client.result()


async def _ws_session(server: Server, oracle, questions: list, late: list) -> dict:
    from repro.serve.client import WsSessionClient

    due = time.perf_counter()
    async with WsSessionClient(server.host, server.port) as ws:
        await ws.create(selector="infogain")
        while True:
            message = await ws.receive_json()
            if message is None:
                raise ConnectionError("server closed before the result")
            kind = message.get("type")
            if kind == "question":
                received = time.perf_counter()
                questions.append((due, received, ws.session))
                due = received
                value = oracle(message["entity"])
                late.append(time.perf_counter() - due)
                await ws.send_json({"type": "answer", "value": value})
            elif kind == "result":
                return message
            else:
                raise RuntimeError(f"server error: {message!r}")


async def _stream(kind, server, replica, targets, deadline, out) -> None:
    """Sessions back to back until the deadline (and ``FIXED_SESSIONS``)."""
    from repro.oracle import SimulatedUser
    from repro.serve.client import HttpSessionClient

    client = None
    i = 0
    while i < FIXED_SESSIONS or time.perf_counter() < deadline:
        target = targets[i % len(targets)]
        oracle = SimulatedUser(replica, target_index=target)
        try:
            if kind == "http":
                if client is None:
                    client = HttpSessionClient(server.host, server.port)
                    await client.conn.connect()
                coro = _http_session(client, oracle, out["questions"], out["late"])
            else:
                coro = _ws_session(server, oracle, out["questions"], out["late"])
            payload = await asyncio.wait_for(coro, SESSION_TIMEOUT_S)
        except (
            OSError, EOFError, KeyError, RuntimeError, ValueError,
            asyncio.TimeoutError,
        ) as exc:
            out["errors"].append(f"{kind} session {i}: {exc!r}")
            if client is not None:
                await client.conn.aclose()
                client = None
        else:
            out["sessions"].append((kind, i, target, payload))
        i += 1
    if client is not None:
        await client.conn.aclose()


async def _load(server, replica, lists, seconds: float) -> dict:
    out = {"questions": [], "late": [], "errors": [], "sessions": []}
    t0 = time.perf_counter()
    deadline = t0 + seconds
    await asyncio.gather(
        *(
            _stream(kind, server, replica, targets, deadline, out)
            for kind, targets in zip(STREAMS, lists)
        )
    )
    out["t_start"] = t0
    out["elapsed"] = time.perf_counter() - t0
    return out


def _measure(server, replica, lists, seconds: float) -> dict:
    health = asyncio.run(_healthz(server))
    if health.get("backend") != "native":
        raise BenchError(f"server runs backend {health.get('backend')!r}, not native")
    cpu0 = proc_cpu_s(server.proc.pid)
    out = asyncio.run(_load(server, replica, lists, seconds))
    out["server_cpu_s"] = proc_cpu_s(server.proc.pid) - cpu0
    out["server_rss_mb"] = proc_status_mb(server.proc.pid, "VmHWM")
    return out


def _check(out: dict) -> "tuple[int, list]":
    """Wrong targets, and the fixed sessions (for parity and the objective)."""
    wrong = 0
    fixed = []
    for kind, i, target, payload in out["sessions"]:
        if payload.get("candidates") != [target] or not payload.get("resolved"):
            wrong += 1
        if i < FIXED_SESSIONS:
            fixed.append((target, payload))
    return wrong, fixed


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.data.synthetic import SyntheticConfig, generate_sets

    lists = target_lists(seed, SERVER["n_sets"], len(STREAMS), TARGETS_PER_STREAM)
    replica = build_collection(generate_sets(SyntheticConfig(**SERVER)))
    command = [sys.executable, "-m", "repro", *_serve_args()]
    if trace:
        return _traced(command, replica, lists, seconds)

    replayed = target_lists(0, SERVER["n_sets"], 1, REPLAY_SESSIONS)[0]
    replay = Replay((target, ()) for target in replayed)
    servers = []
    try:
        for _ in range(SETUPS):
            servers.append(Server(command).start())
        for extra in servers[:-1]:
            extra.stop()
        for _ in range(2):
            replay.run_once(replica)
        out = _measure(servers[-1], replica, lists, seconds)
    finally:
        for server in servers:
            server.stop()
    wrong, fixed = _check(out)
    if not fixed:
        raise BenchError("no fixed session completed")
    check_parity(
        replica,
        [(target, ()) for target, _ in fixed],
        [payload["transcript"] for _, payload in fixed],
    )
    for _ in range(3):
        replay.run_once(replica)
    latencies = [r - d for d, r, _ in out["questions"]]
    attempted = len(out["sessions"]) + len(out["errors"])
    best = best_window(out["questions"], out["t_start"], seconds)
    return {
        "metrics": {
            "setup_s": median([s.startup_s for s in servers]),
            "latency_p50_ms": best["p50"] * 1e3,
            "latency_p99_ms": best["p99"] * 1e3,
            "questions_per_s": best["questions_per_s"],
            "questions_per_target": sum(len(p["transcript"]) for _, p in fixed)
            / len(fixed),
            "build_s": replay.seconds,
            "peak_rss_mb": out["server_rss_mb"],
        },
        "attempted": attempted,
        "failed": wrong + len(out["errors"]),
        "correct": wrong == 0,
        "samples": {
            "sessions": attempted,
            "questions": len(latencies),
            "whole_run_p50_ms": quantile(latencies, 0.50) * 1e3,
            "whole_run_p99_ms": quantile(latencies, 0.99) * 1e3,
            "whole_run_questions_per_s": len(latencies) / out["elapsed"],
            "server_cpu_ms_per_question": out["server_cpu_s"] * 1e3 / len(latencies),
            "late_ms_p99": quantile(out["late"], 0.99) * 1e3,
            "errors": out["errors"][:5],
        },
    }


def _traced(command, replica, lists, seconds) -> dict:
    from . import ledger, spans

    half = seconds / 2
    plain_server = Server(command).start()
    try:
        plain = _measure(plain_server, replica, lists, half)
    finally:
        plain_server.stop()
    span_file = OUT / "spans-wire-server.json"
    span_file.unlink(missing_ok=True)
    launcher = [
        sys.executable,
        str(ROOT / "perfbench" / "wire_server.py"),
        "--spans",
        str(span_file),
        "--",
        *_serve_args(),
    ]
    traced_server = Server(launcher).start()
    try:
        traced = _measure(traced_server, replica, lists, half)
    finally:
        traced_server.stop()
    if not span_file.is_file():
        raise BenchError("the traced server wrote no spans")
    server_spans, data = spans.load(span_file)
    ledger.check_nesting(server_spans)
    http_keys = {
        str(p["session"]) for kind, _, _, p in traced["sessions"] if kind == "http"
    }
    check = ledger.question_ledger(traced["questions"], server_spans, http_keys)

    def p50(out):
        return quantile([r - d for d, r, _ in out["questions"]], 0.50)

    metrics = ledger.layer_metrics(
        server_spans,
        data["counts"],
        wall_s=traced["elapsed"],
        ledger=check,
        overhead_frac=p50(traced) / p50(plain) - 1.0,
        engine_stats=data.get("engine_stats"),
        http_cpu_s=traced["server_cpu_s"],
        questions=len(traced["questions"]),
        late_s=traced["late"],
    )
    wrong = _check(plain)[0] + _check(traced)[0]
    failed = wrong + len(plain["errors"]) + len(traced["errors"])
    attempted = sum(
        len(o["sessions"]) + len(o["errors"]) for o in (plain, traced)
    )
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0,
        "ledger": ledger.ledger_lines(check, len(traced["questions"]), "question"),
    }
