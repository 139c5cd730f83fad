"""Lock-step serving front-end (layer 3 of 3): the multi-session engine.

A :class:`SessionEngine` advances N concurrent
:class:`~repro.core.discovery.DiscoverySession` states in lock-step over one
shared collection.  Since the serving stack was split into layers, the
engine is a *thin client*: session bookkeeping lives in the
:class:`~repro.serve.state.SessionRegistry` and all batching in the
:class:`~repro.serve.scheduler.ScanScheduler` — each
:meth:`SessionEngine.tick` submits every session in the ``NEEDS_SCAN``
phase and flushes immediately (no latency budget: lock-step *is* the
cadence).  The asyncio front-end
(:class:`~repro.serve.async_service.AsyncDiscoveryService`) drives the
very same scheduler with a latency budget instead.

Answers flow back through the session step logic itself
(:meth:`~repro.core.discovery.DiscoverySession.answer`), so transcripts,
candidate narrowing, "don't know" exclusions and halting are *bit-identical*
to N sequential ``DiscoverySession.run`` calls — the engine only changes how
the work is batched, never what any session observes.

Two usage styles, mirroring :class:`DiscoverySession`:

* **pull** — a server loop calls :meth:`tick`, forwards each newly selected
  question to its user, and feeds replies back via :meth:`answer`; finished
  sessions accumulate in :attr:`results` (drain with :meth:`completed`).
* **push** — :meth:`run` drives every session against its registered oracle
  until all finish (the benchmark/evaluation protocol).

Selectors that cannot be expressed through the batched scoring path (k-LP
lookahead, random) still benefit: their per-session ``select`` hits the
cache primed by the batched scan instead of re-scanning.
"""

from __future__ import annotations

import time
from typing import Hashable, Iterable, Mapping

from ..core.collection import SetCollection
from ..core.discovery import DiscoveryResult, DiscoverySession, Oracle
from ..core.kernels.sharded import resolve_executor_name
from .scheduler import EngineStats, ScanScheduler
from .state import SessionRegistry

__all__ = ["EngineStats", "SessionEngine"]


class SessionEngine:
    """Advance many discovery sessions with batched kernel passes.

    Parameters
    ----------
    collection:
        The shared closed collection all sessions discover over.  Stacking
        masks requires one collection; sessions over a different collection
        are rejected.
    release_caches:
        When true (default), a finishing session's cached informative
        stats are released as soon as no other *active* session has
        visited the same sub-collection — the *bounded-memory* behaviour a
        long-lived server needs on top of the collection's LRU cap.
    shards:
        When given, re-kernel the collection with this many set-range
        shards (:meth:`~repro.core.collection.SetCollection.reshard`)
        before serving, so every stacked tick scan is dispatched through
        the sharded worker pool.  Transcripts stay bit-identical — the
        sharded kernels merge exact counts — only tick throughput changes.
    shard_executor:
        How the ``shards`` run (``"thread"`` or ``"serial"``; ``None``
        defers to ``$REPRO_SHARD_EXECUTOR``).
        Given without ``shards``, it applies to the collection's current
        shard count (a no-op on unsharded collections).
    """

    def __init__(
        self,
        collection: SetCollection,
        release_caches: bool = True,
        shards: int | None = None,
        shard_executor: str | None = None,
    ) -> None:
        if (
            shards is None
            and shard_executor is not None
            and collection.shards > 1
        ):
            shards = collection.shards
        if shards is not None:
            # Unsharded kernels have no executor (current None): only a
            # shard-count change forces a rebuild then — an executor
            # request alone must not repack a large unsharded matrix for
            # zero behavioural change.
            current_exec = getattr(collection.kernel, "executor_kind", None)
            if shards != collection.shards or (
                shard_executor is not None
                and current_exec is not None
                and resolve_executor_name(shard_executor) != current_exec
            ):
                collection.reshard(shards, executor=shard_executor)
        self.registry = SessionRegistry(
            collection, release_caches=release_caches
        )
        self.scheduler = ScanScheduler(self.registry)
        self.stats = self.scheduler.stats

    @property
    def collection(self) -> SetCollection:
        """The current collection epoch (what new sessions spawn on)."""
        return self.registry.collection

    def apply_delta(self, batch) -> SetCollection:
        """Apply a :class:`~repro.core.collection.DeltaBatch` between ticks.

        New sessions spawn on the returned epoch; running sessions stay
        pinned to theirs — the next :meth:`tick` groups stacked scans per
        epoch, so every transcript stays byte-identical to a delta-free
        run.  Call between :meth:`tick`/:meth:`answer` rounds (the engine
        is single-threaded by design).
        """
        current = self.registry.collection
        new = current.apply_delta(batch)
        if new is not current:
            self.registry.advance_collection(new)
        return new

    # ------------------------------------------------------------------ #
    # Session registry (delegated)
    # ------------------------------------------------------------------ #

    def add(
        self,
        session: DiscoverySession,
        oracle: Oracle | None = None,
        key: Hashable | None = None,
    ) -> Hashable:
        """Attach a session (optionally with its answering oracle).

        Returns the session's key — auto-assigned integers unless given.
        """
        return self.registry.add(session, oracle=oracle, key=key)

    def spawn(
        self,
        selector,
        initial: Iterable[Hashable] = (),
        initial_ids: Iterable[int] | None = None,
        max_questions: int | None = None,
        oracle: Oracle | None = None,
        key: Hashable | None = None,
    ) -> Hashable:
        """Construct a :class:`DiscoverySession` over the engine's
        collection and :meth:`add` it in one call."""
        return self.registry.spawn(
            selector,
            initial=initial,
            initial_ids=initial_ids,
            max_questions=max_questions,
            oracle=oracle,
            key=key,
        )

    def session(self, key: Hashable) -> DiscoverySession:
        """The live session for ``key`` (raises once it finished)."""
        return self.registry.session(key)

    @property
    def n_active(self) -> int:
        return self.registry.n_active

    @property
    def results(self) -> Mapping[Hashable, DiscoveryResult]:
        """Outcomes of every finished session, by key (grows over time)."""
        return self.registry.results

    def completed(self) -> dict[Hashable, DiscoveryResult]:
        """Drain and return the finished-session outcomes."""
        return self.registry.completed()

    def pending(self) -> dict[Hashable, int]:
        """All questions currently awaiting an answer, by session key."""
        return self.registry.pending()

    # ------------------------------------------------------------------ #
    # Lock-step advancement
    # ------------------------------------------------------------------ #

    def tick(self) -> dict[Hashable, int]:
        """Select the next question for every session that needs one.

        One batched kernel pass answers all fresh informative scans; the
        newly selected ``{key: entity id}`` questions are returned (and
        also visible via :meth:`pending`).  Sessions discovered to be
        finished are retired into :attr:`results`.
        """
        start = time.perf_counter()
        self.stats.ticks += 1
        for state in self.registry.needs_question():
            self.scheduler.submit(state)
        report = self.scheduler.flush()
        self.stats.seconds += time.perf_counter() - start
        return report.questions

    def answer(self, key: Hashable, value: bool | None) -> None:
        """Record a user's answer for session ``key`` (pull-style API).

        The narrowing itself runs through the session's own
        :meth:`~repro.core.discovery.DiscoverySession.answer`.  Unknown or
        already-finished keys raise a clear ``KeyError``; answering a
        session with no pending question (never asked, or a second answer
        before the next tick) raises ``ValueError``.  Retirement of
        sessions that just resolved happens on the next :meth:`tick`.
        """
        self.registry.answer(key, value)

    def run(self) -> dict[Hashable, DiscoveryResult]:
        """Drive every session against its oracle until all finish."""
        missing = [
            state.key
            for state in self.registry.active_states()
            if state.oracle is None
        ]
        if missing:
            raise ValueError(
                f"run() needs an oracle per session; missing for {missing!r}"
            )
        while self.registry.n_active:
            self.tick()
            pending = self.pending()
            if not pending and self.registry.n_active:
                raise RuntimeError(  # pragma: no cover - safety net
                    "engine made no progress; sessions stuck"
                )
            for key, entity in pending.items():
                oracle = self.registry.state(key).oracle
                assert oracle is not None
                self.answer(key, oracle(entity))
        return dict(self.registry.results)

    def __repr__(self) -> str:
        return (
            f"<SessionEngine active={self.n_active} "
            f"finished={len(self.registry.results)} "
            f"backend={self.collection.backend}>"
        )
