"""Seeded load: the open-loop schedule for ``serve-open`` and the per-
stream target lists for ``wire``.

Both are computed from the seed before the timed window starts, so the
program only ever sees the generated inputs and two runs with the same
seed offer exactly the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: think-time draws per session; a session asking more questions than
#: this reuses its draws cyclically
THINK_DRAWS = 64


@dataclass(frozen=True)
class Arrival:
    """One virtual user of the open loop."""

    at: float  # seconds after the window opens
    target: int  # set index the user has in mind
    examples: tuple  # entity ids the user gives up front
    think: tuple  # seconds between each question and its answer


def open_loop_schedule(
    seed: int,
    sets,
    rate: float,
    seconds: float,
    think_mean_s: float,
    n_examples: int,
) -> list:
    """``round(rate * seconds)`` Poisson arrivals over ``[0, seconds)``.

    The count is fixed and the arrival times are sorted uniform draws (a
    Poisson process conditioned on its count), so every seed offers the
    same number of sessions.  Each user's target is a uniformly drawn
    set, its examples a seeded sample of that set's members, and its
    think times exponential with mean ``think_mean_s``.
    """
    rng = random.Random(seed)
    times = sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))
    out = []
    for t in times:
        target = rng.randrange(len(sets))
        members = sorted(sets[target])
        examples = tuple(sorted(rng.sample(members, n_examples)))
        think = tuple(rng.expovariate(1.0 / think_mean_s) for _ in range(THINK_DRAWS))
        out.append(Arrival(t, target, examples, think))
    return out


def target_lists(seed: int, n_sets: int, streams: int, length: int) -> list:
    """One seeded list of target set indices per closed-loop stream."""
    rng = random.Random(seed)
    return [[rng.randrange(n_sets) for _ in range(length)] for _ in range(streams)]
