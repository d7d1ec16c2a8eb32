"""Randomized data reporting (paper §3.1).

"After some interactions with the user, ``T ≥ 1``, the local agent may
randomly construct a payload containing an encoded instance of
interaction data with probability ``p``."

The participation probability ``p`` is the privacy lever: §4 derives
the differential-privacy ``eps`` *entirely* from ``p`` (Eq. 3).  This
module implements the sampling policy exactly as stated:

* the agent's interactions fall into disjoint windows of ``T``;
* a Bernoulli(``p``) coin decides whether a window reports;
* on heads, **one** interaction of the window is drawn uniformly
  (randomizing *which* interaction further obscures timing) and
  reported when the window closes;
* the paper's experiments cap each user at one tuple
  (``max_reports=1``); allowing ``r > 1`` composes the guarantee to
  ``r·eps`` (§6), which :class:`~repro.privacy.accounting.PrivacyReport`
  tracks.

Each device's coin and within-window index are keyed draws
(:mod:`repro.bandits.keyed`) of a ``uint64`` key, drawn once from the
device's generator, and a counter that advances once per window.  A
keyed draw does not depend on when it is evaluated, so the device draws
both when a window *opens* and keeps only the picked interaction: a
window holds one item, never ``T``.  These are the draws a device that
buffered the window would take at its close, so Eq. 3's ``p`` and the
uniform pick are unchanged; the stacked fleet takes every device's
draws in one array expression, bitwise as the device would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Sequence, TypeVar

import numpy as np

from ..bandits.keyed import (
    STREAM_PARTICIPATE,
    STREAM_WINDOW_INDEX,
    draw_key,
    keyed_index,
    keyed_uniform,
)
from ..utils.rng import ensure_rng
from ..utils.validation import check_positive_int, check_probability

__all__ = ["RandomizedParticipation", "StackedParticipation"]

T_co = TypeVar("T_co")


@dataclass
class RandomizedParticipation(Generic[T_co]):
    """Bernoulli participation policy holding one item per window.

    Parameters
    ----------
    p:
        Participation probability per eligible window.
    window:
        Number of interactions ``T`` in each window.
    max_reports:
        Total reports this agent may ever emit (paper experiments: 1).
    seed:
        Seed / generator of the device's ``uint64`` key, drawn once at
        construction.  Window ``w``'s coin and within-window index are
        keyed draws at counter ``w`` (the window's own count, which
        :meth:`reset` never rewinds: a re-enrolled device does not
        replay an earlier coin).

    The state of the open window is its fill level ``fill``, the index
    ``_pick`` drawn when it opened (``-1`` when its coin came up tails)
    and the one item ``_held`` at that index once offered.

    Examples
    --------
    >>> part = RandomizedParticipation(p=1.0, window=2, seed=0)
    >>> part.offer("t0") is None
    True
    >>> part.offer("t1") in ("t0", "t1")
    True
    """

    p: float = 0.5
    window: int = 10
    max_reports: int = 1
    seed: int | np.random.Generator | None = None

    fill: int = field(default=0, init=False)
    _pick: int = field(default=-1, init=False, repr=False)
    _held: T_co | None = field(default=None, init=False, repr=False)
    _key: np.uint64 = field(init=False, repr=False)
    _draws: int = field(default=0, init=False, repr=False)
    reports_sent: int = field(default=0, init=False)
    windows_seen: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        check_probability(self.p, name="p")
        check_positive_int(self.window, name="window")
        check_positive_int(self.max_reports, name="max_reports", minimum=0)
        self._key = draw_key(ensure_rng(self.seed))

    @property
    def exhausted(self) -> bool:
        """True once the report budget is spent."""
        return self.reports_sent >= self.max_reports

    def offer(self, item: T_co) -> T_co | None:
        """Count one interaction; maybe emit a report.

        Returns the window's picked item when (a) this interaction
        closes a window of ``window`` interactions, (b) the
        Bernoulli(``p``) coin drawn when that window opened landed
        heads, and (c) the report budget is not exhausted — otherwise
        ``None``.  Only the picked item is kept; windows are disjoint
        (each interaction gets at most one chance to be reported).
        """
        if self.exhausted:
            return None
        if self.fill == 0:  # a window opens: draw its coin, and its pick on heads
            key, counter = self._key, self._draws
            self._pick = -1
            if keyed_uniform(key, STREAM_PARTICIPATE, counter)[0] < self.p:
                self._pick = int(keyed_index(key, STREAM_WINDOW_INDEX, counter, self.window)[0])
        if self.fill == self._pick:
            self._held = item
        self.fill += 1
        if self.fill < self.window:
            return None
        self.windows_seen += 1
        self._draws += 1
        self.fill = 0
        held, self._held = self._held, None
        if self._pick < 0:
            return None
        self.reports_sent += 1
        return held

    def reset(self) -> None:
        """Drop the open window and clear the budget (a fresh enrollment).

        The key and the draw counter stay: the next window draws at the
        counter the dropped one would have closed with, never replaying
        a coin of a window the device closed.
        """
        self.fill = 0
        self._pick = -1
        self._held = None
        self.reports_sent = 0
        self.windows_seen = 0


class StackedParticipation:
    """``n`` independent :class:`RandomizedParticipation` policies, stepped per round.

    The fleet engine's columnar reporting path: fill levels, picks,
    report budgets and window counters live in stacked arrays and
    advance with vectorized masks, and the coin and pick of every agent
    whose window opens this step are one keyed draw over the stacked
    :attr:`keys` and :attr:`draws`.  Counters advance once per window,
    and exhausted or mid-window agents draw nothing, so a stacked run is
    bit-interchangeable with the scalar call sequence.

    Construction *adopts* the scalar policies mid-stream (fill levels,
    picks, budgets, keys and draw counters), so a population that
    already ran on the object path (a previous deployment round, a
    partial window) continues exactly where the scalar calls left off.
    The stack holds no items, only :attr:`held_at`, the step each agent
    took its held item at; an item taken before adoption stays the
    scalar policy's ``_held``.  Writing state and items back is the
    caller's job (it owns the item data; see
    ``repro.sim.fleet._Shard.finish``).

    Per-agent parameters need not be uniform: ``p``, ``window`` and
    ``max_reports`` are all arrays.
    """

    def __init__(self, policies: Sequence[RandomizedParticipation]) -> None:
        policies = list(policies)
        if not policies:
            raise ValueError("StackedParticipation needs at least one policy")
        self.n = len(policies)
        self.p = np.array([pol.p for pol in policies], dtype=np.float64)
        self.window = np.array([pol.window for pol in policies], dtype=np.intp)
        self.max_reports = np.array([pol.max_reports for pol in policies], dtype=np.intp)
        self.keys = np.array([pol._key for pol in policies], dtype=np.uint64)
        self.draws = np.array([pol._draws for pol in policies], dtype=np.uint64)
        self.fill = np.array([pol.fill for pol in policies], dtype=np.intp)
        self.pick = np.array([pol._pick for pol in policies], dtype=np.intp)
        self.reports_sent = np.array([pol.reports_sent for pol in policies], dtype=np.intp)
        self.windows_seen = np.array([pol.windows_seen for pol in policies], dtype=np.intp)
        #: steps since adoption, and the step each open window took its
        #: held item at (-1: none since adoption; any held item is then
        #: the scalar policy's ``_held``)
        self.t = 0
        self.held_at = np.full(self.n, -1, dtype=np.intp)

    def step(self) -> tuple[np.ndarray, np.ndarray]:
        """Advance every agent's window by one interaction.

        Equivalent to one ``offer`` call per agent: budget-exhausted
        agents are skipped (no draw — the scalar early return), agents
        whose window opens draw their coin and pick, agents at their
        pick take this step's item, and agents whose window fills close
        it.

        Returns
        -------
        (reported, sampled)
            ``reported`` is a boolean mask of agents that emitted a
            report this step; ``sampled[j]`` (valid where ``reported``)
            is the step since adoption of the reported item, or ``-1``
            for the item the scalar policy held at adoption.
        """
        active = self.reports_sent < self.max_reports
        opening = np.flatnonzero(active & (self.fill == 0))
        if opening.size:
            keys, counters = self.keys[opening], self.draws[opening]
            heads = keyed_uniform(keys, STREAM_PARTICIPATE, counters) < self.p[opening]
            self.pick[opening] = -1
            hit = opening[heads]
            self.pick[hit] = keyed_index(
                keys[heads], STREAM_WINDOW_INDEX, counters[heads], self.window[hit]
            )
        self.held_at[active & (self.fill == self.pick)] = self.t
        self.fill[active] += 1
        self.t += 1
        reported = np.zeros(self.n, dtype=bool)
        sampled = np.full(self.n, -1, dtype=np.intp)
        closing = np.flatnonzero(active & (self.fill >= self.window))
        if closing.size:
            self.windows_seen[closing] += 1
            self.draws[closing] += 1
            self.fill[closing] = 0
            hit = closing[self.pick[closing] >= 0]
            self.reports_sent[hit] += 1
            reported[hit] = True
            sampled[hit] = self.held_at[hit]
            self.held_at[closing] = -1
        return reported, sampled
