"""Randomized data reporting (paper §3.1).

"After some interactions with the user, ``T ≥ 1``, the local agent may
randomly construct a payload containing an encoded instance of
interaction data with probability ``p``."

The participation probability ``p`` is the privacy lever: §4 derives
the differential-privacy ``eps`` *entirely* from ``p`` (Eq. 3).  This
module implements the sampling policy exactly as stated:

* the agent buffers its last ``T`` interactions;
* once ``T`` interactions have accumulated, a Bernoulli(``p``) coin
  decides whether to report;
* on heads, **one** interaction is drawn uniformly from the buffer
  (randomizing *which* interaction further obscures timing);
* the paper's experiments cap each user at one tuple
  (``max_reports=1``); allowing ``r > 1`` composes the guarantee to
  ``r·eps`` (§6), which :class:`~repro.privacy.accounting.PrivacyReport`
  tracks.

Each device's coin and within-window index are keyed draws
(:mod:`repro.bandits.keyed`): a ``uint64`` key drawn once from the
device's generator, and a counter that advances once per coin, so the
stacked fleet flips every device's coin in one array expression,
bitwise as the device would on its own.
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
    """Bernoulli participation policy over buffered interactions.

    Parameters
    ----------
    p:
        Participation probability per eligible window.
    window:
        Number of interactions ``T`` buffered before each coin flip.
    max_reports:
        Total reports this agent may ever emit (paper experiments: 1).
    seed:
        Seed / generator of the device's ``uint64`` key, drawn once at
        construction.  Window ``w``'s coin and within-buffer index are
        keyed draws at counter ``w`` (the coin's own count, which
        :meth:`reset` never rewinds: a re-enrolled device does not
        replay an earlier coin).

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

    _buffer: list = field(default_factory=list, init=False, repr=False)
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
        """Buffer one interaction; maybe emit a report.

        Returns the sampled item when (a) the buffer has reached
        ``window``, (b) the Bernoulli(``p``) coin lands heads, and
        (c) the report budget is not exhausted — otherwise ``None``.
        The buffer resets after every coin flip, so candidate windows
        are disjoint (each interaction gets at most one chance to be
        reported).
        """
        if self.exhausted:
            return None
        self._buffer.append(item)
        if len(self._buffer) < self.window:
            return None
        self.windows_seen += 1
        buffer, self._buffer = self._buffer, []
        counter = self._draws
        self._draws += 1
        if keyed_uniform(self._key, STREAM_PARTICIPATE, counter)[0] >= self.p:
            return None
        self.reports_sent += 1
        return buffer[int(keyed_index(self._key, STREAM_WINDOW_INDEX, counter, len(buffer))[0])]

    def reset(self) -> None:
        """Clear the buffer and budget (a fresh device enrollment).

        The key and the draw counter stay: the device's next coin is a
        new one, never a replay of a coin it flipped before.
        """
        self._buffer.clear()
        self.reports_sent = 0
        self.windows_seen = 0


class StackedParticipation:
    """``n`` independent :class:`RandomizedParticipation` policies, stepped per round.

    The fleet engine's columnar reporting path: all window/budget
    bookkeeping — buffer fill levels, report budgets, window counters —
    lives in stacked arrays and advances with vectorized masks, and the
    Bernoulli coin and within-window index of every agent at a window
    boundary are one keyed draw over the stacked :attr:`keys` and
    :attr:`draws`.  An agent's counter advances once per coin, as
    :meth:`RandomizedParticipation.offer`'s does, and exhausted or
    mid-window agents draw nothing, so a stacked run is
    bit-interchangeable with the scalar call sequence.

    Construction *adopts* the scalar policies mid-stream: fill levels
    come from their live buffers, and budgets, keys and draw counters
    from the policies — so a population that already
    ran on the object path (a previous deployment round, a partial
    window) continues exactly where the scalar calls left off.
    :meth:`writeback` pushes the advanced counters back into the
    scalar objects; rebuilding their buffered *items* is the caller's
    job (the caller owns the item data; see
    ``repro.sim.fleet._Shard.finish``).

    Per-agent parameters need not be uniform: ``p``, ``window`` and
    ``max_reports`` are all arrays.
    """

    def __init__(self, policies: Sequence[RandomizedParticipation]) -> None:
        policies = list(policies)
        if not policies:
            raise ValueError("StackedParticipation needs at least one policy")
        self.policies = policies
        self.n = len(policies)
        self.p = np.array([pol.p for pol in policies], dtype=np.float64)
        self.window = np.array([pol.window for pol in policies], dtype=np.intp)
        self.max_reports = np.array([pol.max_reports for pol in policies], dtype=np.intp)
        self.keys = np.array([pol._key for pol in policies], dtype=np.uint64)
        self.draws = np.array([pol._draws for pol in policies], dtype=np.uint64)
        self.fill = np.array([len(pol._buffer) for pol in policies], dtype=np.intp)
        self.reports_sent = np.array([pol.reports_sent for pol in policies], dtype=np.intp)
        self.windows_seen = np.array([pol.windows_seen for pol in policies], dtype=np.intp)
        #: items buffered *since adoption* that are still pending
        #: (resets at every window boundary; frozen once exhausted)
        self.new_buffered = np.zeros(self.n, dtype=np.intp)
        #: whether any window boundary fired since adoption — when
        #: False, the scalar policy's pre-adoption buffer items are
        #: still live
        self.flipped = np.zeros(self.n, dtype=bool)

    def step(self) -> tuple[np.ndarray, np.ndarray]:
        """Advance every agent's window by one buffered interaction.

        Equivalent to one ``offer`` call per agent: budget-exhausted
        agents are skipped (no buffering, no draw — the scalar early
        return), everyone else buffers, and agents whose buffer just
        reached ``window`` flip their coin.

        Returns
        -------
        (reported, within)
            ``reported`` is a boolean mask of agents that emitted a
            report this step; ``within[j]`` (valid where ``reported``)
            is the sampled index into agent ``j``'s conceptual window
            buffer — ``window[j] - 1`` is the current interaction,
            ``0`` the oldest buffered one.
        """
        active = self.reports_sent < self.max_reports
        self.fill[active] += 1
        self.new_buffered[active] += 1
        boundary = active & (self.fill >= self.window)
        reported = np.zeros(self.n, dtype=bool)
        within = np.zeros(self.n, dtype=np.intp)
        rows = np.flatnonzero(boundary)
        if rows.size:
            self.windows_seen[rows] += 1
            self.fill[rows] = 0
            self.new_buffered[rows] = 0
            self.flipped[rows] = True
            keys, counters = self.keys[rows], self.draws[rows]
            self.draws[rows] += 1
            heads = keyed_uniform(keys, STREAM_PARTICIPATE, counters) < self.p[rows]
            hit = rows[heads]
            self.reports_sent[hit] += 1
            reported[hit] = True
            within[hit] = keyed_index(
                keys[heads], STREAM_WINDOW_INDEX, counters[heads], self.window[hit]
            )
        return reported, within

    def writeback(self) -> None:
        """Push the advanced budget/window/draw counters into the scalar objects.

        Buffer *contents* are the caller's responsibility
        (:attr:`new_buffered` and :attr:`flipped` say which items are
        live).
        """
        for pol, sent, seen, draws in zip(
            self.policies,
            self.reports_sent.tolist(),
            self.windows_seen.tolist(),
            self.draws.tolist(),
        ):
            pol.reports_sent = sent
            pol.windows_seen = seen
            pol._draws = draws
