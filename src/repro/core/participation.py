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
both when a window *opens* (its first interaction) and keeps only the
picked interaction: a window holds one item, never ``T``.  These are
the draws a device that buffered the window would take at its close,
so Eq. 3's ``p`` and the uniform pick are unchanged; the stacked fleet
takes every device's draws in one array expression, bitwise as the
device would.

A device's state is its row of :class:`StackedParticipation` columns
(:mod:`repro.utils.columns`): :meth:`RandomizedParticipation.offer` and
:meth:`StackedParticipation.step` are the one-row and ``n``-row forms
of the same transition on them.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..bandits.keyed import (
    STREAM_PARTICIPATE,
    STREAM_WINDOW_INDEX,
    draw_key,
    keyed_index,
    keyed_uniform,
)
from ..utils.columns import Column, Columns
from ..utils.rng import ensure_rng
from ..utils.validation import check_positive_int, check_probability

__all__ = ["RandomizedParticipation", "StackedParticipation", "UNDRAWN"]

#: the ``pick`` of a window whose coin is not drawn yet (it has not opened)
UNDRAWN = -2


class StackedParticipation(Columns):
    """``n`` devices' participation state, one row each, stepped per round.

    Row ``j`` is the state of the device bound to it: its parameters
    (``p``, ``window``, ``max_reports``: per-device, need not be
    uniform), keyed stream (``keys``, ``draws``), report counters, the
    open window's fill level and ``pick`` (its within-window index,
    ``-1`` when its coin came up tails, :data:`UNDRAWN` before it
    opens), and the held item — ``held_payload`` (a code or a context
    row, allocated by the first item held), ``held_action`` and
    ``held_reward``, meaningful where ``0 <= pick < fill``.
    """

    fields = {
        "p": np.float64,
        "window": np.intp,
        "max_reports": np.intp,
        "keys": np.uint64,
        "draws": np.uint64,
        "fill": np.intp,
        "pick": np.intp,
        "reports_sent": np.intp,
        "windows_seen": np.intp,
        "held_action": np.intp,
        "held_reward": np.float64,
    }
    lazy = ("held_payload",)

    def hold(self, rows, payload, actions, rewards) -> None:
        """Hold the items ``(payload, action, reward)`` at ``rows``."""
        if self.held_payload is None:
            like = np.asarray(payload)
            self._allocate("held_payload", like if np.ndim(rows) else like[None])
        self.held_payload[rows] = payload
        self.held_action[rows] = actions
        self.held_reward[rows] = rewards

    def item(self, row: int) -> tuple:
        """Row ``row``'s held item as ``(payload, action, reward)``, a copy."""
        payload = self.held_payload[row]
        payload = payload.copy() if payload.ndim else payload.item()
        return payload, int(self.held_action[row]), float(self.held_reward[row])

    def step(self, payload, actions, rewards) -> np.ndarray:
        """Offer every device this step's item: row ``j`` of each argument.

        One ``offer`` call per device: budget-exhausted devices are
        skipped, opening windows draw, devices at their pick hold the
        item, and filled windows close.  Returns the rows that report
        this step; each report is the row's held item (valid until its
        next hold).
        """
        active = self.reports_sent < self.max_reports
        opening = np.flatnonzero(active & (self.pick == UNDRAWN))
        if opening.size:  # one keyed coin per opening window, a keyed pick on heads
            keys, counters = self.keys[opening], self.draws[opening]
            heads = keyed_uniform(keys, STREAM_PARTICIPATE, counters) < self.p[opening]
            self.pick[opening] = -1
            hit = opening[heads]
            self.pick[hit] = keyed_index(
                keys[heads], STREAM_WINDOW_INDEX, counters[heads], self.window[hit]
            )
        taking = np.flatnonzero(active & (self.fill == self.pick))
        if taking.size:
            self.hold(taking, payload[taking], actions[taking], rewards[taking])
        self.fill[active] += 1
        closing = np.flatnonzero(active & (self.fill >= self.window))
        if closing.size == 0:
            return closing
        reported = closing[self.pick[closing] >= 0]
        self.reports_sent[reported] += 1
        self.windows_seen[closing] += 1
        self.draws[closing] += 1
        self.fill[closing] = 0
        self.pick[closing] = UNDRAWN
        return reported


class RandomizedParticipation:
    """One device's Bernoulli participation, holding one item per window.

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

    Its attributes read and write its row of :class:`StackedParticipation`
    columns; :meth:`state` copies the row, :attr:`held` its held item.

    Examples
    --------
    >>> part = RandomizedParticipation(p=1.0, window=2, seed=0)
    >>> part.offer((10, 0, 1.0)) is None
    True
    >>> part.offer((11, 1, 0.0)) in ((10, 0, 1.0), (11, 1, 0.0))
    True
    """

    p = Column()
    window = Column()
    max_reports = Column()
    fill = Column()
    pick = Column()
    reports_sent = Column()
    windows_seen = Column()
    _key = Column("keys")
    _draws = Column("draws")

    def __init__(self, p: float = 0.5, window: int = 10, max_reports: int = 1, seed=None) -> None:
        check_probability(p, name="p")
        check_positive_int(window, name="window")
        check_positive_int(max_reports, name="max_reports", minimum=0)
        StackedParticipation.bind(self)
        self.p, self.window, self.max_reports = p, window, max_reports
        self.pick = UNDRAWN
        self._key = draw_key(ensure_rng(seed))

    @property
    def exhausted(self) -> bool:
        """True once the report budget is spent."""
        return self.reports_sent >= self.max_reports

    @property
    def holds_next(self) -> bool:
        """Whether the next :meth:`offer` keeps its item (the window's
        pick; a window about to open draws it now, as the offer would)."""
        return not self.exhausted and self.fill == self._drawn_pick()

    def _drawn_pick(self) -> int:
        """The open window's pick, drawn first if the window is opening."""
        cols, row = self._cols, self._row
        pick = cols.pick[row]
        if pick == UNDRAWN:
            key, counter = cols.keys[row], cols.draws[row]
            pick = -1
            if keyed_uniform(key, STREAM_PARTICIPATE, counter)[0] < cols.p[row]:
                pick = keyed_index(key, STREAM_WINDOW_INDEX, counter, cols.window[row])[0]
            cols.pick[row] = pick
        return pick

    @property
    def held(self) -> tuple | None:
        """The open window's held item ``(payload, action, reward)``, or ``None``."""
        return self._cols.item(self._row) if 0 <= self.pick < self.fill else None

    def offer(self, item: tuple | None) -> tuple | None:
        """Count one interaction; maybe emit a report.

        ``item`` is the interaction as ``(payload, action, reward)``,
        the payload a code or a context row; it is read only when the
        window keeps it (:attr:`holds_next`), so a caller may pass
        ``None`` otherwise.  Returns the window's held item when (a)
        this interaction closes a window of ``window`` interactions,
        (b) the Bernoulli(``p``) coin drawn when that window opened
        landed heads, and (c) the report budget is not exhausted —
        otherwise ``None``.  Windows are disjoint (each interaction
        gets at most one chance to be reported).
        """
        cols, row = self._cols, self._row
        if cols.reports_sent[row] >= cols.max_reports[row]:
            return None
        if cols.fill[row] == self._drawn_pick():
            cols.hold(row, *item)
        cols.fill[row] += 1
        if cols.fill[row] < cols.window[row]:
            return None
        # the window closes: report its item on heads
        sent = None
        if cols.pick[row] >= 0:
            sent = cols.item(row)
            cols.reports_sent[row] += 1
        cols.windows_seen[row] += 1
        cols.draws[row] += 1
        cols.fill[row] = 0
        cols.pick[row] = UNDRAWN
        return sent

    def reset(self) -> None:
        """Drop the open window and clear the budget (a fresh enrollment).

        The key and the draw counter stay: the next window draws at the
        counter the dropped one would have closed with, never replaying
        a coin of a window the device closed.
        """
        self.fill = 0
        self.pick = UNDRAWN
        self.reports_sent = 0
        self.windows_seen = 0

    def state(self) -> dict[str, Any]:
        """A copy of this device's row: parameters, keyed stream
        (``keys``, ``draws``), window, counters and :attr:`held` item."""
        names = [name for name in self._cols.fields if not name.startswith("held_")]
        state = {name: getattr(self._cols, name).item(self._row) for name in names}
        return {**state, "held": self.held}
