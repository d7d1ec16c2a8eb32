"""Split horizons: the plan-contract pins behind consecutive runs.

A held :class:`FleetRunner` re-plans its sessions at the start of every
``run`` call, so ``k`` consecutive runs must equal one sequential
horizon — the harness (``test_harness.py``) checks that on split
schedules over stationary, drifting and replay sessions, one or two row
tables, windows straddling run boundaries and collections landing
mid-window.  These tests pin the two premises: block draws split like
scalar draws, and each run plans its horizon once.
"""

from __future__ import annotations

import numpy as np

from repro.sim.fleet import _Shard

from _testkit import PRIVATE, Member, population


def test_block_noise_draws_split_like_scalar_draws():
    """The split-run and drift-segment premise: ``normal(size=a)`` then
    ``normal(size=b)`` equals one ``normal(size=a + b)`` draw."""
    a = np.random.default_rng(123).normal(0.0, 0.1, size=13)
    rng = np.random.default_rng(123)
    b = np.concatenate(
        [rng.normal(0.0, 0.1, size=5), rng.normal(0.0, 0.1, size=7), rng.normal(0.0, 0.1, size=1)]
    )
    np.testing.assert_array_equal(a, b)


def test_traced_horizon_is_planned_once(monkeypatch):
    """A traced shard plans its whole horizon in one plan call per
    session — the only re-plans are new runs."""
    agents, sessions = population([Member("code_linucb", PRIVATE, "multilabel")] * 5, seed=2)
    shard = _Shard(np.arange(5), agents, sessions)
    calls = {"n": 0}
    real = type(sessions[0]).plan_trace_indexed

    def counting(self, horizon):
        calls["n"] += 1
        return real(self, horizon)

    monkeypatch.setattr(type(sessions[0]), "plan_trace_indexed", counting)
    shard.prepare(8)
    assert shard._walk.shape == (5, 8)
    assert calls["n"] == len(sessions)
