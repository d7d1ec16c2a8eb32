"""Unit tests for stacked policy states and the stacking dispatch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import UCB1, CodeLinUCB, EpsilonGreedy, LinUCB, LinearThompsonSampling
from repro.sim import (
    StackedCodeLinUCB,
    StackedEpsilonGreedy,
    StackedLinUCB,
    StackedThompson,
    StackedUCB1,
    policies_stackable,
    stack_policies,
)
from repro.utils.exceptions import ConfigError
from repro.utils.rng import spawn_seeds


def _population(cls, n, seed=0, **kwargs):
    return [
        cls(n_arms=3, n_features=4, seed=s, **kwargs) for s in spawn_seeds(seed, n)
    ]


class TestDispatch:
    @pytest.mark.parametrize(
        "cls,stacked_cls",
        [
            (LinUCB, StackedLinUCB),
            (EpsilonGreedy, StackedEpsilonGreedy),
            (LinearThompsonSampling, StackedThompson),
            (CodeLinUCB, StackedCodeLinUCB),
            (UCB1, StackedUCB1),
        ],
    )
    def test_stack_by_kind(self, cls, stacked_cls):
        stacked = stack_policies(_population(cls, 5))
        assert isinstance(stacked, stacked_cls)
        assert stacked.n_agents == 5

    def test_unsupported_policy_not_stackable(self):
        from repro.bandits import RandomPolicy

        policies = _population(RandomPolicy, 3)
        assert not policies_stackable(policies)
        with pytest.raises(ConfigError):
            stack_policies(policies)

    def test_empty_not_stackable(self):
        assert not policies_stackable([])
        with pytest.raises(ConfigError):
            stack_policies([])

    def test_mixed_hyperparams_rejected(self):
        policies = _population(LinUCB, 2) + [
            LinUCB(n_arms=3, n_features=4, alpha=2.0, seed=0)
        ]
        with pytest.raises(ConfigError):
            stack_policies(policies)

    def test_mixed_shapes_not_stackable(self):
        policies = _population(LinUCB, 2) + [LinUCB(n_arms=5, n_features=4, seed=0)]
        assert not policies_stackable(policies)


class TestStackedStepEquivalence:
    """One stacked step == one scalar step per agent, bit for bit."""

    def test_linucb_select_update_writeback(self):
        rng = np.random.default_rng(0)
        scalar = _population(LinUCB, 6, seed=1)
        stacked_pols = _population(LinUCB, 6, seed=1)
        stacked = stack_policies(stacked_pols)
        for _ in range(5):
            X = rng.dirichlet(np.ones(4), size=6)
            acts_scalar = np.array([p.select(x) for p, x in zip(scalar, X)])
            acts_stacked = stacked.select(X)
            np.testing.assert_array_equal(acts_scalar, acts_stacked)
            rewards = rng.random(6)
            for p, x, a, r in zip(scalar, X, acts_scalar, rewards):
                p.update(x, int(a), float(r))
            stacked.update(X, acts_stacked, rewards)
        stacked.writeback()
        for p, q in zip(scalar, stacked_pols):
            s1, s2 = p.get_state(), q.get_state()
            for key in s1:
                np.testing.assert_array_equal(np.asarray(s1[key]), np.asarray(s2[key]))

    def test_code_linucb_codes_path(self):
        rng = np.random.default_rng(3)
        scalar = _population(CodeLinUCB, 8, seed=2)
        stacked_pols = _population(CodeLinUCB, 8, seed=2)
        stacked = stack_policies(stacked_pols)
        for _ in range(6):
            codes = rng.integers(0, 4, size=8)
            acts_scalar = np.array([p.select_code(int(c)) for p, c in zip(scalar, codes)])
            acts_stacked = stacked.select(codes.astype(np.intp))
            np.testing.assert_array_equal(acts_scalar, acts_stacked)
            rewards = rng.random(8)
            for p, c, a, r in zip(scalar, codes, acts_scalar, rewards):
                p.update_code(int(c), int(a), float(r))
            stacked.update(codes.astype(np.intp), acts_stacked, rewards)
        stacked.writeback()
        for p, q in zip(scalar, stacked_pols):
            np.testing.assert_array_equal(p.counts, q.counts)
            np.testing.assert_array_equal(p.sums, q.sums)
            assert p.t == q.t

    def test_ucb1_forced_first_plays_match(self):
        scalar = _population(UCB1, 5, seed=4)
        stacked_pols = _population(UCB1, 5, seed=4)
        stacked = stack_policies(stacked_pols)
        rng = np.random.default_rng(9)
        for _ in range(8):
            acts_scalar = np.array([p.select() for p in scalar])
            acts_stacked = stacked.select()
            np.testing.assert_array_equal(acts_scalar, acts_stacked)
            rewards = rng.random(5)
            for p, a, r in zip(scalar, acts_scalar, rewards):
                p.update(None, int(a), float(r))
            stacked.update(None, acts_stacked, rewards)
        stacked.writeback()
        for p, q in zip(scalar, stacked_pols):
            np.testing.assert_array_equal(p.counts, q.counts)
            np.testing.assert_array_equal(p.sums, q.sums)

    def test_epsilon_decay_is_per_agent_state(self):
        pols = _population(EpsilonGreedy, 4, seed=5, epsilon=0.5, decay=0.9)
        stacked = stack_policies(pols)
        X = np.eye(4)
        stacked.update(X, np.zeros(4, dtype=np.intp), np.ones(4))
        stacked.writeback()
        for p in pols:
            assert p.epsilon == pytest.approx(0.45)

    def test_writeback_copies_do_not_alias(self):
        pols = _population(LinUCB, 3, seed=6)
        stacked = stack_policies(pols)
        stacked.update(np.eye(4)[:3], np.zeros(3, dtype=np.intp), np.ones(3))
        stacked.writeback()
        before = pols[0].A_inv.copy()
        stacked.update(np.eye(4)[:3], np.ones(3, dtype=np.intp), np.ones(3))
        np.testing.assert_array_equal(before, pols[0].A_inv)


def _step(stacked, rng):
    """One select + update of every agent, on inputs the stacker takes."""
    n = stacked.n_agents
    if stacked.wants_codes:
        inputs = rng.integers(0, stacked.n_features, size=n).astype(np.intp)
    elif isinstance(stacked, StackedUCB1):
        inputs = None
    else:
        inputs = rng.dirichlet(np.ones(stacked.n_features), size=n)
    stacked.update(inputs, stacked.select(inputs), rng.random(n))


def _trained_state(cls, seed, **kwargs):
    """The state of one policy after a few scalar updates."""
    policy = cls(n_arms=3, n_features=4, seed=seed, **kwargs)
    rng = np.random.default_rng(seed)
    for _ in range(12):
        x = np.eye(4)[rng.integers(4)] if cls is CodeLinUCB else rng.random(4)
        policy.update(x, int(rng.integers(3)), float(rng.random()))
    return policy.get_state()


_STACK_STATE = {
    CodeLinUCB: ("counts", "sums", "t"),
    LinUCB: ("A_inv", "b", "theta", "arm_counts", "t"),
}


class TestLoadState:
    """``load_state`` == one ``set_state`` per agent, or False untouched."""

    @pytest.mark.parametrize("cls", [CodeLinUCB, LinUCB])
    def test_equals_scalar_set_state(self, cls):
        rng = np.random.default_rng(1)
        loaded = stack_policies(_population(cls, 5, seed=2))
        for _ in range(3):
            _step(loaded, rng)
        state = _trained_state(cls, seed=9)
        assert loaded.load_state(state)
        scalar = _population(cls, 5, seed=2)
        for p in scalar:
            p.set_state(state)
        restacked = stack_policies(scalar)
        for name in _STACK_STATE[cls]:
            np.testing.assert_array_equal(
                getattr(loaded, name), getattr(restacked, name), err_msg=name
            )
        loaded.writeback()
        for p, q in zip(loaded.policies, scalar):
            for name in _STACK_STATE[cls]:
                np.testing.assert_array_equal(getattr(p, name), getattr(q, name))

    @pytest.mark.parametrize("cls", [CodeLinUCB, LinUCB])
    @pytest.mark.parametrize(
        "change",
        [
            {"alpha": 2.0},
            {"ridge": 0.5},
            {"n_arms": 5},
            {"kind": "ucb1"},
            "shape",
            "missing",
        ],
        ids=["alpha", "ridge", "header", "kind", "shape", "missing"],
    )
    def test_mismatch_returns_false_untouched(self, cls, change):
        stacked = stack_policies(_population(cls, 4, seed=3))
        _step(stacked, np.random.default_rng(4))
        state = _trained_state(cls, seed=5)
        array_key = "counts" if cls is CodeLinUCB else "b"
        if change == "shape":
            state[array_key] = np.zeros(7)
        elif change == "missing":
            del state[array_key]
        else:
            state.update(change)
        before = {
            name: np.array(getattr(stacked, name), copy=True)
            for name in _STACK_STATE[cls]
        }
        assert not stacked.load_state(state)
        for name, value in before.items():
            np.testing.assert_array_equal(getattr(stacked, name), value, err_msg=name)

    @pytest.mark.parametrize("cls", [CodeLinUCB, LinUCB])
    def test_fast_stackers_do_not_load(self, cls):
        stacked = stack_policies(_population(cls, 3), exactness="fast")
        assert not stacked.load_state(_trained_state(cls, seed=1))

    @pytest.mark.parametrize("cls", [EpsilonGreedy, LinearThompsonSampling, UCB1])
    def test_base_class_does_not_load(self, cls):
        stacked = stack_policies(_population(cls, 3))
        assert not stacked.load_state(cls(n_arms=3, n_features=4, seed=0).get_state())


_WRITEBACK_CASES = [
    (LinUCB, "bit"),
    (LinUCB, "fast"),
    (EpsilonGreedy, "bit"),
    (LinearThompsonSampling, "bit"),
    (CodeLinUCB, "bit"),
    (CodeLinUCB, "fast"),
    (UCB1, "bit"),
]


class TestInPlaceWriteback:
    """A reused stack refills the buffers it handed out the first time."""

    @pytest.mark.parametrize(
        "cls,exactness", _WRITEBACK_CASES, ids=[f"{c.__name__}-{e}" for c, e in _WRITEBACK_CASES]
    )
    def test_second_writeback_keeps_identity_and_equals_restack(self, cls, exactness):
        pols = _population(cls, 4, seed=7)
        twins = _population(cls, 4, seed=7)
        stacked = stack_policies(pols, exactness=exactness)
        twin = stack_policies(twins, exactness=exactness)
        rng, twin_rng = np.random.default_rng(8), np.random.default_rng(8)
        _step(stacked, rng)
        _step(twin, twin_rng)
        stacked.writeback()
        twin.writeback()
        names = list(stacked.held_rows)
        assert names
        held = [[getattr(p, name) for name in names] for p in pols]
        _step(stacked, rng)
        stacked.writeback()
        # the twin restacks from its policies instead of reusing its stack
        twin = stack_policies(twins, exactness=exactness)
        _step(twin, twin_rng)
        twin.writeback()
        for p, arrays, q in zip(pols, held, twins):
            for name, array in zip(names, arrays):
                assert getattr(p, name) is array, name
                np.testing.assert_array_equal(getattr(p, name), getattr(q, name))
            assert p.t == q.t

    def test_policy_that_took_set_state_gets_its_row_back(self):
        pols = _population(CodeLinUCB, 3, seed=2)
        stacked = stack_policies(pols)
        rng = np.random.default_rng(3)
        _step(stacked, rng)
        stacked.writeback()
        rows = stacked.held_rows["counts"]
        pols[1].set_state(_trained_state(CodeLinUCB, seed=4))
        assert pols[1].counts is not rows[1]
        _step(stacked, rng)
        stacked.writeback()
        assert pols[1].counts is rows[1]
        assert pols[1].sums is stacked.held_rows["sums"][1]
        np.testing.assert_array_equal(pols[1].counts, stacked.counts[1])
        assert pols[1].t == int(stacked.t[1])
