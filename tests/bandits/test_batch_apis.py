"""Policy-level batch APIs: select_batch / update_many contracts.

``select_batch(X)`` must equal ``[select(x) for x in X]`` including RNG
consumption; ``update_many`` must leave the policy in the bit-identical
state the per-row ``update`` loop would.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import (
    UCB1,
    CodeLinUCB,
    EpsilonGreedy,
    LinUCB,
    LinearThompsonSampling,
)
from repro.utils.exceptions import ValidationError

ALL_POLICIES = [LinUCB, EpsilonGreedy, LinearThompsonSampling, CodeLinUCB, UCB1]


def _contexts(cls, rng, n, d=4):
    if cls is CodeLinUCB:
        return np.eye(d)[rng.integers(0, d, size=n)]
    return rng.dirichlet(np.ones(d), size=n)


def _pair(cls, seed=0):
    return cls(n_arms=3, n_features=4, seed=seed), cls(n_arms=3, n_features=4, seed=seed)


@pytest.mark.parametrize("cls", ALL_POLICIES, ids=lambda c: c.kind)
def test_select_batch_equals_select_loop(cls):
    rng = np.random.default_rng(1)
    loop_policy, batch_policy = _pair(cls)
    X = _contexts(cls, rng, 25)
    # warm both identically so scores are non-trivial
    warm = _contexts(cls, np.random.default_rng(2), 10)
    acts = np.random.default_rng(3).integers(0, 3, size=10)
    rs = np.random.default_rng(4).random(10)
    for p in (loop_policy, batch_policy):
        for x, a, r in zip(warm, acts, rs):
            p.update(x, int(a), float(r))
    expected = np.array([loop_policy.select(x) for x in X])
    got = batch_policy.select_batch(X)
    np.testing.assert_array_equal(expected, got)


@pytest.mark.parametrize("cls", ALL_POLICIES, ids=lambda c: c.kind)
def test_update_many_equals_update_loop(cls):
    rng = np.random.default_rng(7)
    loop_policy, batch_policy = _pair(cls)
    X = _contexts(cls, rng, 40)
    acts = rng.integers(0, 3, size=40)
    rs = rng.random(40)
    for x, a, r in zip(X, acts, rs):
        loop_policy.update(x, int(a), float(r))
    batch_policy.update_many(X, acts, rs)
    s1, s2 = loop_policy.get_state(), batch_policy.get_state()
    assert s1.keys() == s2.keys()
    for key in s1:
        np.testing.assert_array_equal(
            np.asarray(s1[key]), np.asarray(s2[key]), err_msg=f"{cls.kind}:{key}"
        )


def test_update_many_repeated_same_arm_preserves_order():
    """Within-arm ordering matters for Sherman–Morrison; all rows on one
    arm is the adversarial case for the grouped implementation."""
    rng = np.random.default_rng(11)
    loop_policy, batch_policy = _pair(LinUCB)
    X = rng.dirichlet(np.ones(4), size=15)
    rs = rng.random(15)
    for x, r in zip(X, rs):
        loop_policy.update(x, 1, float(r))
    batch_policy.update_many(X, np.ones(15, dtype=int), rs)
    np.testing.assert_array_equal(loop_policy.A_inv, batch_policy.A_inv)
    np.testing.assert_array_equal(loop_policy.theta, batch_policy.theta)


def test_update_many_mismatched_lengths_raise():
    from repro.utils.exceptions import ValidationError

    policy = LinUCB(n_arms=3, n_features=4, seed=0)
    with pytest.raises(ValidationError):
        policy.update_many(np.ones((3, 4)), np.zeros(2, dtype=int), np.ones(3))


def test_supports_fleet_flags():
    assert LinUCB.supports_fleet
    assert EpsilonGreedy.supports_fleet
    assert CodeLinUCB.supports_fleet
    assert UCB1.supports_fleet
    assert LinearThompsonSampling.supports_fleet


def test_fleet_keys_shard_by_kind_and_hyperparameters():
    base = LinUCB(n_arms=3, n_features=4, seed=0)
    assert base.fleet_key() == LinUCB(n_arms=3, n_features=4, seed=9).fleet_key()
    assert base.fleet_key() != LinUCB(n_arms=3, n_features=4, alpha=2.0).fleet_key()
    assert base.fleet_key() != LinUCB(n_arms=4, n_features=4).fleet_key()
    assert base.fleet_key() != EpsilonGreedy(n_arms=3, n_features=4).fleet_key()
    # epsilon is mutable state, not a shard key: two different epsilons
    # still stack (decay/ridge are the shared constants)
    assert (
        EpsilonGreedy(n_arms=3, n_features=4, epsilon=0.1).fleet_key()
        == EpsilonGreedy(n_arms=3, n_features=4, epsilon=0.4).fleet_key()
    )
    assert (
        LinearThompsonSampling(n_arms=3, n_features=4, v=0.5).fleet_key()
        != LinearThompsonSampling(n_arms=3, n_features=4, v=1.0).fleet_key()
    )
    from repro.bandits import RandomPolicy

    assert RandomPolicy(n_arms=3, n_features=4).fleet_key() is None


@pytest.mark.parametrize("cls", [LinUCB, EpsilonGreedy, LinearThompsonSampling])
def test_update_many_validates_actions_upfront(cls):
    """Regression: a negative action must raise, not silently wrap to
    the last arm; and nothing may be applied when any row is invalid
    (all-or-nothing, unlike the mid-batch failure of a per-row loop)."""
    from repro.utils.exceptions import ValidationError

    policy = cls(n_arms=3, n_features=4, seed=0)
    before = policy.get_state()
    X = np.ones((2, 4))
    for bad in ([-1, 0], [0, 3]):
        with pytest.raises(ValidationError):
            policy.update_many(X, np.array(bad), np.ones(2))
    after = policy.get_state()
    for key in before:
        np.testing.assert_array_equal(np.asarray(before[key]), np.asarray(after[key]))


@pytest.mark.parametrize("method", ["update_batch", "update_many"])
@pytest.mark.parametrize("cls", ALL_POLICIES, ids=lambda c: c.kind)
@pytest.mark.parametrize(
    "actions, n_rewards",
    [([0, -1], 2), ([0, 3], 2), ([0, 1], 3)],
    ids=["negative-action", "action-past-last-arm", "length-mismatch"],
)
def test_refused_batch_writes_nothing(cls, method, actions, n_rewards):
    """A batch with an action outside ``[0, n_arms)`` or mismatched
    lengths is refused before any row is applied: ``get_state()`` and
    ``t`` are unchanged (one shared check in ``bandits/base.py``)."""
    policy = cls(n_arms=3, n_features=4, seed=0)
    X = _contexts(cls, np.random.default_rng(5), 2)
    before = policy.get_state()
    with pytest.raises(ValidationError):
        getattr(policy, method)(X, np.array(actions), np.ones(n_rewards))
    after = policy.get_state()
    assert policy.t == 0 and after.keys() == before.keys()
    for key, value in before.items():
        np.testing.assert_array_equal(np.asarray(after[key]), np.asarray(value), err_msg=key)
