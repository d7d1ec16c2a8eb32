"""Tests for repro.bandits.state (policy registry / warm-start path)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import (
    EpsilonGreedy,
    LinUCB,
    LinearThompsonSampling,
    RandomPolicy,
    UCB1,
    clone_policy,
    policy_from_state,
    register_policy,
)
from repro.utils.exceptions import ValidationError
from repro.utils.serialization import state_from_json, state_to_json


ALL_POLICIES = [
    lambda: LinUCB(3, 4, seed=0),
    lambda: LinearThompsonSampling(3, 4, seed=0),
    lambda: EpsilonGreedy(3, 4, seed=0),
    lambda: UCB1(3, 4, seed=0),
    lambda: RandomPolicy(3, 4, seed=0),
]


@pytest.mark.parametrize("factory", ALL_POLICIES)
def test_round_trip_through_registry(factory, rng):
    pol = factory()
    for _ in range(12):
        pol.update(rng.normal(size=4), int(rng.integers(3)), float(rng.random()))
    restored = policy_from_state(pol.get_state(), seed=123)
    assert type(restored) is type(pol)
    assert restored.t == pol.t
    x = rng.normal(size=4)
    np.testing.assert_allclose(restored.expected_rewards(x), pol.expected_rewards(x), atol=1e-9)


@pytest.mark.parametrize("factory", ALL_POLICIES)
def test_round_trip_through_json_wire_format(factory, rng):
    """The server→device payload passes through JSON; must be lossless."""
    pol = factory()
    for _ in range(6):
        pol.update(rng.normal(size=4), int(rng.integers(3)), float(rng.random()))
    wire = state_to_json(pol.get_state())
    restored = policy_from_state(state_from_json(wire), seed=1)
    x = rng.normal(size=4)
    np.testing.assert_allclose(restored.expected_rewards(x), pol.expected_rewards(x), atol=1e-9)


def test_unknown_kind_raises():
    with pytest.raises(ValidationError, match="unknown policy kind"):
        policy_from_state({"kind": "nope", "n_arms": 1, "n_features": 1, "t": 0})


def test_register_duplicate_raises():
    with pytest.raises(ValidationError, match="already registered"):
        register_policy("linucb", lambda s, seed: None)  # type: ignore[arg-type]


def test_clone_policy_independent(rng):
    pol = LinUCB(2, 3, seed=0)
    pol.update(np.ones(3), 0, 1.0)
    twin = clone_policy(pol, seed=9)
    twin.update(np.ones(3), 0, 5.0)
    assert twin.t == pol.t + 1
    assert pol.b[0, 0] != twin.b[0, 0]


def test_clone_does_not_share_arrays():
    pol = LinUCB(2, 2, seed=0)
    twin = clone_policy(pol)
    twin.b[0, 0] = 42.0
    assert pol.b[0, 0] == 0.0


class TestSetStateDefensiveCopy:
    """Regression: set_state must copy snapshot arrays, not alias them.

    DeploymentLoop warm-starts every enrolled agent from *one* snapshot
    dict; with aliasing, all agents silently shared (and jointly
    corrupted) the same statistics arrays.  The fleet engine's
    equivalence suite exposed the bug — the stacked path copies state,
    the sequential path aliased it.
    """

    def test_two_agents_from_one_snapshot_stay_independent(self):
        import numpy as np

        from repro.bandits import CodeLinUCB, LinUCB

        for cls, ctx in (
            (CodeLinUCB, np.array([1.0, 0.0, 0.0])),
            (LinUCB, np.array([0.5, 0.3, 0.2])),
        ):
            donor = cls(n_arms=2, n_features=3, seed=0)
            donor.update(ctx, 0, 1.0)
            snapshot = donor.get_state()
            a = cls(n_arms=2, n_features=3, seed=1)
            b = cls(n_arms=2, n_features=3, seed=2)
            a.set_state(snapshot)
            b.set_state(snapshot)
            before = b.get_state()
            a.update(ctx, 1, 1.0)  # must not leak into b or the snapshot
            after = b.get_state()
            for key in before:
                np.testing.assert_array_equal(
                    np.asarray(before[key]), np.asarray(after[key]),
                    err_msg=f"{cls.__name__} set_state aliased {key!r}",
                )
