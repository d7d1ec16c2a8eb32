"""Tests for repro.bandits.base."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bandits import LinUCB, argmax_random_tiebreak
from repro.utils.exceptions import ValidationError


class TestArgmaxRandomTiebreak:
    KEY = np.uint64(0x5EED)

    def test_unique_max(self):
        assert argmax_random_tiebreak(np.array([0.1, 0.9, 0.3]), self.KEY, 0) == 1

    def test_ties_cover_all_candidates(self):
        picks = {
            argmax_random_tiebreak(np.array([1.0, 1.0, 0.0]), self.KEY, c) for c in range(100)
        }
        assert picks == {0, 1}

    def test_ties_roughly_uniform(self):
        picks = [argmax_random_tiebreak(np.ones(4), self.KEY, c) for c in range(4000)]
        counts = np.bincount(picks, minlength=4)
        assert counts.min() > 800

    def test_draw_is_a_function_of_key_and_counter(self):
        scores = np.ones(5)
        first = [argmax_random_tiebreak(scores, self.KEY, c) for c in range(50)]
        assert first == [argmax_random_tiebreak(scores, self.KEY, c) for c in range(50)]
        other = [argmax_random_tiebreak(scores, self.KEY + np.uint64(1), c) for c in range(50)]
        assert first != other


class TestBanditPolicyInterface:
    def test_context_validation(self):
        pol = LinUCB(n_arms=3, n_features=4, seed=0)
        with pytest.raises(ValidationError, match="length"):
            pol.select(np.ones(5))

    def test_action_validation(self):
        pol = LinUCB(n_arms=3, n_features=2, seed=0)
        with pytest.raises(ValidationError):
            pol.update(np.ones(2), 3, 1.0)
        with pytest.raises(ValidationError):
            pol.update(np.ones(2), -1, 1.0)

    def test_update_batch_shape_mismatch(self):
        pol = LinUCB(n_arms=2, n_features=2, seed=0)
        with pytest.raises(ValidationError, match="matching"):
            pol.update_batch(np.ones((3, 2)), np.zeros(2, dtype=int), np.ones(3))

    def test_invalid_constructor_args(self):
        with pytest.raises(ValidationError):
            LinUCB(n_arms=0, n_features=2)
        with pytest.raises(ValidationError):
            LinUCB(n_arms=2, n_features=0)

    def test_t_counts_updates(self):
        pol = LinUCB(n_arms=2, n_features=2, seed=0)
        for _ in range(5):
            pol.update(np.ones(2), 0, 1.0)
        assert pol.t == 5

    def test_repr(self):
        pol = LinUCB(n_arms=2, n_features=3, seed=0)
        assert "n_arms=2" in repr(pol)
