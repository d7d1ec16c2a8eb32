"""Tests for repro.encoding.quantization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.encoding import grid_resolution, is_on_grid, quantize_simplex, to_grid_integers
from repro.utils.math import normalize_simplex


def _largest_remainder_loop(X: np.ndarray, q: int) -> np.ndarray:
    """Reference: floor, then one extra unit per row to the largest
    remainders in stable descending order, one row at a time."""
    scale = 10**q
    scaled = normalize_simplex(X, axis=1) * scale
    out = np.floor(scaled).astype(np.int64)
    for i in range(out.shape[0]):
        need = scale - int(out[i].sum())
        order = np.argsort(-(scaled[i] - out[i]), kind="stable")
        out[i, order[:need]] += 1
    return out


class TestToGridIntegers:
    def test_exact_grid_point_unchanged(self):
        x = np.array([0.6, 0.3, 0.1])
        np.testing.assert_array_equal(to_grid_integers(x, 1), [6, 3, 1])

    def test_sum_always_exact(self):
        x = np.array([1 / 3, 1 / 3, 1 / 3])
        assert to_grid_integers(x, 1).sum() == 10

    def test_largest_remainder_assignment(self):
        # thirds: scaled = 3.33.. each; two get floor 3, first gets the extra
        np.testing.assert_array_equal(to_grid_integers(np.full(3, 1 / 3), 1), [4, 3, 3])

    def test_batch(self):
        X = np.array([[0.5, 0.5], [0.21, 0.79]])
        out = to_grid_integers(X, 1)
        assert out.shape == (2, 2)
        np.testing.assert_array_equal(out.sum(axis=1), [10, 10])

    def test_unnormalized_input_normalized_first(self):
        np.testing.assert_array_equal(to_grid_integers(np.array([2.0, 2.0]), 1), [5, 5])

    def test_higher_precision(self):
        out = to_grid_integers(np.array([0.123, 0.877]), 2)
        assert out.sum() == 100
        np.testing.assert_array_equal(out, [12, 88])

    @pytest.mark.parametrize("q", [1, 2])
    def test_batch_equals_row_by_row_on_ties(self, q):
        """The rank-mask distribution of leftover units matches both the
        row-by-row call and a plain largest-remainder loop, on inputs
        built to tie: equal remainders must go to the lowest index."""
        d = 6
        rows = [
            np.full(d, 1 / 3),  # uniform thirds: every remainder ties
            np.full(d, 1 / d),
            np.full(d, 7.0),  # constant rows
            np.zeros(d),  # all-zero: maps to uniform
            np.array([-1.0, 0.5, -0.25, 2.0, 0.0, -1.0]),  # negatives
            np.array([-2.0, -2.0, -2.0, 1.0, 1.0, 1.0]),
            np.array([0.5, 0.2, 0.1, 0.1, 0.1, 0.0]),  # exact grid points
            np.array([0.25, 0.25, 0.25, 0.25, 0.0, 0.0]),
        ]
        rows += list(np.eye(d))  # one-hot rows
        X = np.stack(rows)
        batch = to_grid_integers(X, q)
        row_by_row = np.stack([to_grid_integers(x, q) for x in X])
        np.testing.assert_array_equal(batch, row_by_row)
        np.testing.assert_array_equal(batch, _largest_remainder_loop(X, q))
        assert (batch.sum(axis=1) == 10**q).all()

    @given(
        hnp.arrays(
            np.float64,
            st.integers(2, 10),
            elements=st.floats(0.001, 100.0),
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=100)
    def test_property_sum_and_nonneg(self, x, q):
        out = to_grid_integers(x, q)
        assert out.sum() == 10**q
        assert (out >= 0).all()


class TestQuantizeSimplex:
    def test_grid_points(self):
        out = quantize_simplex(np.array([0.61, 0.29, 0.10]), 1)
        np.testing.assert_allclose(out, [0.6, 0.3, 0.1])

    def test_result_is_on_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.dirichlet(np.ones(6))
            assert is_on_grid(quantize_simplex(x, 1), 1)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = rng.dirichlet(np.ones(4))
        once = quantize_simplex(x, 1)
        np.testing.assert_array_equal(once, quantize_simplex(once, 1))

    def test_quantization_error_bounded(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.dirichlet(np.ones(5))
            err = np.abs(quantize_simplex(x, 1) - x).max()
            assert err <= 0.1  # one grid step


class TestGridResolution:
    def test_values(self):
        assert grid_resolution(1) == 10
        assert grid_resolution(3) == 1000

    def test_is_on_grid_rejects_off_grid(self):
        assert not is_on_grid(np.array([0.55, 0.45]), 1)
        assert is_on_grid(np.array([0.5, 0.5]), 1)
        assert not is_on_grid(np.array([0.6, 0.6]), 1)  # doesn't sum to 1
