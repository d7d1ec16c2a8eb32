"""Tests for repro.bandits.kernels — leading-axis independence and the
fast-tier kernels.

The load-bearing property is *bit identity*: calling a bit-tier kernel
on row slices of the leading (agent) axis and concatenating the results
must produce the same bytes as the whole-array call for every slice
size, because the fleet engine's ``exactness="bit"`` contract (one
agent vs a stacked shard of ``n``) rests on it.  The fast-tier kernels
(:func:`ucb_explore_fast`, :func:`sm_quad_downdate`) are gated
numerically instead — algebraically exact, tolerance-checked here,
statistically gated at fleet level in ``tests/sim/``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bandits.kernels import (
    linear_scores,
    mat_vec,
    sherman_morrison,
    sm_quad_downdate,
    theta_refresh,
    ucb_explore,
    ucb_explore_fast,
    vec_dot,
)

N, A, D = 23, 4, 5  # deliberately not divisible by the slice sizes below
BLOCKS = [1, 2, 7, 23, 100]  # 1, non-divisors, == n, >> n


def _stacked_operands(seed=0, n=N, dtype=np.float64):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, D)).astype(dtype)
    theta = rng.normal(size=(n, A, D)).astype(dtype)
    b = rng.normal(size=(n, A, D)).astype(dtype)
    # well-conditioned SPD-ish inverses: I + small symmetric noise
    M = rng.normal(size=(n, A, D, D)) * 0.05
    A_inv = (np.eye(D) + (M + M.swapaxes(-1, -2)) / 2).astype(dtype)
    return x, theta, b, A_inv


def _sliced(kernel, block, *operands):
    """``kernel`` called per ``block``-row slice of the leading axis of
    every operand, results concatenated along that axis."""
    n = operands[0].shape[0]
    return np.concatenate(
        [
            kernel(*(op[start : start + block] for op in operands))
            for start in range(0, n, block)
        ]
    )


def _sherman_morrison(A_inv, x):
    # the kernel downdates in place: give every call its own copy
    return sherman_morrison(A_inv.copy(), x)


class TestLeadingAxisIndependence:
    @pytest.mark.parametrize("block", BLOCKS)
    def test_mat_vec_sliced_equals_whole(self, block):
        _, _, b, A_inv = _stacked_operands()
        M, v = A_inv[:, 0], b[:, 0]  # (n, d, d), (n, d)
        np.testing.assert_array_equal(mat_vec(M, v), _sliced(mat_vec, block, M, v))

    @pytest.mark.parametrize("block", BLOCKS)
    def test_vec_dot_sliced_equals_whole(self, block):
        x, theta, _, _ = _stacked_operands()
        xa = x[:, None, :]  # (n, 1, d) against (n, A, d)
        np.testing.assert_array_equal(
            vec_dot(theta, xa), _sliced(vec_dot, block, theta, xa)
        )

    @pytest.mark.parametrize("block", BLOCKS)
    def test_linear_scores_sliced_equals_whole(self, block):
        x, theta, _, _ = _stacked_operands()
        np.testing.assert_array_equal(
            linear_scores(theta, x), _sliced(linear_scores, block, theta, x)
        )

    @pytest.mark.parametrize("block", BLOCKS)
    def test_ucb_explore_sliced_equals_whole(self, block):
        x, _, _, A_inv = _stacked_operands()
        np.testing.assert_array_equal(
            ucb_explore(x, A_inv), _sliced(ucb_explore, block, x, A_inv)
        )

    @pytest.mark.parametrize("block", BLOCKS)
    def test_theta_refresh_sliced_equals_whole(self, block):
        _, _, b, A_inv = _stacked_operands()
        np.testing.assert_array_equal(
            theta_refresh(A_inv, b), _sliced(theta_refresh, block, A_inv, b)
        )

    @pytest.mark.parametrize("block", BLOCKS)
    def test_sherman_morrison_sliced_equals_whole(self, block):
        x, _, _, A_inv = _stacked_operands()
        A0 = A_inv[:, 0]  # (n, d, d)
        np.testing.assert_array_equal(
            _sherman_morrison(A0, x), _sliced(_sherman_morrison, block, A0, x)
        )

    @given(st.integers(0, 2**31 - 1), st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_property_any_slice_size_is_bitwise(self, seed, block):
        x, theta, b, A_inv = _stacked_operands(seed=seed, n=17)
        np.testing.assert_array_equal(
            linear_scores(theta, x), _sliced(linear_scores, block, theta, x)
        )
        np.testing.assert_array_equal(
            ucb_explore(x, A_inv), _sliced(ucb_explore, block, x, A_inv)
        )
        np.testing.assert_array_equal(
            theta_refresh(A_inv, b), _sliced(theta_refresh, block, A_inv, b)
        )
        np.testing.assert_array_equal(
            _sherman_morrison(A_inv[:, 0], x),
            _sliced(_sherman_morrison, block, A_inv[:, 0], x),
        )
        np.testing.assert_array_equal(
            vec_dot(theta, x[:, None, :]),
            _sliced(vec_dot, block, theta, x[:, None, :]),
        )


class TestThetaRefresh:
    def test_matches_explicit_einsum(self):
        _, _, b, A_inv = _stacked_operands(seed=1)
        np.testing.assert_array_equal(
            theta_refresh(A_inv, b), np.einsum("...ij,...j->...i", A_inv, b)
        )

    def test_scalar_policy_shape(self):
        rng = np.random.default_rng(2)
        A_inv = np.eye(D) + rng.normal(size=(A, D, D)) * 0.01
        b = rng.normal(size=(A, D))
        out = theta_refresh(A_inv, b)
        assert out.shape == (A, D)
        np.testing.assert_array_equal(out, np.einsum("aij,aj->ai", A_inv, b))


class TestFastTierKernels:
    def test_ucb_explore_fast_matches_exact_kernel(self):
        x, _, _, A_inv = _stacked_operands(seed=4)
        np.testing.assert_allclose(
            ucb_explore_fast(x, A_inv), ucb_explore(x, A_inv), rtol=1e-10
        )

    @pytest.mark.parametrize("block", BLOCKS)
    def test_ucb_explore_fast_sliced(self, block):
        x, _, _, A_inv = _stacked_operands(seed=5, dtype=np.float32)
        np.testing.assert_allclose(
            _sliced(ucb_explore_fast, block, x, A_inv),
            ucb_explore(x, A_inv),
            rtol=1e-4,
        )

    def test_ucb_explore_fast_falls_back_without_leading_axis(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=D)
        A_inv = np.eye(D) + rng.normal(size=(A, D, D)) * 0.01
        np.testing.assert_array_equal(
            ucb_explore_fast(x, A_inv), ucb_explore(x, A_inv)
        )

    def test_sm_quad_downdate_matches_recompute(self):
        rng = np.random.default_rng(7)
        A_inv = np.eye(D) * 0.8
        x = rng.normal(size=D)
        q = float(ucb_explore(x, A_inv[None, None])[0, 0])
        sherman_morrison(A_inv, x)
        recomputed = float(ucb_explore(x, A_inv[None, None])[0, 0])
        assert sm_quad_downdate(q) == pytest.approx(recomputed, rel=1e-12)

    def test_sm_quad_downdate_vectorized(self):
        q = np.array([[0.5, 2.0], [0.0, 10.0]])
        np.testing.assert_allclose(sm_quad_downdate(q), q / (1.0 + q))
