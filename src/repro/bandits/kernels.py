"""Shared numeric kernels for the LinUCB family, batched over leading dims.

Every kernel contracts with :func:`numpy.einsum` over ``...``-broadcast
leading dimensions, so the same function serves three callers:

* the **scalar policies** (one agent, no leading dims) — e.g.
  :meth:`repro.bandits.linucb.LinUCB.ucb_scores`;
* the **server batch path** (one policy, ``n`` contexts);
* the **fleet engine** (:mod:`repro.sim`) — ``n`` agents' stacked
  states stepped simultaneously.

This sharing is load-bearing, not cosmetic: the fleet engine's
equivalence guarantee (``tests/sim/``) is *bit-identical* outputs, and
``np.einsum`` without ``optimize`` accumulates each output element over
the contracted labels in an order independent of the broadcast leading
dimensions.  BLAS calls (``@``/``np.dot``) do not share that property —
dgemv and batched dgemm may round differently — which is why the scalar
policies route through these kernels instead of ``@``.  Do not
"simplify" a kernel call back to ``@`` without re-running the
equivalence suite.

Leading-axis independence
-------------------------
Because einsum (with ``optimize=False``) computes each output element as
an independent sum over the *contracted* labels only, calling a kernel
on row slices of the stacked (agent) axis and concatenating the results
equals the whole-array call bitwise.  ``tests/bandits/test_kernels.py``
pins that "size-1 vs size-n" contract for every bit-tier kernel,
including adversarial slice sizes (1, non-divisors, ``>= n``).

Fast-tier kernels
-----------------
:func:`ucb_explore_fast` (a BLAS batched matmul over an ``x x^T`` outer
product) and :func:`sm_quad_downdate` (the rank-1 incremental form of
the UCB quadratic) trade the bit contract for speed.  They are **not**
leading-dim-independent and must only be called from ``fast``-tier
stacked states (:class:`repro.sim.stacked.StackedLinUCBFast`), never
from the scalar policies or the bit-tier stackers.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mat_vec",
    "vec_dot",
    "linear_scores",
    "ucb_explore",
    "theta_refresh",
    "sherman_morrison",
    "ucb_explore_fast",
    "sm_quad_downdate",
]


def mat_vec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``M @ v`` over broadcast leading dims: ``(..., i, j), (..., j) -> (..., i)``."""
    return np.einsum("...ij,...j->...i", M, v)


def vec_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product over the last axis: ``(..., i), (..., i) -> (...)``."""
    return np.einsum("...i,...i->...", a, b)


def linear_scores(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-arm linear estimates ``theta_a . x``: ``(..., a, d), (..., d) -> (..., a)``."""
    return np.einsum("...ad,...d->...a", theta, x)


def theta_refresh(A_inv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ridge posterior means ``theta_a = A_a^{-1} b_a`` for every arm.

    Shapes: ``(..., a, d, d), (..., a, d) -> (..., a, d)`` — the per-arm
    refresh every dense-linear policy performs after a ``set_state`` or
    a batch retrain, shared here so the scalar policies
    (``linucb``/``thompson``/``epsilon_greedy``) and the stacked fleet
    states compute it through one kernel.  This is :func:`mat_vec` with
    the arm axis folded into the broadcast dims; it inherits the same
    bit-identity contract.
    """
    return np.einsum("...ij,...j->...i", A_inv, b)


def ucb_explore(x: np.ndarray, A_inv: np.ndarray) -> np.ndarray:
    """Per-arm quadratic forms ``x^T A_a^{-1} x``, clamped at zero.

    Shapes: ``(..., d), (..., a, d, d) -> (..., a)``.  The clamp guards
    the tiny negatives that accumulate in Sherman–Morrison inverses.

    Computed as two 2-operand contractions rather than one 3-operand
    einsum: the 2-operand forms hit numpy's specialized sum-of-products
    loops (the 3-operand generic loop is ~5x slower at fleet scale),
    and each contraction remains leading-dim-independent, preserving
    the scalar/batched bit-equivalence this module guarantees.
    """
    Ax = np.einsum("...aij,...j->...ai", A_inv, x)
    explore = np.einsum("...i,...ai->...a", x, Ax)
    np.maximum(explore, 0.0, out=explore)
    return explore


def ucb_explore_fast(x: np.ndarray, A_inv: np.ndarray) -> np.ndarray:
    """Fast-tier ``x^T A_a^{-1} x``: one batched matmul over ``x x^T``.

    Same shapes and clamp as :func:`ucb_explore`, but the double
    contraction is folded into a single batched GEMV against the
    flattened outer product: ``q[n, a] = A_inv[n, a].reshape(d*d) .
    (x_n ⊗ x_n)``.  BLAS accumulation order is *not*
    leading-dim-independent, so this kernel lives outside the bit
    contract — ``fast``-tier stacked states only, gated by the
    statistical-equivalence bands in ``tests/sim/``.  On float32
    operands it runs the whole contraction at single-precision SIMD
    width (~3.5x over the float64 bit kernel on the bench workload).
    """
    if x.ndim + 2 != A_inv.ndim or x.ndim < 2 or x.shape[0] != A_inv.shape[0]:
        # no stacked leading axis — fall back to the exact kernel
        return ucb_explore(x, A_inv)
    d = x.shape[-1]
    flat = A_inv.reshape(A_inv.shape[:-2] + (d * d,))
    outer = (x[..., :, None] * x[..., None, :]).reshape(x.shape[:-1] + (d * d, 1))
    out = (flat @ outer)[..., 0]
    np.maximum(out, 0.0, out=out)
    return out


def sm_quad_downdate(q: np.ndarray) -> np.ndarray:
    """Quadratic form after a same-vector Sherman–Morrison downdate.

    If ``q = x^T A^{-1} x`` and the inverse is downdated with the *same*
    vector (``A_inv' = A_inv - (A_inv x)(A_inv x)^T / (1 + q)``, i.e.
    the pulled arm absorbed the context it was scored with), then::

        x^T A_inv' x = q - q^2 / (1 + q) = q / (1 + q)

    — the whole ``O(d^2)`` rescore of the pulled arm collapses to one
    scalar expression per agent.  Fixed-context shards exploit this to
    keep per-arm quadratics incrementally instead of recomputing
    ``x^T A^{-1} x`` for all arms each round
    (:class:`repro.sim.stacked.StackedLinUCBFast`).  Algebraically
    exact, but not bitwise the recomputation — fast tier only.
    """
    return q / (1.0 + q)


def sherman_morrison(A_inv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rank-1 downdate ``(A + x x^T)^{-1}`` from ``A^{-1}``, in place.

    Shapes: ``(..., d, d), (..., d)``.  Returns ``A_inv`` (mutated) for
    chaining.  The identity::

        (A + x x^T)^{-1} = A^{-1} - (A^{-1} x)(A^{-1} x)^T / (1 + x^T A^{-1} x)
    """
    Ax = mat_vec(A_inv, x)
    denom = 1.0 + vec_dot(x, Ax)
    A_inv -= (Ax[..., :, None] * Ax[..., None, :]) / np.asarray(denom)[..., None, None]
    return A_inv
