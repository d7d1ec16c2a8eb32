"""Policy (de)serialization registry.

The P2B server snapshots its central model with ``policy.get_state()``
and ships the dict to devices; a device reconstructs its warm-started
local agent with :func:`policy_from_state`.  The registry maps the
``kind`` tag written by each policy class back to a constructor.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from ..utils.exceptions import ValidationError
from .base import BanditPolicy
from .code_linucb import CodeLinUCB
from .epsilon_greedy import EpsilonGreedy
from .linucb import LinUCB
from .random_policy import RandomPolicy
from .thompson import LinearThompsonSampling
from .ucb1 import UCB1

__all__ = [
    "policy_from_state",
    "register_policy",
    "POLICY_REGISTRY",
    "clone_policy",
    "policy_state_nbytes",
]


def policy_state_nbytes(policy: BanditPolicy) -> int:
    """Bytes held by a policy's learned-state arrays.

    Sums the ``nbytes`` of every ndarray leaf in
    :meth:`BanditPolicy.get_state` — the table footprint the memory
    bench compares across exactness tiers (a ``fast``-tier writeback
    leaves float32 tables, halving this).  Scalars, the ``kind`` tag,
    and generator state are not counted.
    """
    return sum(
        v.nbytes for v in policy.get_state().values() if isinstance(v, np.ndarray)
    )


def _build_linucb(state: Mapping[str, Any], seed) -> BanditPolicy:
    return LinUCB(
        int(state["n_arms"]),
        int(state["n_features"]),
        alpha=float(state["alpha"]),
        ridge=float(state["ridge"]),
        seed=seed,
    )


def _build_ts(state: Mapping[str, Any], seed) -> BanditPolicy:
    return LinearThompsonSampling(
        int(state["n_arms"]),
        int(state["n_features"]),
        v=float(state["v"]),
        ridge=float(state["ridge"]),
        seed=seed,
    )


def _build_eps(state: Mapping[str, Any], seed) -> BanditPolicy:
    return EpsilonGreedy(
        int(state["n_arms"]),
        int(state["n_features"]),
        epsilon=float(state["epsilon"]),
        decay=float(state["decay"]),
        ridge=float(state["ridge"]),
        seed=seed,
    )


def _build_ucb1(state: Mapping[str, Any], seed) -> BanditPolicy:
    return UCB1(int(state["n_arms"]), int(state["n_features"]), c=float(state["c"]), seed=seed)


def _build_random(state: Mapping[str, Any], seed) -> BanditPolicy:
    return RandomPolicy(int(state["n_arms"]), int(state["n_features"]), seed=seed)


def _build_code_linucb(state: Mapping[str, Any], seed) -> BanditPolicy:
    return CodeLinUCB(
        int(state["n_arms"]),
        int(state["n_features"]),
        alpha=float(state["alpha"]),
        ridge=float(state["ridge"]),
        seed=seed,
    )


POLICY_REGISTRY: dict[str, Callable[[Mapping[str, Any], Any], BanditPolicy]] = {
    LinUCB.kind: _build_linucb,
    CodeLinUCB.kind: _build_code_linucb,
    LinearThompsonSampling.kind: _build_ts,
    EpsilonGreedy.kind: _build_eps,
    UCB1.kind: _build_ucb1,
    RandomPolicy.kind: _build_random,
}


def register_policy(kind: str, builder: Callable[[Mapping[str, Any], Any], BanditPolicy]) -> None:
    """Register a custom policy ``kind`` for :func:`policy_from_state`.

    Raises
    ------
    ValidationError
        If ``kind`` is already registered (guards accidental shadowing
        of the built-in policies).
    """
    if kind in POLICY_REGISTRY:
        raise ValidationError(f"policy kind {kind!r} is already registered")
    POLICY_REGISTRY[kind] = builder


def policy_from_state(state: Mapping[str, Any], *, seed=None) -> BanditPolicy:
    """Reconstruct a policy from a :meth:`BanditPolicy.get_state` dict.

    The returned policy has fresh internal randomness (``seed``) but the
    exact learned parameters of the snapshot — this is precisely the
    "warm start" a P2B device performs on a model received from the
    server.
    """
    kind = state.get("kind")
    if kind not in POLICY_REGISTRY:
        raise ValidationError(
            f"unknown policy kind {kind!r}; known: {sorted(POLICY_REGISTRY)}"
        )
    policy = POLICY_REGISTRY[kind](state, seed)
    policy.set_state(state)
    return policy


def clone_policy(policy: BanditPolicy, *, seed=None) -> BanditPolicy:
    """Deep copy of a policy's learned state with fresh randomness."""
    return policy_from_state(policy.get_state(), seed=seed)
