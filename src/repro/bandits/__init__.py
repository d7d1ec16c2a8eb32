"""Contextual-bandit policies.

:class:`LinUCB` is the paper's on-device agent; the rest are baselines
(UCB1, random) and the future-work alternatives the paper names
(Thompson sampling, epsilon-greedy).
"""

from .base import BanditPolicy, argmax_random_tiebreak
from .code_linucb import CodeLinUCB
from .epsilon_greedy import EpsilonGreedy
from .linucb import LinUCB
from .random_policy import RandomPolicy
from .state import (
    POLICY_REGISTRY,
    clone_policy,
    policy_from_state,
    policy_state_nbytes,
    register_policy,
)
from .thompson import LinearThompsonSampling
from .ucb1 import UCB1

__all__ = [
    "BanditPolicy",
    "argmax_random_tiebreak",
    "LinUCB",
    "CodeLinUCB",
    "LinearThompsonSampling",
    "EpsilonGreedy",
    "UCB1",
    "RandomPolicy",
    "policy_from_state",
    "register_policy",
    "clone_policy",
    "POLICY_REGISTRY",
    "policy_state_nbytes",
]
