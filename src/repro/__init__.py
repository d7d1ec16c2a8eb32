"""repro — Privacy-Preserving Bandits (P2B), a reproduction of
Malekzadeh et al., *Privacy-Preserving Bandits*, MLSys 2020
(arXiv:1909.04421).

Quickstart::

    from repro import P2BConfig, P2BSystem, SyntheticPreferenceEnvironment

    env = SyntheticPreferenceEnvironment(n_actions=10, n_features=10, seed=0)
    config = P2BConfig(n_actions=10, n_features=10, n_codes=64, p=0.5)
    system = P2BSystem(config, mode="warm-private", seed=0)

    contributors = [system.new_agent() for _ in range(500)]
    for agent, user in zip(contributors, env.user_population(500, seed=1)):
        for _ in range(10):
            x = user.next_context()
            a = agent.act(x)
            agent.learn(x, a, user.reward(a))
    system.collect(contributors)          # shuffle -> threshold -> train
    print(system.privacy_report())        # eps = ln 2 at p = 0.5

Subpackages:

- :mod:`repro.core` — the P2B system (agents, shuffler, server).
- :mod:`repro.encoding` — context encoders (quantization, grid, k-means, LSH).
- :mod:`repro.privacy` — crowd-blending / differential-privacy accounting.
- :mod:`repro.bandits` — contextual bandit algorithms (LinUCB et al.).
- :mod:`repro.clustering` — from-scratch k-means substrates.
- :mod:`repro.hashing` — feature hashing.
- :mod:`repro.data` — benchmark environments (synthetic / multi-label / Criteo-like).
- :mod:`repro.experiments` — the paper's evaluation harness (Figs. 2-7).
- :mod:`repro.sim` — the vectorized fleet engine (population-scale
  simulation, bit-identical to the sequential reference).
"""

from __future__ import annotations

from .bandits import (
    BanditPolicy,
    CodeLinUCB,
    EpsilonGreedy,
    LinearThompsonSampling,
    LinUCB,
    RandomPolicy,
    UCB1,
    policy_from_state,
)
from .core import (
    AgentMode,
    EncodedReport,
    LocalAgent,
    NonPrivateServer,
    P2BConfig,
    P2BSystem,
    PrivateServer,
    RandomizedParticipation,
    RawReport,
    Shuffler,
)
from .data import (
    CriteoBanditEnvironment,
    MultilabelBanditEnvironment,
    SyntheticPreferenceEnvironment,
    build_criteo_actions,
    make_criteo_like,
    make_mediamill_like,
    make_textmining_like,
)
from .encoding import Encoder, GridEncoder, KMeansEncoder, LSHEncoder
from .experiments import compare_settings, run_setting
from .sim import FleetResult, FleetRunner, fleet_supported
from .privacy import (
    PrivacyReport,
    context_cardinality,
    delta_bound,
    epsilon_from_p,
    p_from_epsilon,
    verify_crowd_blending,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core system
    "P2BSystem",
    "P2BConfig",
    "AgentMode",
    "LocalAgent",
    "Shuffler",
    "PrivateServer",
    "NonPrivateServer",
    "RandomizedParticipation",
    "EncodedReport",
    "RawReport",
    # bandits
    "BanditPolicy",
    "LinUCB",
    "CodeLinUCB",
    "LinearThompsonSampling",
    "EpsilonGreedy",
    "UCB1",
    "RandomPolicy",
    "policy_from_state",
    # encoders
    "Encoder",
    "KMeansEncoder",
    "GridEncoder",
    "LSHEncoder",
    # privacy
    "PrivacyReport",
    "epsilon_from_p",
    "p_from_epsilon",
    "delta_bound",
    "context_cardinality",
    "verify_crowd_blending",
    # environments
    "SyntheticPreferenceEnvironment",
    "MultilabelBanditEnvironment",
    "CriteoBanditEnvironment",
    "make_mediamill_like",
    "make_textmining_like",
    "make_criteo_like",
    "build_criteo_actions",
    # experiments
    "run_setting",
    "compare_settings",
    # fleet engine
    "FleetRunner",
    "FleetResult",
    "fleet_supported",
]
