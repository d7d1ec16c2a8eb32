"""Shared builders for the fleet/sequential equivalence suite.

Every helper builds *fresh but identically seeded* populations so a
test can run one copy through the sequential reference and another
through the fleet engine and demand bit-identical outcomes.
"""

from __future__ import annotations

import numpy as np

from repro.core.agent import LocalAgent
from repro.core.config import AgentMode
from repro.core.participation import RandomizedParticipation
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.utils.rng import spawn_seeds

N_ACTIONS = 4
N_FEATURES = 5


def make_population(
    policy_factory,
    mode: str,
    n_agents: int,
    seed: int,
    *,
    encoder=None,
    private_context: str = "one-hot",
    p: float = 0.8,
    window: int = 3,
    max_reports: int = 2,
):
    """Build ``(agents, sessions)`` for one engine run.

    ``policy_factory(n_arms, n_features, seed)`` must return a policy
    sized for the *acting* space (raw ``d``, codebook ``k``, or ``d``
    again for centroid mode).
    """
    env = SyntheticPreferenceEnvironment(
        n_actions=N_ACTIONS, n_features=N_FEATURES, seed=7
    )
    if mode == AgentMode.WARM_PRIVATE and private_context == "one-hot":
        acting_dim = encoder.n_codes
    else:
        acting_dim = N_FEATURES
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, part_seed, session_seed = s.spawn(3)
        policy = policy_factory(N_ACTIONS, acting_dim, policy_seed)
        participation = (
            None
            if mode == AgentMode.COLD
            else RandomizedParticipation(
                p=p, window=window, max_reports=max_reports, seed=part_seed
            )
        )
        agents.append(
            LocalAgent(
                f"agent-{i}",
                policy,
                mode=mode,
                encoder=encoder if mode == AgentMode.WARM_PRIVATE else None,
                participation=participation,
                private_context=private_context,
            )
        )
        sessions.append(env.new_user(session_seed))
    return agents, sessions


def simulate_sequential(agents, sessions, n_interactions: int) -> np.ndarray:
    """The reference loop (mirrors ``runner._simulate_agent``)."""
    from repro.experiments.runner import _simulate_agent

    return np.stack(
        [_simulate_agent(a, s, n_interactions)[0] for a, s in zip(agents, sessions)]
    )


def run_split(runner, total: int, split: int | None, **run_kwargs) -> list:
    """Run ``total`` steps as consecutive ``runner.run(split)`` calls on
    one held fleet (the last one shorter; ``None`` = one run) and return
    the per-run results — by the plan contract they must equal one
    sequential horizon of ``total`` steps."""
    split = split or total
    return [
        runner.run(min(split, total - start), **run_kwargs)
        for start in range(0, total, split)
    ]


def join_runs(results, field: str = "rewards") -> np.ndarray:
    """Concatenate one result matrix of consecutive runs along time."""
    return np.concatenate([getattr(r, field) for r in results], axis=1)


def assert_states_equal(policy_a, policy_b, label: str = "") -> None:
    """Bit-exact ``get_state`` comparison."""
    state_a, state_b = policy_a.get_state(), policy_b.get_state()
    assert state_a.keys() == state_b.keys(), label
    for key in state_a:
        np.testing.assert_array_equal(
            np.asarray(state_a[key]), np.asarray(state_b[key]), err_msg=f"{label}:{key}"
        )


def make_kmeans_encoder():
    from repro.encoding.kmeans_encoder import KMeansEncoder

    return KMeansEncoder(
        n_codes=8, n_features=N_FEATURES, n_fit_samples=600, seed=3
    ).fit()
