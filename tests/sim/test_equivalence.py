"""The experiment layers on both engines: bit-identical outcomes.

The engine contract itself is checked by the harness
(``test_harness.py``); these tests pin that the experiment entry points
wire both engines alike — ``run_setting`` across encoders and modes
(curves, counts, privacy reports) and the multi-round ``DeploymentLoop``
(round stats and every user's policy state).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AgentMode, P2BConfig
from repro.core.rounds import DeploymentLoop
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.encoding.grid import GridEncoder
from repro.encoding.lsh import LSHEncoder
from repro.experiments.runner import run_setting
from repro.sim import EngineConfig

from _testkit import N_FEATURES, assert_states_equal, encoder

SETTINGS = {
    "warm-private/kmeans/one-hot": (AgentMode.WARM_PRIVATE, "kmeans", "one-hot"),
    "warm-private/lsh/centroid": (AgentMode.WARM_PRIVATE, "lsh", "centroid"),
    "warm-private/grid/one-hot": (AgentMode.WARM_PRIVATE, "grid", "one-hot"),
    "cold": (AgentMode.COLD, None, "one-hot"),
    "warm-nonprivate": (AgentMode.WARM_NONPRIVATE, None, "one-hot"),
}


def _encoder(name):
    if name == "lsh":
        return LSHEncoder(n_bits=3, n_features=N_FEATURES, seed=3).fit()
    if name == "grid":
        return GridEncoder(n_features=N_FEATURES, q=1)
    return None if name is None else encoder(name)


@pytest.mark.parametrize("measure", ["realized", "expected"])
@pytest.mark.parametrize("label", sorted(SETTINGS))
def test_run_setting_engines_identical(label, measure):
    mode, encoder_name, private_context = SETTINGS[label]
    enc = _encoder(encoder_name)
    config = P2BConfig(
        n_actions=3,
        n_features=N_FEATURES,
        n_codes=enc.n_codes if enc is not None else 8,
        p=0.9,
        window=4,
        shuffler_threshold=1,
        private_context=private_context,
    )
    results = {}
    for engine in ("sequential", "fleet"):
        results[engine] = run_setting(
            SyntheticPreferenceEnvironment(
                n_actions=3, n_features=N_FEATURES, weight_scale=8.0, seed=2
            ),
            config,
            mode,
            n_contributors=25 if mode != AgentMode.COLD else 0,
            n_eval_agents=8,
            eval_interactions=12,
            seed=31,
            encoder=enc,
            measure=measure,
            engine=engine,
        )
    seq, fleet = results["sequential"], results["fleet"]
    assert seq.mean_reward == fleet.mean_reward
    np.testing.assert_array_equal(seq.curve, fleet.curve)
    np.testing.assert_array_equal(seq.cumulative_curve, fleet.cumulative_curve)
    assert seq.n_reports == fleet.n_reports
    assert seq.n_released == fleet.n_released
    assert seq.privacy == fleet.privacy


@pytest.mark.slow
@pytest.mark.parametrize(
    "refresh,n_workers,private_context,schedule",
    [(False, 1, "one-hot", (10, 5, 0, 4)), (True, 2, "centroid", (8, 0, 0, 3, 0))],
    ids=["held", "refresh-pooled-centroid"],
)
def test_deployment_loop_engines_identical(refresh, n_workers, private_context, schedule):
    """Multi-round Fig. 1 loop, round by round: stats and every user's
    policy state agree across engines.  The fleet loop holds one runner
    that users join between rounds; ``refresh=False`` reuses its held
    stacks, ``refresh=True`` loads each model pull into them."""
    config = P2BConfig(
        n_actions=3,
        n_features=N_FEATURES,
        n_codes=8,
        p=0.9,
        window=4,
        max_reports_per_user=3,
        shuffler_threshold=1,
        private_context=private_context,
    )

    def build(engine):
        env = SyntheticPreferenceEnvironment(
            n_actions=3, n_features=N_FEATURES, weight_scale=8.0, seed=2
        )
        return DeploymentLoop(
            config,
            env,
            interactions_per_round=8,
            refresh=refresh,
            seed=11,
            engine=EngineConfig(engine=engine, n_workers=n_workers),
        )

    loop_seq, loop_fleet = build("sequential"), build("fleet")
    for new_users in schedule:
        assert loop_seq.run_round(new_users=new_users) == loop_fleet.run_round(new_users=new_users)
        for (a, _), (b, _) in zip(loop_seq._users, loop_fleet._users, strict=True):
            assert_states_equal(a.policy, b.policy, a.agent_id)
    assert loop_seq.privacy_report() == loop_fleet.privacy_report()
    np.testing.assert_array_equal(
        loop_seq.mean_reward_trajectory, loop_fleet.mean_reward_trajectory
    )
