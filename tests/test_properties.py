"""Cross-module property-based tests (hypothesis).

These pin the invariants that the paper's analysis rests on, over
randomized inputs rather than fixed examples:

* serialization: arbitrary policy states survive the JSON wire format;
* quantization: every input lands exactly on the stars-and-bars grid,
  so Eq. 1's cardinality really covers the encoder's input space;
* encoders: determinism (the eps_bar = 0 premise) and code-range
  validity for arbitrary contexts;
* participation + shuffler composed: the released batch never violates
  crowd-blending and never exceeds the population's report budget.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import EncodedReport, RandomizedParticipation, Shuffler
from repro.encoding import GridEncoder, KMeansEncoder, LSHEncoder, quantize_simplex
from repro.privacy import composition_rank, context_cardinality, verify_crowd_blending
from repro.utils.serialization import state_from_json, state_to_json, states_equal

from _released import record_released


# --------------------------------------------------------------------- #
# serialization fuzz
# --------------------------------------------------------------------- #
_scalars = st.one_of(
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.text(max_size=20),
    st.none(),
)
_float_arrays = hnp.arrays(
    dtype=np.float64,
    shape=hnp.array_shapes(max_dims=3, max_side=5),
    elements=st.floats(-1e6, 1e6),
)
_int_arrays = hnp.arrays(
    dtype=np.int64,
    shape=hnp.array_shapes(max_dims=2, max_side=5),
    elements=st.integers(-(2**31), 2**31),
)
_arrays = st.one_of(_float_arrays, _int_arrays)
_state_values = st.one_of(_scalars, _arrays, st.lists(_scalars, max_size=5))


@given(st.dictionaries(st.text(min_size=1, max_size=10), _state_values, max_size=8))
@settings(max_examples=80, deadline=None)
def test_property_json_state_round_trip(state):
    restored = state_from_json(state_to_json(state))
    assert states_equal(state, restored)


# --------------------------------------------------------------------- #
# quantization closes over the Eq. 1 grid
# --------------------------------------------------------------------- #
@given(
    hnp.arrays(np.float64, st.integers(2, 8), elements=st.floats(0.0, 100.0)),
    st.integers(1, 2),
)
@settings(max_examples=100)
def test_property_quantized_context_has_valid_grid_rank(x, q):
    """Every quantized context ranks to a code within Eq. 1's cardinality."""
    if x.sum() == 0:
        x = x + 1.0
    d = x.shape[0]
    grid_point = quantize_simplex(x, q)
    counts = np.round(grid_point * 10**q).astype(np.int64)
    rank = composition_rank(counts, 10**q)
    assert 0 <= rank < context_cardinality(q, d)


# --------------------------------------------------------------------- #
# encoder determinism + code ranges over arbitrary contexts
# --------------------------------------------------------------------- #
@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_property_all_encoders_deterministic(seed):
    rng = np.random.default_rng(seed)
    X = rng.dirichlet(np.ones(4), size=30)
    encoders = [
        KMeansEncoder(n_codes=6, n_features=4, n_fit_samples=300, seed=0).fit(),
        LSHEncoder(n_bits=3, n_features=4, seed=0).fit(),
        GridEncoder(n_features=4, q=1),
    ]
    for enc in encoders:
        codes_a = enc.encode_batch(X)
        codes_b = enc.encode_batch(X)
        np.testing.assert_array_equal(codes_a, codes_b)
        assert codes_a.min() >= 0 and codes_a.max() < enc.n_codes


# --------------------------------------------------------------------- #
# participation + shuffler composed: the mechanism-level invariants
# --------------------------------------------------------------------- #
@given(
    st.floats(0.0, 1.0),
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_property_pipeline_release_invariants(p, window, threshold, seed):
    rng = np.random.default_rng(seed)
    n_users = 60
    reports = []
    for u in range(n_users):
        part = RandomizedParticipation(p=p, window=window, max_reports=1, seed=seed + u)
        code = int(rng.integers(0, 5))
        for t in range(12):
            if part.offer((code, 0, 1.0)) is not None:
                reports.append(
                    EncodedReport(code=code, action=0, reward=1.0, metadata={"u": u})
                )
    # budget: at most one report per user
    assert len(reports) <= n_users
    released, stats = Shuffler(threshold, seed=seed).process(reports)
    # crowd-blending holds on whatever was released
    audit = verify_crowd_blending([r.code for r in released], threshold)
    assert audit.satisfied
    # anonymization held
    assert all(r.metadata == {} for r in released)
    # release is a sub-multiset of the reports
    assert stats.n_released <= stats.n_received


@given(st.floats(0.05, 0.95), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_property_report_rate_concentrates_around_p(p, seed):
    """Over many users the empirical participation rate concentrates
    near p — the quantity eps is computed from."""
    n_users = 400
    sent = 0
    for u in range(n_users):
        part = RandomizedParticipation(p=p, window=3, max_reports=1, seed=seed + u)
        for t in range(3):
            if part.offer(t) is not None:
                sent += 1
    rate = sent / n_users
    # 4-sigma band for a binomial(n_users, p)
    sigma = (p * (1 - p) / n_users) ** 0.5
    assert abs(rate - p) < 4 * sigma + 0.01


# --------------------------------------------------------------------- #
# fleet engine == sequential reference, fuzzed over seeds
# --------------------------------------------------------------------- #
def _fleet_population(policy_cls, mode, n_agents, seed, encoder, private_context):
    """Fresh, identically seeded (agents, sessions) for one engine run."""
    from repro.bandits import EpsilonGreedy, LinUCB  # noqa: F401
    from repro.core import LocalAgent
    from repro.data.synthetic import SyntheticPreferenceEnvironment
    from repro.utils.rng import spawn_seeds

    env = SyntheticPreferenceEnvironment(n_actions=3, n_features=4, seed=13)
    acting_dim = encoder.n_codes if mode == "warm-private" else 4
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, part_seed, session_seed = s.spawn(3)
        policy = policy_cls(n_arms=3, n_features=acting_dim, seed=policy_seed)
        participation = (
            None
            if mode == "cold"
            else RandomizedParticipation(p=0.7, window=3, max_reports=2, seed=part_seed)
        )
        agents.append(
            LocalAgent(
                f"u{i}",
                policy,
                mode=mode,
                encoder=encoder if mode == "warm-private" else None,
                participation=participation,
                private_context=private_context,
            )
        )
        sessions.append(env.new_user(session_seed))
    return agents, sessions


_FLEET_ENCODER = None


def _fleet_encoder():
    global _FLEET_ENCODER
    if _FLEET_ENCODER is None:
        _FLEET_ENCODER = KMeansEncoder(
            n_codes=6, n_features=4, n_fit_samples=400, seed=21
        ).fit()
    return _FLEET_ENCODER


@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from(["linucb", "epsilon_greedy", "lin_ts"]),
    st.sampled_from(["cold", "warm-nonprivate", "warm-private"]),
    st.integers(2, 9),
    st.integers(3, 15),
)
@settings(max_examples=30, deadline=None)
def test_property_fleet_matches_sequential(seed, kind, mode, n_agents, n_interactions):
    """For random seeds, population sizes and horizons, the fleet engine
    reproduces the sequential reference bit-for-bit: rewards and final
    policy state (the repro.sim contract, here fuzzed rather than
    enumerated)."""
    from repro.bandits import EpsilonGreedy, LinUCB, LinearThompsonSampling
    from repro.experiments.runner import _simulate_agent
    from repro.sim import FleetRunner

    policy_cls = {
        "linucb": LinUCB,
        "epsilon_greedy": EpsilonGreedy,
        "lin_ts": LinearThompsonSampling,
    }[kind]
    encoder = _fleet_encoder()
    seq_agents, seq_sessions = _fleet_population(
        policy_cls, mode, n_agents, seed, encoder, "one-hot"
    )
    fleet_agents, fleet_sessions = _fleet_population(
        policy_cls, mode, n_agents, seed, encoder, "one-hot"
    )

    seq_rewards = np.stack(
        [
            _simulate_agent(a, s, n_interactions)[0]
            for a, s in zip(seq_agents, seq_sessions)
        ]
    )
    result = FleetRunner(fleet_agents, fleet_sessions).run(n_interactions)

    np.testing.assert_array_equal(seq_rewards, result.rewards)
    for sa, fa in zip(seq_agents, fleet_agents):
        state_seq, state_fleet = sa.policy.get_state(), fa.policy.get_state()
        assert state_seq.keys() == state_fleet.keys()
        for key in state_seq:
            np.testing.assert_array_equal(
                np.asarray(state_seq[key]), np.asarray(state_fleet[key])
            )
        assert [r for r in sa.outbox] == [r for r in fa.outbox]


@given(
    st.integers(0, 2**31 - 1),
    st.lists(
        st.sampled_from(["linucb", "epsilon_greedy", "lin_ts", "ucb1"]),
        min_size=2,
        max_size=8,
    ),
    st.integers(3, 12),
)
@settings(max_examples=25, deadline=None)
def test_property_sharded_fleet_matches_sequential(seed, kinds, n_interactions):
    """Mixed populations — an arbitrary per-agent assignment of policy
    kinds — run sharded on the fleet engine and still reproduce the
    sequential reference bit-for-bit (rewards, actions, final states)."""
    from repro.bandits import UCB1, EpsilonGreedy, LinUCB, LinearThompsonSampling
    from repro.experiments.runner import _simulate_agent
    from repro.sim import FleetRunner, fleet_supported

    classes = {
        "linucb": LinUCB,
        "epsilon_greedy": EpsilonGreedy,
        "lin_ts": LinearThompsonSampling,
        "ucb1": UCB1,
    }

    def build():
        from repro.core import LocalAgent
        from repro.data.synthetic import SyntheticPreferenceEnvironment
        from repro.utils.rng import spawn_seeds

        env = SyntheticPreferenceEnvironment(n_actions=3, n_features=4, seed=13)
        agents, sessions = [], []
        for i, s in enumerate(spawn_seeds(seed, len(kinds))):
            policy_seed, session_seed = s.spawn(2)
            policy = classes[kinds[i]](n_arms=3, n_features=4, seed=policy_seed)
            agents.append(LocalAgent(f"u{i}", policy, mode="cold"))
            sessions.append(env.new_user(session_seed))
        return agents, sessions

    seq_agents, seq_sessions = build()
    fleet_agents, fleet_sessions = build()
    assert fleet_supported(fleet_agents)

    seq_rewards = np.stack(
        [
            _simulate_agent(a, s, n_interactions)[0]
            for a, s in zip(seq_agents, seq_sessions)
        ]
    )
    runner = FleetRunner(fleet_agents, fleet_sessions)
    assert runner.n_shards == len(set(kinds))
    result = runner.run(n_interactions)

    np.testing.assert_array_equal(seq_rewards, result.rewards)
    for sa, fa in zip(seq_agents, fleet_agents):
        state_seq, state_fleet = sa.policy.get_state(), fa.policy.get_state()
        for key in state_seq:
            np.testing.assert_array_equal(
                np.asarray(state_seq[key]), np.asarray(state_fleet[key])
            )


@given(
    st.integers(0, 2**31 - 1),
    st.lists(
        st.tuples(
            st.sampled_from(["linucb", "epsilon_greedy"]),
            st.booleans(),  # True => multilabel replay session
        ),
        min_size=3,
        max_size=7,
    ),
    st.sampled_from(["warm-private", "warm-nonprivate"]),
    st.integers(4, 12),
)
@settings(max_examples=15, deadline=None)
def test_property_columnar_collection_matches_sequential(
    seed, specs, mode, n_interactions
):
    """Mixed fleet populations *with participation and a collection
    round*: the columnar pipeline (StackedParticipation masks +
    ReportLog arrays + process_arrays + ingest_arrays) releases the
    same stream and trains the same central model as the sequential
    object path, for arbitrary policy/session mixtures."""
    from repro.bandits import EpsilonGreedy, LinUCB
    from repro.core import LocalAgent, P2BConfig, P2BSystem
    from repro.data.multilabel import MultilabelBanditEnvironment
    from repro.data.synthetic import SyntheticPreferenceEnvironment
    from repro.experiments.runner import _simulate_agent
    from repro.sim import FleetRunner
    from repro.utils.rng import spawn_seeds

    classes = {"linucb": LinUCB, "epsilon_greedy": EpsilonGreedy}
    encoder = _fleet_encoder()
    config = P2BConfig(
        n_actions=3,
        n_features=4,
        n_codes=encoder.n_codes,
        q=1,
        p=0.6,
        window=3,
        shuffler_threshold=2,
        max_reports_per_user=2,
    )
    acting_dim = encoder.n_codes if mode == "warm-private" else 4

    def build():
        system = P2BSystem(config, mode=mode, encoder=encoder, seed=0)
        syn = SyntheticPreferenceEnvironment(n_actions=3, n_features=4, seed=13)
        ml = MultilabelBanditEnvironment(_replay_datasets()[0], samples_per_user=5, seed=2)
        agents, sessions = [], []
        for i, s in enumerate(spawn_seeds(seed, len(specs))):
            policy_seed, part_seed, session_seed = s.spawn(3)
            kind, replay = specs[i]
            policy = classes[kind](n_arms=3, n_features=acting_dim, seed=policy_seed)
            agents.append(
                LocalAgent(
                    f"u{i}",
                    policy,
                    mode=mode,
                    encoder=encoder if mode == "warm-private" else None,
                    participation=RandomizedParticipation(
                        p=0.6, window=3, max_reports=2, seed=part_seed
                    ),
                )
            )
            sessions.append((ml if replay else syn).new_user(session_seed))
        return system, agents, sessions

    seq_system, seq_agents, seq_sessions = build()
    fleet_system, fleet_agents, fleet_sessions = build()
    for a, s in zip(seq_agents, seq_sessions):
        _simulate_agent(a, s, n_interactions)
    FleetRunner(fleet_agents, fleet_sessions).run(n_interactions)

    private = mode == "warm-private"
    released = [record_released(s) if private else [] for s in (seq_system, fleet_system)]
    out_seq = seq_system.collect(seq_agents)
    out_fleet = fleet_system.collect(fleet_agents)
    assert out_seq == out_fleet
    assert released[0] == released[1]  # same tuples, same order
    state_seq = seq_system.server.model_snapshot()
    state_fleet = fleet_system.server.model_snapshot()
    for key in state_seq:
        np.testing.assert_array_equal(
            np.asarray(state_seq[key]), np.asarray(state_fleet[key])
        )


_REPLAY_ML_DATASETS: list = []


def _replay_datasets():
    """Two multilabel datasets of one shape (built once)."""
    if not _REPLAY_ML_DATASETS:
        from repro.data.multilabel import make_multilabel_dataset

        _REPLAY_ML_DATASETS.extend(
            make_multilabel_dataset(n, 4, 3, n_clusters=3, seed=seed)
            for n, seed in ((70, 17), (55, 23))
        )
    return _REPLAY_ML_DATASETS


@given(
    st.integers(0, 2**31 - 1),
    st.lists(
        st.tuples(
            st.sampled_from(["linucb", "epsilon_greedy", "ucb1"]),
            st.booleans(),  # True => multilabel replay session, False => synthetic
        ),
        min_size=2,
        max_size=8,
    ),
    st.integers(3, 14),
    st.sampled_from([None, 1, 2, 3, 5, 20]),  # steps per run on one held fleet
    st.sampled_from([1, 2]),  # multilabel datasets the replay agents walk
    st.sampled_from([1, 2]),  # n_workers: serial map vs thread-pool map
    st.sampled_from(["bit", "fast"]),
)
@settings(max_examples=25, deadline=None)
def test_property_replay_and_synthetic_mixtures_match_sequential(
    seed, specs, n_interactions, split, n_datasets, n_workers, exactness
):
    """Arbitrary per-agent mixtures of *planned dataset sessions*
    (multilabel replay, `has_trace_plan`) and synthetic sessions
    (`has_reward_plan`) across policy shards stay bit-identical to the
    sequential reference — including shards that mix both session
    kinds and therefore fall back to the generic per-round path, and
    with the horizon split into consecutive runs of any size on one
    held fleet (``None`` = one run).  With two datasets drawn, replay
    agents alternate between them, so replay shards gather through a
    concatenated row table; ``n_workers`` runs the shards as a serial
    map or a thread-pool map of the same shard-horizon loop.  The
    exactness tier is drawn too: ``"fast"`` must degenerate to the bit
    tier — bitwise — for kinds without a fast stacker.  ``linucb`` grew a fast stacker
    (:class:`StackedLinUCBFast`), so mixtures drawing it under
    ``"fast"`` pin the tier back to ``"bit"`` to keep the bitwise
    oracle valid."""
    from repro.bandits import UCB1, EpsilonGreedy, LinUCB
    from repro.core import LocalAgent
    from repro.data.multilabel import MultilabelBanditEnvironment
    from repro.data.synthetic import SyntheticPreferenceEnvironment
    from repro.experiments.runner import _simulate_agent
    from repro.sim import EngineConfig, FleetRunner
    from repro.utils.rng import spawn_seeds

    classes = {"linucb": LinUCB, "epsilon_greedy": EpsilonGreedy, "ucb1": UCB1}
    if exactness == "fast" and any(kind == "linucb" for kind, _ in specs):
        # linucb no longer degenerates bitwise under the fast tier
        # (stat-equiv gates it in tests/sim); keep the oracle bitwise
        exactness = "bit"

    def build():
        syn = SyntheticPreferenceEnvironment(n_actions=3, n_features=4, seed=13)
        mls = [
            MultilabelBanditEnvironment(dataset, samples_per_user=5, seed=2)
            for dataset in _replay_datasets()[:n_datasets]
        ]
        agents, sessions = [], []
        for i, s in enumerate(spawn_seeds(seed, len(specs))):
            policy_seed, session_seed = s.spawn(2)
            kind, replay = specs[i]
            policy = classes[kind](n_arms=3, n_features=4, seed=policy_seed)
            agents.append(LocalAgent(f"u{i}", policy, mode="cold"))
            env = mls[i % n_datasets] if replay else syn
            sessions.append(env.new_user(session_seed))
        return agents, sessions

    seq_agents, seq_sessions = build()
    fleet_agents, fleet_sessions = build()

    seq_rewards = np.stack(
        [
            _simulate_agent(a, s, n_interactions)[0]
            for a, s in zip(seq_agents, seq_sessions)
        ]
    )
    runner = FleetRunner(
        fleet_agents,
        fleet_sessions,
        config=EngineConfig(n_workers=n_workers, exactness=exactness),
    )
    assert runner.n_shards == len({kind for kind, _ in specs})
    split = split or n_interactions
    rewards = np.concatenate(
        [
            runner.run(min(split, n_interactions - start)).rewards
            for start in range(0, n_interactions, split)
        ],
        axis=1,
    )

    np.testing.assert_array_equal(seq_rewards, rewards)
    for sa, fa in zip(seq_agents, fleet_agents):
        state_seq, state_fleet = sa.policy.get_state(), fa.policy.get_state()
        for key in state_seq:
            np.testing.assert_array_equal(
                np.asarray(state_seq[key]), np.asarray(state_fleet[key])
            )


# --------------------------------------------------------------------- #
# churn schedules: fixed-population slice is invariant to streaming
# --------------------------------------------------------------------- #
@given(
    st.integers(0, 2**31 - 1),
    st.integers(2, 5),
    st.lists(
        st.tuples(
            st.integers(0, 2),  # arrivals before this request
            st.integers(0, 2),  # departures before this request (extras only)
            st.integers(1, 4),  # interaction steps in this request
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=20, deadline=None)
def test_property_churn_leaves_fixed_population_bit_identical(
    seed, n_core, schedule
):
    """Arbitrary arrival/departure schedules around a fixed core: the
    core agents' rewards and final policy state must equal a run that
    never saw the churn (per-agent RNG streams => agent independence),
    and a schedule with no churn must equal the plain non-streaming
    path outright."""
    from repro.bandits import LinUCB
    from repro.core.agent import LocalAgent
    from repro.sim import FleetRunner
    from repro.utils.rng import spawn_seeds

    n_actions, n_features = 3, 4

    def build(n_agents, root_seed):
        from repro.data.synthetic import SyntheticPreferenceEnvironment

        env = SyntheticPreferenceEnvironment(
            n_actions=n_actions, n_features=n_features, seed=7
        )
        agents, sessions = [], []
        for i, s in enumerate(spawn_seeds(root_seed, n_agents)):
            policy_seed, session_seed = s.spawn(2)
            policy = LinUCB(
                n_arms=n_actions, n_features=n_features, alpha=1.0, seed=policy_seed
            )
            agents.append(LocalAgent(f"agent-{root_seed}-{i}", policy, mode="cold"))
            sessions.append(env.new_user(session_seed))
        return agents, sessions

    # reference: the core population runs the same request sizes with no
    # churn anywhere
    ref_agents, ref_sessions = build(n_core, seed)
    ref_fleet = FleetRunner(ref_agents, ref_sessions)
    ref_rewards = [ref_fleet.run(steps).rewards for _, _, steps in schedule]

    # streaming: same core, with extras arriving and departing around it
    core_agents, core_sessions = build(n_core, seed)
    fleet = FleetRunner(core_agents, core_sessions)
    extra_seq = 0
    live_extras: list = []
    churn_rewards = []
    for n_arrive, n_depart, steps in schedule:
        if n_arrive:
            extras, extra_sessions = build(n_arrive, 10_000 + 31 * extra_seq)
            extra_seq += 1
            fleet.add_agents(extras, extra_sessions)
            live_extras.extend(extras)
        departing = live_extras[:n_depart]
        if departing:
            fleet.remove_agents(departing)
            live_extras = live_extras[n_depart:]
        churn_rewards.append(fleet.run(steps).rewards)

    # the core occupies rows 0..n_core-1 throughout (extras append after
    # it and only extras depart)
    for ref, churned in zip(ref_rewards, churn_rewards):
        np.testing.assert_array_equal(ref, churned[:n_core])
    for ra, ca in zip(ref_agents, core_agents):
        state_r, state_c = ra.policy.get_state(), ca.policy.get_state()
        for key in state_r:
            np.testing.assert_array_equal(
                np.asarray(state_r[key]), np.asarray(state_c[key]), err_msg=key
            )
