"""One differential harness: the fleet engine against the sequential spec.

The :mod:`repro.sim` contract — a fleet run is observationally identical
to the sequential loop — is stated here once.  A :class:`Case` is a
population mix (policy kind x mode x private context x session kind x
codebook, per member) and a schedule of ops.  :func:`play` drives the
schedule through the sequential spec (``engine=None``:
``runner._simulate_agent``, scalar ``warm_start``, ``P2BSystem.collect``)
or through one held :class:`~repro.sim.FleetRunner` under an
:class:`~repro.sim.EngineConfig`, and returns an :class:`Outcome`: every
op's record (run results, collection rounds, refusals) and the final
state of every member (policy state and draw stream, counters,
participation row, pending report rows, session stream) and of every
collecting system (released tuples in order, server model, shuffler
counters, privacy report).  :func:`assert_equivalent` compares two
outcomes bitwise; under ``exactness="fast"`` the members whose kind has a
fast stacker are held to the :mod:`stat_equiv` bands instead.

Ops are tuples; ``positions`` index the live population in fleet order.

=====================================  ==============================================
``("run", n[, source])``               ``run(n)``, warm-started from ``source`` first
``("subset", positions, n)``           ``run_subset``
``("arrive", k)``                      the next ``k`` waiting members join
``("depart", positions)``              ``remove_agents``
``("warm_start", source)``             ``FleetRunner.warm_start``
``("scalar", positions, n)``           scalar rounds on the same agents, both sides
``("other", n)``                       a second runner steps every live member
``("set_state", dst, src)``            one member takes another's policy state
``("new_policy", pos)``                one member's policy becomes a copy of itself
``("checkpoint",)``                    snapshot, continue on ``FleetRunner.resume``
``("crash", n, every, at[, source])``  checkpointed run killed in segment ``at``,
                                       then resumed (``at`` past the end: a
                                       finished snapshot replays its result)
``("collect",)``                       ``P2BSystem.collect`` of the live members
``("collect_async", positions)``       ``P2BSystem.collect_async``
``("flush",)``                         ``P2BSystem.flush_async``
=====================================  ==============================================

A warm-start ``source`` is ``"central"`` (a model of the first live
member's kind and shape, trained on seeded updates) or ``"server"`` (the
first collecting system's model snapshot).
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from _released import record_released
from stat_equiv import assert_statistically_equivalent

from repro.bandits import UCB1, CodeLinUCB, EpsilonGreedy, LinearThompsonSampling, LinUCB
from repro.core import LocalAgent, P2BConfig, P2BSystem, RandomizedParticipation
from repro.core.config import AgentMode
from repro.data.criteo import CriteoBanditEnvironment, build_criteo_actions, make_criteo_like
from repro.data.drift import DriftingSyntheticEnvironment
from repro.data.multilabel import MultilabelBanditEnvironment, make_multilabel_dataset
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.encoding import GridEncoder, KMeansEncoder, LSHEncoder
from repro.experiments.runner import _simulate_agent
from repro.sim import EngineConfig, FleetRunner
from repro.sim.faults import FAULTS_ENV_VAR
from repro.utils.exceptions import ReproError
from repro.utils.rng import rng_state_digest, spawn_seeds

N_ACTIONS = 4
N_FEATURES = 5

COLD, NONPRIVATE, PRIVATE = AgentMode.COLD, AgentMode.WARM_NONPRIVATE, AgentMode.WARM_PRIVATE

KINDS = {
    "linucb": lambda a, d, s: LinUCB(n_arms=a, n_features=d, seed=s),
    "linucb_wide": lambda a, d, s: LinUCB(n_arms=a, n_features=d, alpha=2.0, seed=s),
    "epsilon_greedy": lambda a, d, s: EpsilonGreedy(n_arms=a, n_features=d, epsilon=0.2, seed=s),
    "thompson": lambda a, d, s: LinearThompsonSampling(n_arms=a, n_features=d, seed=s),
    "ucb1": lambda a, d, s: UCB1(n_arms=a, n_features=d, seed=s),
    "code_linucb": lambda a, d, s: CodeLinUCB(n_arms=a, n_features=d, seed=s),
}

#: kinds with a fast-tier stacker: statistically, not bitwise, equivalent
#: under ``exactness="fast"``
FAST_KINDS = frozenset({"linucb", "linucb_wide", "code_linucb"})

#: the harness's ``n_workers`` axis (CI pins one count per job)
WORKERS = tuple(
    int(w) for w in os.environ.get("REPRO_PARALLEL_WORKERS", "1,2").split(",") if w.strip()
)


@functools.cache
def datasets() -> dict:
    """The replay datasets, built once: two multilabel tables and Criteo."""
    return {
        "ml": make_multilabel_dataset(90, N_FEATURES, N_ACTIONS, n_clusters=4, seed=0),
        "ml_b": make_multilabel_dataset(70, N_FEATURES, N_ACTIONS, n_clusters=3, seed=4),
        "criteo": build_criteo_actions(
            make_criteo_like(2_500, seed=0), n_actions=N_ACTIONS, d=N_FEATURES
        ),
    }


_SHAPE = dict(n_actions=N_ACTIONS, n_features=N_FEATURES)

#: session kinds: replay walks are shorter than most horizons, so they
#: reshuffle mid-run; the drift clocks differ in epoch and reward model
ENVIRONMENTS = {
    "synthetic": lambda: SyntheticPreferenceEnvironment(**_SHAPE, seed=7),
    "synthetic_b": lambda: SyntheticPreferenceEnvironment(**_SHAPE, seed=3),
    "drifting": lambda: DriftingSyntheticEnvironment(**_SHAPE, epoch_length=5, seed=8),
    "drifting_b": lambda: DriftingSyntheticEnvironment(
        **_SHAPE, epoch_length=3, switch_prob=0.5, seed=9
    ),
    "multilabel": lambda: MultilabelBanditEnvironment(
        datasets()["ml"], samples_per_user=6, seed=1
    ),
    "multilabel_b": lambda: MultilabelBanditEnvironment(
        datasets()["ml_b"], samples_per_user=5, seed=2
    ),
    "criteo": lambda: CriteoBanditEnvironment(
        datasets()["criteo"], impressions_per_user=9, seed=1
    ),
}


def environment(kind: str):
    """A fresh environment of one session kind (datasets are shared)."""
    return ENVIRONMENTS[kind]()


@functools.cache
def encoder(name: str = "kmeans"):
    """A fitted codebook: ``kmeans`` and its equal-size ``twin`` (8 codes),
    ``small`` (4 codes), ``lsh`` (64 codes) or ``grid``."""
    if name == "lsh":
        return LSHEncoder(n_bits=6, n_features=N_FEATURES, seed=2).fit()
    if name == "grid":
        return GridEncoder(n_features=N_FEATURES, q=1)
    n_codes, seed = {"kmeans": (8, 3), "twin": (8, 11), "small": (4, 5)}[name]
    return KMeansEncoder(
        n_codes=n_codes, n_features=N_FEATURES, n_fit_samples=600, seed=seed
    ).fit()


@dataclass(frozen=True)
class Member:
    """One member of a population mix."""

    kind: str = "linucb"
    mode: str = COLD
    session: str = "synthetic"
    context: str = "one-hot"  # private context of a warm-private member
    encoder: str = "kmeans"  # codebook of a warm-private member

    @property
    def dim(self) -> int:
        """Acting dimension: codebook size for one-hot private contexts."""
        if self.mode == PRIVATE and self.context == "one-hot":
            return encoder(self.encoder).n_codes
        return N_FEATURES


@dataclass(frozen=True)
class Case:
    """A population mix, its participation, and a schedule of ops."""

    members: tuple[Member, ...]
    ops: tuple[tuple, ...] = (("run", 9),)
    n_initial: int | None = None  # members live at the start; the rest wait to arrive
    seed: int = 0
    p: float = 0.8
    window: int = 3
    max_reports: int = 2
    threshold: int = 2
    exactness: str = "bit"
    shared_log: bool = True  # reporters enroll in their system's log, else keep their own
    faults: str | None = None  # a REPRO_FAULTS spec armed while the case plays
    refuses: int = 0  # ops the spec refuses (a ReproError, recorded, not raised)


@dataclass
class Outcome:
    ops: list  # one record per op
    members: list  # final state of every member, in member order
    systems: dict  # final state of every collecting system, by mode


class _Crash(Exception):
    pass


ROW_COLUMNS = ("codes", "contexts", "actions", "rewards", "interaction_indices")
SESSION_FIELDS = (
    "_key", "_draws", "_t", "_next_boundary", "preference", "_current", "_order", "_cursor"
)


class _Side:
    """One engine's copy of a case: members, systems and (fleet) the held runner."""

    def __init__(
        self, case: Case, engine: EngineConfig | None = None, workdir: Path | None = None
    ) -> None:
        self.case, self.engine, self.workdir = case, engine, workdir
        private = [m for m in case.members if m.mode == PRIVATE]
        # the systems only collect: members carry their own participation
        config = P2BConfig(
            n_actions=N_ACTIONS,
            n_features=N_FEATURES,
            n_codes=encoder().n_codes,
            shuffler_threshold=case.threshold,
            private_context=private[0].context if private else "one-hot",
        )
        modes = [m for m in (PRIVATE, NONPRIVATE) if any(x.mode == m for x in case.members)]
        self.systems = {
            mode: P2BSystem(config, mode=mode, encoder=encoder(), seed=case.seed) for mode in modes
        }
        self.released = {mode: record_released(s) for mode, s in self.systems.items()}
        envs: dict = {}
        self.agents, self.sessions = [], []
        seeds = spawn_seeds(case.seed, len(case.members))
        for i, (m, member_seeds) in enumerate(zip(case.members, seeds)):
            policy_seed, part_seed, session_seed = member_seeds.spawn(3)
            participation = None
            if m.mode != COLD:
                participation = RandomizedParticipation(
                    p=case.p, window=case.window, max_reports=case.max_reports, seed=part_seed
                )
            agent = LocalAgent(
                f"m{i}",
                KINDS[m.kind](N_ACTIONS, m.dim, policy_seed),
                mode=m.mode,
                encoder=encoder(m.encoder) if m.mode == PRIVATE else None,
                participation=participation,
                private_context=m.context,
            )
            if case.shared_log and m.mode != COLD:
                log = self.systems[m.mode].report_log
                agent.report_log, agent.report_row = log, log.enroll()
            if m.session not in envs:
                envs[m.session] = environment(m.session)
            self.agents.append(agent)
            self.sessions.append(envs[m.session].new_user(session_seed))
        n_initial = len(case.members) if case.n_initial is None else case.n_initial
        self.live = list(range(n_initial))
        self.waiting = list(range(n_initial, len(case.members)))
        self.runner = None
        if engine is not None:
            self.runner = FleetRunner(*self._pairs(self.live), config=engine)

    # ------------------------------------------------------------------ #
    def _pairs(self, ids):
        return [self.agents[i] for i in ids], [self.sessions[i] for i in ids]

    def _at(self, positions) -> list[int]:
        return [self.live[p] for p in positions]

    def _state(self, source):
        if source is None:
            return None
        if source == "server":
            return next(iter(self.systems.values())).model_snapshot()
        member = self.case.members[self.live[0]]
        policy = KINDS[member.kind](N_ACTIONS, member.dim, 0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = np.eye(member.dim)[rng.integers(member.dim)]
            policy.update(x, int(rng.integers(N_ACTIONS)), float(rng.random()))
        return policy.get_state()

    def _record(self, ids, result) -> dict:
        mask = np.asarray(result.expected_mask, dtype=bool)
        return {
            "members": list(ids),
            "rewards": np.asarray(result.rewards),
            "actions": np.asarray(result.actions).astype(np.intp),
            "expected": np.where(mask[:, None], result.expected, 0.0),
            "mask": mask,
        }

    def _steps(self, ids, n) -> dict:
        """The spec: ``_simulate_agent`` per member, its actions recorded."""
        rows = []
        for i in ids:
            agent, actions = self.agents[i], []
            act = agent.act
            agent.act = lambda x, act=act: actions.append(act(x)) or actions[-1]
            try:
                rewards, expected = _simulate_agent(
                    agent, self.sessions[i], n, track_expected=True
                )
            finally:
                del agent.act
            rows.append((rewards, actions, expected))
        return {
            "members": list(ids),
            "rewards": np.array([r for r, _, _ in rows], dtype=np.float64).reshape(-1, n),
            "actions": np.array([a for _, a, _ in rows], dtype=np.intp).reshape(-1, n),
            "expected": np.array(
                [np.zeros(n) if e is None else e for _, _, e in rows], dtype=np.float64
            ).reshape(-1, n),
            "mask": np.array([e is not None for _, _, e in rows], dtype=bool),
        }

    def _warm(self, state) -> None:
        for i in self.live:
            self.agents[i].warm_start(state)

    def _resume(self, path) -> None:
        self.runner = FleetRunner.resume(path)
        for i, agent, session in zip(self.live, self.runner.agents, self.runner.sessions):
            self.agents[i], self.sessions[i] = agent, session

    def _collect(self, method, ids) -> list:
        modes = [self.case.members[i].mode for i in ids]
        return [
            getattr(system, method)([self.agents[i] for i, m in zip(ids, modes) if m == mode])
            for mode, system in self.systems.items()
        ]

    def _spec_run(self, n, state) -> dict:
        """The spec of a warm-started run: every live member warm-starts,
        in population order, then steps."""
        if state is not None:
            self._warm(state)
        return self._steps(self.live, n)

    # ------------------------------------------------------------------ #
    def op_run(self, n, source=None):
        state = self._state(source)
        if self.runner is None:
            return self._spec_run(n, state)
        return self._record(self.live, self.runner.run(n, track_expected=True, warm_start=state))

    def op_subset(self, positions, n):
        ids = self._at(positions)
        if self.runner is None:
            return self._steps(ids, n)
        return self._record(ids, self.runner.run_subset(list(positions), n, track_expected=True))

    def op_arrive(self, k):
        ids, self.waiting = self.waiting[:k], self.waiting[k:]
        if self.runner is not None:
            self.runner.add_agents(*self._pairs(ids))
        self.live += ids

    def op_depart(self, positions):
        if self.runner is not None:
            self.runner.remove_agents(list(positions))
        gone = set(self._at(positions))
        self.live = [i for i in self.live if i not in gone]

    def op_warm_start(self, source):
        state = self._state(source)
        if self.runner is None:
            self._warm(state)
        else:
            self.runner.warm_start(state)

    def op_scalar(self, positions, n):
        return self._steps(self._at(positions), n)

    def op_other(self, n):
        if self.runner is None:
            return self._steps(self.live, n)
        other = FleetRunner(*self._pairs(self.live), config=self.engine)
        return self._record(self.live, other.run(n, track_expected=True))

    def op_set_state(self, dst, src):
        dst, src = self._at((dst, src))
        self.agents[dst].policy.set_state(self.agents[src].policy.get_state())

    def op_new_policy(self, pos):
        (i,) = self._at((pos,))
        self.agents[i].policy = copy.deepcopy(self.agents[i].policy)

    def op_checkpoint(self):
        if self.runner is not None:
            path = self.workdir / "between-runs.ckpt"
            self.runner.checkpoint(path)
            self._resume(path)

    def op_crash(self, n, every, at, source=None):
        state = self._state(source)
        if self.runner is None:
            return self._spec_run(n, state)
        path = self.workdir / "mid-run.ckpt"
        run_thread, calls = self.runner._run_thread, itertools.count(1)

        def crashing(*args, **kwargs):
            if next(calls) == at:
                raise _Crash
            return run_thread(*args, **kwargs)

        self.runner._run_thread = crashing
        try:
            self.runner.run(
                n, track_expected=True, warm_start=state,
                checkpoint_every=every, checkpoint_path=path,
            )
        except _Crash:
            pass
        self._resume(path)
        return self._record(self.live, self.runner.resume_run())

    def op_collect(self):
        return self._collect("collect", self.live)

    def op_collect_async(self, positions):
        return self._collect("collect_async", self._at(positions))

    def op_flush(self):
        return [system.flush_async() for system in self.systems.values()]

    # ------------------------------------------------------------------ #
    def outcome(self, records) -> Outcome:
        members = []
        for agent, session in zip(self.agents, self.sessions):
            policy, log, part = agent.policy, agent.report_log, agent.participation
            state = {
                "policy": policy.get_state(),
                "draws": (getattr(policy, "_key", None), getattr(policy, "_draws", None)),
                "counters": (agent.n_interactions, agent.total_reward),
                "participation": None if part is None else part.state(),
                "rows": None,
                "session": {f: getattr(session, f) for f in SESSION_FIELDS if hasattr(session, f)},
            }
            if isinstance(policy, LinUCB):  # theta is derived, not in get_state
                state["theta"] = policy.theta
            for name, owner in (("policy_rng", policy), ("session_rng", session)):
                if getattr(owner, "_rng", None) is not None:
                    state[name] = rng_state_digest(owner._rng)
            if log is not None:
                rows = log.rows(agent.report_row)
                state["rows"] = {c: getattr(rows, c) for c in ROW_COLUMNS}
            members.append(state)
        systems = {}
        for mode, system in self.systems.items():
            server = system.server
            systems[mode] = {
                "released": self.released[mode],
                "server": server.model_snapshot(),
                "ingested": (server.n_tuples_ingested, server.n_batches),
                "pending": system.n_pending_reports,
            }
            if mode == PRIVATE:
                systems[mode]["quarantined"] = system.shuffler.total_quarantined
                systems[mode]["privacy"] = system.privacy_report()
        return Outcome(records, members, systems)


def play(case: Case, engine: EngineConfig | None = None) -> Outcome:
    """Drive ``case`` through the sequential spec (``engine=None``) or one
    held :class:`FleetRunner` under ``engine``; return its :class:`Outcome`.

    An op that raises a :class:`~repro.utils.exceptions.ReproError` (a
    refusal) is recorded as such and the schedule goes on.
    """
    saved = os.environ.pop(FAULTS_ENV_VAR, None)
    if case.faults is not None:
        os.environ[FAULTS_ENV_VAR] = case.faults
    try:
        with tempfile.TemporaryDirectory() as workdir:
            side = _Side(case, engine, Path(workdir))
            records = []
            for name, *args in case.ops:
                try:
                    records.append((name, getattr(side, f"op_{name}")(*args)))
                except ReproError as exc:
                    records.append((name, f"refused: {type(exc).__name__}"))
            return side.outcome(records)
    finally:
        os.environ.pop(FAULTS_ENV_VAR, None)
        if saved is not None:
            os.environ[FAULTS_ENV_VAR] = saved


# ---------------------------------------------------------------------- #
def assert_same(a, b, path: str = "outcome") -> None:
    """Bitwise equality of two outcome trees: containers by structure,
    arrays by dtype, shape and bytes, floats by their bits, the rest by
    type and ``==``."""
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        assert type(a) is type(b), path
        a, b = dataclasses.asdict(a), dataclasses.asdict(b)
    if isinstance(a, dict):
        assert isinstance(b, dict) and a.keys() == b.keys(), f"{path}: {a.keys()} != {b.keys()}"
        for key in a:
            assert_same(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b), f"{path}: {a!r} != {b!r}"
        for k, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{k}]")
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray), path
        assert (a.dtype, a.shape) == (b.dtype, b.shape), f"{path}: {a!r} != {b!r}"
        assert a.tobytes() == b.tobytes(), f"{path}: {a!r} != {b!r}"
    elif isinstance(a, (float, np.floating)):
        assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), f"{path}: {a!r} != {b!r}"
    else:
        assert type(a) is type(b) and a == b, f"{path}: {a!r} != {b!r}"


def assert_equivalent(case: Case, spec: Outcome, got: Outcome, exactness: str = "bit") -> None:
    """``got`` reproduces ``spec``: bitwise, except — under the fast tier —
    members of a kind with a fast stacker, whose reward curves must stay
    within the ``stat_equiv`` bands and whose counters and sessions must
    match (collection rounds they report into compare by report count)."""
    fast = set()
    if exactness == "fast":
        fast = {i for i, m in enumerate(case.members) if m.kind in FAST_KINDS}
    if not fast:
        assert_same(spec, got)
        return
    reporting = any(case.members[i].mode != COLD for i in fast)
    curves = ([], [])
    for k, ((name, a), (_, b)) in enumerate(zip(spec.ops, got.ops, strict=True)):
        path = f"ops[{k}].{name}"
        if isinstance(a, dict):  # run results, one row per member
            slow = [r for r, i in enumerate(a["members"]) if i not in fast]
            quick = [r for r, i in enumerate(a["members"]) if i in fast]
            assert_same(
                {key: v[slow] for key, v in a.items() if key != "members"},
                {key: v[slow] for key, v in b.items() if key != "members"},
                path,
            )
            if quick:
                curves[0].append(a["rewards"][quick].mean(axis=0))
                curves[1].append(b["rewards"][quick].mean(axis=0))
        elif reporting and isinstance(a, list):  # collection rounds
            assert [r.n_reports for r in a] == [r.n_reports for r in b], path
        else:
            assert_same(a, b, path)
    if curves[0]:
        assert_statistically_equivalent(
            [np.concatenate(curves[0])], [np.concatenate(curves[1])], label="fast-vs-spec"
        )
    for i, (a, b) in enumerate(zip(spec.members, got.members, strict=True)):
        if i in fast:
            assert a["counters"][0] == b["counters"][0], f"members[{i}]"
            assert_same(a["session"], b["session"], f"members[{i}].session")
        else:
            assert_same(a, b, f"members[{i}]")
    if not reporting:
        assert_same(spec.systems, got.systems, "systems")


@functools.lru_cache(maxsize=None)
def spec_outcome(case: Case) -> Outcome:
    """The sequential spec's outcome of ``case`` (played once per process)."""
    outcome = play(case)
    refused = sum(isinstance(r, str) for _, r in outcome.ops)
    assert refused == case.refuses, f"the spec refused {refused} ops, not {case.refuses}"
    return outcome


@functools.lru_cache(maxsize=None)
def _serial_fast(case: Case) -> Outcome:
    return play(case, EngineConfig(exactness="fast"))


def check(case: Case, n_workers: int = 1) -> None:
    """Play ``case`` on a fleet of ``n_workers`` and assert it equals the
    spec.  A fast-tier fleet must also equal the serial fast fleet bitwise:
    the worker count is unobservable on every tier."""
    got = play(case, EngineConfig(n_workers=n_workers, exactness=case.exactness))
    assert_equivalent(case, spec_outcome(case), got, case.exactness)
    if case.exactness == "fast" and n_workers != 1:
        assert_same(_serial_fast(case), got, "fast-vs-serial-fast")


# ---------------------------------------------------------------------- #
# builders for the per-feature suites
#: mixed kinds, hyperparameters, modes and codebook sizes, interleaved
MIXED = (
    Member("linucb"),
    Member("thompson", PRIVATE),
    Member("epsilon_greedy", NONPRIVATE),
    Member("code_linucb", PRIVATE),
    Member("linucb", PRIVATE, context="centroid"),
    Member("thompson"),
    Member("linucb_wide"),
    Member("code_linucb", PRIVATE, encoder="small"),
    Member("epsilon_greedy"),
    Member("linucb"),
)


def population(members, **case_fields) -> tuple[list, list]:
    """``(agents, sessions)`` of a :class:`Case` over ``members``, as
    :func:`play` builds them."""
    side = _Side(Case(tuple(members), **case_fields))
    return side.agents, side.sessions


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
    """Build ``(agents, sessions)`` of one policy factory and mode over
    synthetic users.

    ``policy_factory(n_arms, n_features, seed)`` must return a policy
    sized for the *acting* space (raw ``d``, codebook ``k``, or ``d``
    again for centroid mode).
    """
    env = ENVIRONMENTS["synthetic"]()
    if mode == PRIVATE and private_context == "one-hot":
        acting_dim = encoder.n_codes
    else:
        acting_dim = N_FEATURES
    agents, sessions = [], []
    for i, s in enumerate(spawn_seeds(seed, n_agents)):
        policy_seed, part_seed, session_seed = s.spawn(3)
        participation = None
        if mode != COLD:
            participation = RandomizedParticipation(
                p=p, window=window, max_reports=max_reports, seed=part_seed
            )
        agents.append(
            LocalAgent(
                f"agent-{i}",
                policy_factory(N_ACTIONS, acting_dim, policy_seed),
                mode=mode,
                encoder=encoder if mode == PRIVATE else None,
                participation=participation,
                private_context=private_context,
            )
        )
        sessions.append(env.new_user(session_seed))
    return agents, sessions


def simulate_sequential(agents, sessions, n_interactions: int) -> np.ndarray:
    """The reference loop's reward matrix (``runner._simulate_agent``)."""
    return np.stack([_simulate_agent(a, s, n_interactions)[0] for a, s in zip(agents, sessions)])


def assert_states_equal(policy_a, policy_b, label: str = "") -> None:
    """Bit-exact ``get_state`` comparison."""
    assert_same(policy_a.get_state(), policy_b.get_state(), label or "state")
