"""The benchmark's three workloads over the public ``repro`` API.

Each workload builds its inputs from the benchmark seed alone, answers
one *request* at a time (the closed-loop unit the harness times), and
owns two correctness checks run outside the timed window: ``finish``
(invariants of the run that was just timed) and ``gate`` (a small
population run twice, through the sequential spec or a plain fleet,
compared bitwise).

Why these three: each stresses a different layer of the Fig. 1 cycle,
so a later change can show its gain on one and no change on another.

* ``deploy_rounds`` — the whole cycle as a batch job: every round
  rebuilds a fleet, so scalar encoding, stacking/writeback, columnar
  participation and the synchronous shuffler → server path dominate,
  while its tabular CodeLinUCB does almost no kernel work.
* ``replay_mixed`` — the §5.2 policies on indexed replay traces: dense
  ``(n, A, d, d)`` scoring dominates, encoding and the shuffler idle;
  the multi-shard case.
* ``serve_churn`` — the long-running service: churn restacks shards,
  drifting sessions take the scalar ``record_interaction`` path, and
  the shuffler runs asynchronously.  The only latency-bound workload.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.bandits import LinearThompsonSampling, LinUCB
from repro.core.agent import LocalAgent
from repro.core.config import AgentMode, P2BConfig
from repro.core.rounds import DeploymentLoop
from repro.core.system import P2BSystem
from repro.data import DriftingSyntheticEnvironment
from repro.data.multilabel import MultilabelBanditEnvironment, make_mediamill_like
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.experiments.runner import EngineConfig
from repro.experiments.serve import FleetService
from repro.sim import FleetRunner
from repro.utils.rng import spawn_seeds

__all__ = ["Check", "Outcome", "Workload", "WORKLOADS"]

#: lifetime report budget: large enough that no device exhausts it
#: within a run, so every round or request does the same reporting work
REPORT_BUDGET = 100_000

#: the replay corpus is fixed, as the paper replays one MediaMill
#: corpus; the benchmark seed draws the partition, users and policies
CORPUS_SEED = 0


@dataclass(frozen=True)
class Check:
    """One correctness check; ``ok=False`` counts as a failed operation."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """What one request did."""

    kind: str
    interactions: int
    reward_sum: float
    reward_count: int
    #: arrays that must be bitwise identical across traced and
    #: untraced runs of the same seed
    fingerprint: tuple = ()
    #: failed operations inside a request that did not raise
    #: (dropped shards, quarantined tuples)
    failures: int = 0


def _same(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b))


def _states_equal(agents_a, agents_b) -> bool:
    for a, b in zip(agents_a, agents_b, strict=True):
        sa, sb = a.policy.get_state(), b.policy.get_state()
        if sa.keys() != sb.keys() or not all(_same(sa[k], sb[k]) for k in sa):
            return False
    return True


def _synthetic_config() -> P2BConfig:
    return P2BConfig(
        n_actions=10,
        n_features=10,
        n_codes=2**6,
        q=1,
        p=0.5,
        window=10,
        shuffler_threshold=10,
        max_reports_per_user=REPORT_BUDGET,
    )


class Workload(abc.ABC):
    """One named workload; sizes are instance fields so tests can shrink them."""

    name: str
    #: the timed window runs at least this many requests; ``mean_reward``
    #: covers exactly these, so it does not depend on machine speed
    min_requests: int
    #: requests in each phase of a traced run (fixed, so counts repeat)
    trace_requests: int
    #: the ``perfbench.speed`` reference kernel whose slowdowns track
    #: this workload's on a shared host
    reference: str

    @abc.abstractmethod
    def build(self, seed: int):
        """Build the population and run the first warm-up request."""

    @abc.abstractmethod
    def request(self, state, i: int) -> Outcome:
        """Answer request ``i`` of the timed window."""

    def finish(self, state) -> list[Check]:
        """Invariants of the run that was just timed."""
        return []

    @abc.abstractmethod
    def gate(self, state, seed: int) -> list[Check]:
        """Small-population equivalence checks (outside the timed window)."""

    def config(self) -> dict:
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}


# ---------------------------------------------------------------------- #
@dataclass
class DeployRounds(Workload):
    """Multi-round warm-private ``DeploymentLoop``, collection every round."""

    n_users: int = 1000
    interactions_per_round: int = 10
    gate_users: int = 60
    gate_rounds: int = 3
    min_requests: int = 20
    trace_requests: int = 30
    name: str = field(default="deploy_rounds", init=False)
    reference: str = field(default="interpreter", init=False)

    def _loop(self, seed: int, n_users: int, engine: str = "auto") -> DeploymentLoop:
        env_seed, loop_seed = spawn_seeds(seed, 2)
        env = SyntheticPreferenceEnvironment(
            n_actions=10, n_features=10, weight_scale=8.0, seed=env_seed
        )
        loop = DeploymentLoop(
            _synthetic_config(),
            env,
            interactions_per_round=self.interactions_per_round,
            refresh=True,
            seed=loop_seed,
            engine=engine,
        )
        loop.enroll(n_users)
        return loop

    def build(self, seed: int) -> DeploymentLoop:
        loop = self._loop(seed, self.n_users)
        loop.run_round()
        return loop

    def request(self, loop: DeploymentLoop, i: int) -> Outcome:
        stats = loop.run_round()
        n = stats.n_active_users * self.interactions_per_round
        return Outcome(
            "round",
            n,
            stats.mean_reward * n,
            n,
            (np.array([stats.n_reports, stats.n_released]), np.array(stats.mean_reward)),
        )

    def finish(self, loop: DeploymentLoop) -> list[Check]:
        rounds = loop.rounds
        return [
            Check("released_within_reports", all(r.n_released <= r.n_reports for r in rounds)),
            Check(
                "pipeline_exercised",
                sum(r.n_released for r in rounds) > 0,
                f"{sum(r.n_reports for r in rounds)} reports",
            ),
        ]

    def gate(self, loop: DeploymentLoop, seed: int) -> list[Check]:
        runs = {}
        for engine in ("sequential", "fleet"):
            small = self._loop(seed, self.gate_users, engine)
            for _ in range(self.gate_rounds):
                small.run_round()
            runs[engine] = small
        seq, fleet = runs["sequential"], runs["fleet"]
        snap_seq, snap_fleet = seq.system.model_snapshot(), fleet.system.model_snapshot()
        return [
            Check("gate_rounds_equal", seq.rounds == fleet.rounds),
            Check("gate_privacy_report_equal", seq.privacy_report() == fleet.privacy_report()),
            Check(
                "gate_model_snapshot_equal",
                snap_seq.keys() == snap_fleet.keys()
                and all(_same(snap_seq[k], snap_fleet[k]) for k in snap_seq),
            ),
        ]


# ---------------------------------------------------------------------- #
@dataclass
class _ReplayState:
    dataset: object
    runner: FleetRunner
    agents: list
    #: rewards and actions of the first ``gate_agents`` agents, one
    #: block per ``run`` call (warm-up included), for the gate
    prefix: list = field(default_factory=list)


@dataclass
class ReplayMixed(Workload):
    """``FleetRunner.run`` on MediaMill-like replay, three policy shards."""

    n_agents: int = 300
    interactions_per_run: int = 10
    n_samples: int = 6000
    samples_per_user: int = 100
    gate_agents: int = 3
    min_requests: int = 20
    trace_requests: int = 40
    name: str = field(default="replay_mixed", init=False)
    reference: str = field(default="dense", init=False)

    def _population(self, seed: int, dataset, n_agents: int):
        """Cold LinUCB, cold Thompson and warm-private CodeLinUCB, interleaved.

        Prefix-stable: the first ``k`` agents and sessions are the same
        for every ``n_agents >= k`` (the gate relies on it).
        """
        env_seed, sys_seed, pop_seed = spawn_seeds(seed, 3)
        env = MultilabelBanditEnvironment(
            dataset, samples_per_user=self.samples_per_user, seed=env_seed
        )
        config = P2BConfig(
            n_actions=dataset.n_labels,
            n_features=dataset.n_features,
            n_codes=2**6,
            q=1,
            p=0.5,
            window=10,
            shuffler_threshold=10,
            max_reports_per_user=REPORT_BUDGET,
        )
        system = P2BSystem(config, mode=AgentMode.WARM_PRIVATE, seed=sys_seed)
        a, d = dataset.n_labels, dataset.n_features
        agents, sessions = [], []
        for i, s in enumerate(spawn_seeds(pop_seed, n_agents)):
            policy_seed, session_seed = s.spawn(2)
            if i % 3 == 0:
                policy = LinUCB(n_arms=a, n_features=d, seed=policy_seed)
                agent = LocalAgent(f"linucb-{i}", policy, mode=AgentMode.COLD)
            elif i % 3 == 1:
                policy = LinearThompsonSampling(n_arms=a, n_features=d, seed=policy_seed)
                agent = LocalAgent(f"thompson-{i}", policy, mode=AgentMode.COLD)
            else:
                agent = system.new_agent()
            agents.append(agent)
            sessions.append(env.new_user(session_seed))
        return agents, sessions

    def build(self, seed: int) -> _ReplayState:
        dataset = make_mediamill_like(self.n_samples, seed=CORPUS_SEED)
        agents, sessions = self._population(seed, dataset, self.n_agents)
        state = _ReplayState(dataset, FleetRunner(agents, sessions, config=EngineConfig()), agents)
        self._run(state)
        return state

    def _run(self, state: _ReplayState):
        result = state.runner.run(self.interactions_per_run)
        k = self.gate_agents
        state.prefix.append((result.rewards[:k].copy(), result.actions[:k].copy()))
        return result

    def request(self, state: _ReplayState, i: int) -> Outcome:
        result = self._run(state)
        return Outcome(
            "run",
            result.rewards.size,
            float(result.rewards.sum()),
            result.rewards.size,
            (result.rewards, result.actions),
            failures=len(result.dropped),
        )

    def finish(self, state: _ReplayState) -> list[Check]:
        return [Check("three_shards", state.runner.n_shards == 3, str(state.runner.n_shards))]

    def gate(self, state: _ReplayState, seed: int) -> list[Check]:
        """The first agents' whole run (warm-up and every request) against
        the sequential spec loop."""
        agents, sessions = self._population(seed, state.dataset, self.gate_agents)
        fleet_rewards = np.concatenate([r for r, _ in state.prefix], axis=1)
        fleet_actions = np.concatenate([a for _, a in state.prefix], axis=1)
        rewards = np.empty(fleet_rewards.shape)
        actions = np.empty(fleet_actions.shape, dtype=np.intp)
        for u, (agent, session) in enumerate(zip(agents, sessions)):
            for t in range(rewards.shape[1]):
                x = session.next_context()
                actions[u, t] = agent.act(x)
                rewards[u, t] = session.reward(int(actions[u, t]))
                agent.learn(x, int(actions[u, t]), float(rewards[u, t]))
        return [
            Check("gate_prefix_rewards_equal", _same(rewards, fleet_rewards)),
            Check("gate_prefix_actions_equal", _same(actions, fleet_actions)),
        ]


# ---------------------------------------------------------------------- #
@dataclass
class ServeChurn(Workload):
    """Closed-loop ``FleetService`` client with churn, drift and async collection."""

    n_agents: int = 200
    batch_steps: int = 10
    churn_frac: float = 0.01
    collect_every: int = 4
    epoch_length: int = 15
    gate_agents: int = 8
    gate_steps: int = 6
    min_requests: int = 100
    trace_requests: int = 100
    name: str = field(default="serve_churn", init=False)
    reference: str = field(default="interpreter", init=False)

    def _service(self, seed: int) -> FleetService:
        env_seed, service_seed = spawn_seeds(seed, 2)
        env = DriftingSyntheticEnvironment(
            n_actions=10,
            n_features=10,
            epoch_length=self.epoch_length,
            weight_scale=8.0,
            seed=env_seed,
        )
        return FleetService(_synthetic_config(), env, seed=service_seed)

    def build(self, seed: int) -> FleetService:
        service = self._service(seed)
        service.arrive(self.n_agents)
        service.interact(1)
        return service

    def request(self, service: FleetService, i: int) -> Outcome:
        churn = max(1, round(self.n_agents * self.churn_frac))
        quarantined = service.stats.n_quarantined
        service.arrive(churn)
        service.depart(list(range(churn)))
        result = service.interact(self.batch_steps)
        kind = "interact"
        if (i + 1) % self.collect_every == 0:
            service.collect()
            kind = "collect"
        return Outcome(
            kind,
            result.rewards.size,
            float(result.rewards.sum()),
            result.rewards.size,
            (result.rewards, result.actions),
            failures=len(result.dropped) + service.stats.n_quarantined - quarantined,
        )

    def finish(self, service: FleetService) -> list[Check]:
        flushed = service.flush()
        stats = service.stats
        dropped = flushed.shuffler_stats.n_dropped
        balance = stats.n_released + stats.n_pending + dropped + stats.n_quarantined
        return [
            Check(
                "reports_balance",
                stats.n_reports == balance,
                f"{stats.n_reports} collected vs {stats.n_released} released + "
                f"{stats.n_pending} pending + {dropped} flushed + "
                f"{stats.n_quarantined} quarantined",
            ),
            Check(
                "population_balance",
                stats.n_arrived - stats.n_departed == stats.n_agents == self.n_agents,
            ),
            Check("pipeline_exercised", stats.n_released > 0, f"{stats.n_released} released"),
        ]

    def gate(self, service: FleetService, seed: int) -> list[Check]:
        """A fixed-population service must match a plain ``FleetRunner``."""
        serve = self._service(seed)
        serve_agents = serve.arrive(self.gate_agents)
        twin = self._service(seed)
        twin_agents = twin.arrive(self.gate_agents)
        plain = FleetRunner(twin_agents, twin.fleet.sessions)
        checks = []
        for r in range(2):
            a, b = serve.interact(self.gate_steps), plain.run(self.gate_steps)
            checks.append(Check(f"gate_twin_rewards_equal_{r}", _same(a.rewards, b.rewards)))
            checks.append(Check(f"gate_twin_actions_equal_{r}", _same(a.actions, b.actions)))
        checks.append(Check("gate_twin_states_equal", _states_equal(serve_agents, twin_agents)))
        return checks


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (DeployRounds, ReplayMixed, ServeChurn)
}
