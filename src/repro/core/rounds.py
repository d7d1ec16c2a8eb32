"""Multi-round P2B deployments (the Figure 1 cycle).

The paper's experiments run one collection round, but its architecture
(Fig. 1) is a *loop*: agents interact, some report, the server
retrains, devices pull the fresh model, repeat.  :class:`DeploymentLoop`
implements that loop with per-round privacy accounting:

* each round enrolls a cohort of fresh users (real deployments grow
  their install base over time);
* continuing users keep their local policy but *may* pull the updated
  central model between rounds (``refresh=True``);
* each user's lifetime report budget stays capped, so the composition
  accounting (``r`` tuples => ``r * eps``, §6) is tracked explicitly by
  :meth:`DeploymentLoop.privacy_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..data.environment import Environment
from ..privacy.accounting import PrivacyReport
from ..utils.exceptions import ConfigError
from ..utils.rng import spawn_seeds
from ..utils.validation import check_positive_int
from .agent import LocalAgent
from .config import AgentMode, P2BConfig
from .system import P2BSystem

if TYPE_CHECKING:
    from ..sim import EngineConfig, FleetRunner

__all__ = ["DeploymentLoop", "RoundStats"]


@dataclass(frozen=True)
class RoundStats:
    """Bookkeeping for one deployment round."""

    round_index: int
    n_active_users: int
    n_new_users: int
    n_reports: int
    n_released: int
    mean_reward: float


@dataclass
class DeploymentLoop:
    """Run a warm-private P2B deployment over multiple rounds.

    Parameters
    ----------
    config:
        Deployment configuration.  ``max_reports_per_user`` bounds each
        user's *lifetime* contributions across all rounds.
    env:
        Workload supplying user sessions.
    interactions_per_round:
        Local interactions each active user performs per round.
    refresh:
        Whether continuing users pull the latest central model at the
        start of each round (the Fig. 1 "model update" arrow).  Note
        that pulling a model *overwrites* locally-accumulated learning
        with the (usually better-fed) central state.
    seed:
        Root seed.
    engine:
        The :class:`~repro.sim.EngineConfig` every round runs under
        (its fields document the engine knobs), or just an engine name,
        taken as ``EngineConfig(engine=name)``.  ``"auto"`` (default)
        steps each round through the vectorized sharded fleet engine
        (:mod:`repro.sim`) when the enrolled population supports it —
        bit-identical to the loop by the sim contract; mixed cohorts
        shard by configuration — ``"sequential"`` forces the reference
        loop, ``"fleet"`` insists and raises when unsupported.  Either
        engine records reports as rows of the system's log and
        collects them through
        :meth:`~repro.core.system.P2BSystem.collect`'s one columnar
        route, with the same round stats.
        Fleet rounds run on one :class:`~repro.sim.FleetRunner` held
        across rounds: new users join it through ``add_agents`` (only
        they are checked for fleet support), and a refresh passes the
        central-model snapshot into the run (``run(n,
        warm_start=snapshot)``), so held stacks load it in place instead
        of restacking every policy.  Under ``"auto"``, a newcomer
        without fleet support drops the held fleet and every later
        round runs the reference loop.  The config's ``sink`` must be
        ``None``: rounds compute their own statistics.  Resolved to an
        ``EngineConfig`` at construction.
    """

    config: P2BConfig
    env: Environment
    interactions_per_round: int = 10
    refresh: bool = True
    seed: int | None = None
    engine: "str | EngineConfig" = "auto"

    system: P2BSystem = field(init=False)
    rounds: list[RoundStats] = field(init=False, default_factory=list)
    _users: list[tuple[LocalAgent, object]] = field(init=False, default_factory=list)
    _fleet: "FleetRunner | None" = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        check_positive_int(self.interactions_per_round, name="interactions_per_round")
        # core imports sim lazily: sim builds on core's agents
        from ..sim import EngineConfig

        if isinstance(self.engine, str):
            self.engine = EngineConfig(engine=self.engine)
        elif not isinstance(self.engine, EngineConfig):
            raise ConfigError(
                "engine must be 'auto', 'sequential', 'fleet' or an "
                f"EngineConfig, got {self.engine!r}"
            )
        if self.engine.sink is not None:
            raise ConfigError(
                "EngineConfig.sink is not supported by DeploymentLoop; "
                "rounds compute their own statistics"
            )
        sys_seed, self._user_seed_root = spawn_seeds(self.seed, 2)
        self.system = P2BSystem(self.config, mode=AgentMode.WARM_PRIVATE, seed=sys_seed)

    # ------------------------------------------------------------------ #
    def enroll(self, n_users: int) -> None:
        """Add ``n_users`` fresh devices.

        With ``refresh`` off, each newcomer warm-starts from the central
        model once the server holds data.  With ``refresh`` on it does
        not: the next round pulls that same snapshot for every user, and
        ``set_state`` replaces the whole policy state, so a warm start
        here would be overwritten unchanged.
        """
        check_positive_int(n_users, name="n_users")
        warm = (
            not self.refresh
            and self.system.server is not None
            and self.system.server.n_tuples_ingested
        )
        for session_seed in spawn_seeds(self._user_seed_root, n_users):
            agent = self.system.new_agent()
            if warm:
                agent.warm_start(self.system.model_snapshot())
            session = self.env.new_user(session_seed)
            self._users.append((agent, session))

    def run_round(self, *, new_users: int = 0) -> RoundStats:
        """One full cycle: enroll, interact, collect, retrain."""
        if new_users:
            self.enroll(new_users)
        if not self._users:
            raise ConfigError("no users enrolled; call enroll() or pass new_users")
        snapshot = None
        if self.refresh and self.system.server.n_tuples_ingested:
            snapshot = self.system.model_snapshot()
        rewards = self._interact(snapshot)
        outcome = self.system.collect(agent for agent, _ in self._users)
        stats = RoundStats(
            round_index=len(self.rounds),
            n_active_users=len(self._users),
            n_new_users=new_users,
            n_reports=outcome.n_reports,
            n_released=outcome.n_released,
            mean_reward=float(rewards.mean()) if rewards.size else 0.0,
        )
        self.rounds.append(stats)
        return stats

    def _interact(self, snapshot) -> np.ndarray:
        """One round of local interactions; returns the reward matrix.

        ``snapshot`` (or ``None``) is the central model every user pulls
        first.  Both engines fill the same
        ``(n_users, interactions_per_round)`` matrix (sequential
        user-major; fleet shard by shard, round-major within each shard)
        and the round statistic is computed from the matrix, so the
        engines agree on it bit-for-bit whenever the per-cell rewards
        agree.
        """
        agents = [agent for agent, _ in self._users]
        sessions = [session for _, session in self._users]
        use_fleet = False
        if self.engine.engine != "sequential":
            from ..sim import FleetRunner, fleet_supported

            # the held fleet's members passed this check when they joined
            joined = 0 if self._fleet is None else len(self._fleet.agents)
            use_fleet = joined == len(agents) or fleet_supported(agents[joined:])
            if self.engine.engine == "fleet" and not use_fleet:
                raise ConfigError(
                    "engine='fleet' requested but the enrolled population is "
                    "not fleet-capable"
                )
        if use_fleet:
            if self._fleet is None:
                self._fleet = FleetRunner(agents, sessions, config=self.engine)
            elif joined < len(agents):
                self._fleet.add_agents(agents[joined:], sessions[joined:])
            return self._fleet.run(
                self.interactions_per_round, warm_start=snapshot
            ).rewards
        # the reference loop advances agents the held fleet stacked
        self._fleet = None
        if snapshot is not None:
            for agent in agents:
                agent.warm_start(snapshot)
        rewards = np.empty((len(agents), self.interactions_per_round), dtype=np.float64)
        for u, (agent, session) in enumerate(self._users):
            for t in range(self.interactions_per_round):
                x = session.next_context()
                action = agent.act(x)
                reward = session.reward(action)
                agent.learn(x, action, reward)
                rewards[u, t] = reward
        return rewards

    # ------------------------------------------------------------------ #
    def max_reports_by_any_user(self) -> int:
        """Lifetime reports of the heaviest contributor (drives composition)."""
        if not self._users:
            return 0
        return max(
            agent.participation.reports_sent if agent.participation else 0
            for agent, _ in self._users
        )

    def privacy_report(self) -> PrivacyReport:
        """Deployment-lifetime guarantee with realized composition.

        Uses the *realized* maximum reports per user (never exceeding
        the configured budget) so the ``r * eps`` total is evidence, not
        just configuration.
        """
        realized_r = max(self.max_reports_by_any_user(), 1)
        base = self.system.privacy_report()
        return PrivacyReport(
            p=base.p, l=base.l, eps_bar=base.eps_bar, tuples_per_user=realized_r
        )

    @property
    def mean_reward_trajectory(self) -> np.ndarray:
        """Per-round population mean reward (should rise round over round)."""
        return np.array([r.mean_reward for r in self.rounds])
