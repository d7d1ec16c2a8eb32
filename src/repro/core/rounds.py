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

import numpy as np

from ..data.environment import Environment
from ..privacy.accounting import PrivacyReport
from ..utils.exceptions import ConfigError
from ..utils.rng import spawn_seeds
from ..utils.validation import check_positive_int
from .agent import LocalAgent
from .config import AgentMode, P2BConfig
from .system import P2BSystem

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
        ``"auto"`` (default) steps each round through the vectorized
        sharded fleet engine (:mod:`repro.sim`) when the enrolled
        population supports it — bit-identical to the loop by the sim
        contract; mixed cohorts shard by configuration —
        ``"sequential"`` forces the reference loop, ``"fleet"`` insists
        and raises when unsupported.  Fleet rounds record reports
        columnar-side, so each round's collection flows arrays straight
        through the shuffler into the server
        (:meth:`~repro.core.system.P2BSystem.collect`'s fast path) —
        no per-report objects anywhere in the cycle, same round stats.
    n_workers:
        Fleet shard parallelism per round (default 1 = serial); the
        per-round stats are identical either way (the sim contract).
    plan_chunk_size:
        Fleet plan-chunk size per round (default ``None`` = whole
        horizons): session plans materialize in slices (stationary
        noise and plan calls; traced row walks are allocated whole),
        and a chunk size at or above ``interactions_per_round`` degenerates
        to the unchunked path.  Collection rounds compose freely with
        chunking — a report buffered mid-chunk is collected with the
        identical payload (the sim contract) — so the per-round stats
        never depend on the chunk size.
    exactness:
        Fleet contract tier per round, one of
        :data:`~repro.sim.EXACTNESS_TIERS` (default ``"bit"`` =
        bit-identical to the sequential loop).  ``"fast"`` runs
        memory-lean policy state; round statistics become
        statistically, not bitwise, equivalent.  Sequential rounds
        ignore the tier.

    ``engine`` also accepts a full
    :class:`~repro.experiments.runner.EngineConfig`, in which case the
    remaining engine knobs must stay at their defaults (pass the
    settings inside the config instead) and the config's ``sink`` must
    be ``None`` — rounds compute their own statistics.
    """

    config: P2BConfig
    env: Environment
    interactions_per_round: int = 10
    refresh: bool = True
    seed: int | None = None
    engine: "str | object" = "auto"
    n_workers: int = 1
    plan_chunk_size: int | None = None
    exactness: str = "bit"
    kernel_block_size: int | None = None

    system: P2BSystem = field(init=False)
    rounds: list[RoundStats] = field(init=False, default_factory=list)
    _users: list[tuple[LocalAgent, object]] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        check_positive_int(self.interactions_per_round, name="interactions_per_round")
        if not isinstance(self.engine, str):
            # a full EngineConfig bundle (duck-typed: core must not
            # import experiments at module scope)
            cfg = self.engine
            if not all(hasattr(cfg, f) for f in ("engine", "n_workers", "exactness")):
                raise ConfigError(
                    "engine must be 'auto', 'sequential', 'fleet' or an "
                    f"EngineConfig, got {cfg!r}"
                )
            explicit = (
                self.n_workers != 1
                or self.plan_chunk_size is not None
                or self.exactness != "bit"
                or self.kernel_block_size is not None
            )
            if explicit:
                raise ConfigError(
                    "pass engine settings either as one EngineConfig or as "
                    "individual fields, not both (the config already bundles "
                    "them)"
                )
            if getattr(cfg, "sink", None) is not None:
                raise ConfigError(
                    "EngineConfig.sink is not supported by DeploymentLoop; "
                    "rounds compute their own statistics"
                )
            self.engine = cfg.engine
            self.n_workers = cfg.n_workers
            self.plan_chunk_size = cfg.plan_chunk_size
            self.exactness = cfg.exactness
            self.kernel_block_size = getattr(cfg, "kernel_block_size", None)
        check_positive_int(self.n_workers, name="n_workers")
        if self.plan_chunk_size is not None:
            check_positive_int(self.plan_chunk_size, name="plan_chunk_size")
        if self.kernel_block_size is not None:
            check_positive_int(self.kernel_block_size, name="kernel_block_size")
        if self.engine not in ("auto", "sequential", "fleet"):
            raise ConfigError(
                f"engine must be 'auto', 'sequential' or 'fleet', got {self.engine!r}"
            )
        from ..sim import EXACTNESS_TIERS

        if self.exactness not in EXACTNESS_TIERS:
            raise ConfigError(
                f"exactness must be one of {EXACTNESS_TIERS}, got {self.exactness!r}"
            )
        sys_seed, self._user_seed_root = spawn_seeds(self.seed, 2)
        self.system = P2BSystem(self.config, mode=AgentMode.WARM_PRIVATE, seed=sys_seed)

    # ------------------------------------------------------------------ #
    def enroll(self, n_users: int) -> None:
        """Add ``n_users`` fresh devices (warm-started when possible)."""
        check_positive_int(n_users, name="n_users")
        for session_seed in spawn_seeds(self._user_seed_root, n_users):
            agent = self.system.new_agent()
            if self.system.server is not None and self.system.server.n_tuples_ingested:
                agent.warm_start(self.system.model_snapshot())
            session = self.env.new_user(session_seed)
            self._users.append((agent, session))

    def run_round(self, *, new_users: int = 0) -> RoundStats:
        """One full cycle: enroll, interact, collect, retrain."""
        if new_users:
            self.enroll(new_users)
        if not self._users:
            raise ConfigError("no users enrolled; call enroll() or pass new_users")
        if self.refresh and self.system.server.n_tuples_ingested:
            snapshot = self.system.model_snapshot()
            for agent, _ in self._users:
                agent.warm_start(snapshot)
        rewards = self._interact()
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

    def _interact(self) -> np.ndarray:
        """One round of local interactions; returns the reward matrix.

        Both engines fill the same ``(n_users, interactions_per_round)``
        matrix (sequential user-major; fleet shard by shard, round-major
        within each shard) and the round
        statistic is computed from the matrix, so the engines agree on
        it bit-for-bit whenever the per-cell rewards agree.
        """
        agents = [agent for agent, _ in self._users]
        sessions = [session for _, session in self._users]
        use_fleet = False
        if self.engine != "sequential":
            from ..sim import FleetRunner, fleet_supported

            use_fleet = fleet_supported(agents)
            if self.engine == "fleet" and not use_fleet:
                raise ConfigError(
                    "engine='fleet' requested but the enrolled population is "
                    "not fleet-capable"
                )
        if use_fleet:
            return (
                FleetRunner(
                    agents,
                    sessions,
                    n_workers=self.n_workers,
                    plan_chunk_size=self.plan_chunk_size,
                    exactness=self.exactness,
                    kernel_block_size=self.kernel_block_size,
                )
                .run(self.interactions_per_round)
                .rewards
            )
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
