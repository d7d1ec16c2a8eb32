"""The distributed-simulation protocol of the paper's evaluation (§5).

One :func:`run_setting` call simulates a full deployment of one of the
three settings:

1. **Contribution phase** (warm settings only) — ``n_contributors``
   fresh agents each interact ``contributor_interactions`` times with
   their own user session; their opportunistic reports are collected,
   (for the private setting) shuffled and thresholded, and the central
   model is trained.
2. **Evaluation phase** — ``n_eval_agents`` *fresh* agents (the paper's
   test users), warm-started from the central model where applicable,
   each interact ``eval_interactions`` times; per-interaction rewards
   are recorded.

:func:`compare_settings` runs all three settings against identically
seeded environments and user populations, so the comparison is paired:
every setting faces the same users in the same order.
"""

from __future__ import annotations

import dataclasses
import pickle
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.config import AgentMode, P2BConfig
from ..core.system import P2BSystem
from ..data.environment import Environment
from ..sim import (
    EXACTNESS_TIERS,
    FaultPolicy,
    FleetRunner,
    fleet_supported,
)
from ..utils.rng import spawn_seeds
from ..utils.validation import check_positive_int
from .results import CurveSink, ExperimentResult, NullSink, SettingComparison

__all__ = [
    "run_setting",
    "compare_settings",
    "EngineConfig",
    "set_default_config",
    "get_default_config",
    "use_config",
    "set_default_engine",
    "get_default_engine",
    "set_default_n_workers",
    "get_default_n_workers",
    "set_default_plan_chunk_size",
    "get_default_plan_chunk_size",
    "set_default_exactness",
    "get_default_exactness",
    "ENGINES",
    "EXACTNESS_TIERS",
    "UNSET",
]

#: recognized simulation engines: ``sequential`` is the reference
#: per-agent loop, ``fleet`` the vectorized sharded population engine
#: (:mod:`repro.sim` — heterogeneous populations partition into one
#: stacked state per policy/mode configuration), ``auto`` picks fleet
#: whenever every agent's policy supports it (bit-identical by the sim
#: contract) and falls back otherwise.
ENGINES = ("auto", "sequential", "fleet")

def _check_engine(engine: str) -> str:
    if engine not in ENGINES:
        from ..utils.exceptions import ConfigError

        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine


def _check_exactness(exactness: str) -> str:
    if exactness not in EXACTNESS_TIERS:
        from ..utils.exceptions import ConfigError

        raise ConfigError(
            f"exactness must be one of {EXACTNESS_TIERS}, got {exactness!r}"
        )
    return exactness


#: default-argument sentinel distinguishing "not passed" (use the
#: process default) from an explicit ``None`` (``None`` is itself a
#: meaningful chunk size: whole horizons); shared by the sweep
#: functions, which forward their ``plan_chunk_size`` here
UNSET = object()


@dataclass(frozen=True)
class EngineConfig:
    """One immutable bundle of every simulation-engine knob.

    Replaces the kwarg pile that grew one parameter per PR (``engine``,
    ``n_workers``, ``plan_chunk_size``, ``exactness``, ``sink``,
    ``kernel_block_size``): build one ``EngineConfig``
    and hand it to any entry point — ``run_setting(engine=cfg)``,
    ``compare_settings(engine=cfg)``, the sweeps, ``DeploymentLoop``,
    ``FleetRunner(config=cfg)``, ``FleetService(engine=cfg)`` —
    or install it process-wide with :func:`set_default_config` /
    scoped with :func:`use_config`.

    The defaults reproduce the reference behavior exactly: auto engine
    selection, serial stepping, whole-horizon plans, bit exactness, no
    sink.  Validation happens at construction, so an ``EngineConfig``
    in hand is known-good.  ``sink`` is a per-run streaming target (a
    :class:`~repro.experiments.results.ResultSink`); it is only
    meaningful for fleet-engine runs and is rejected by entry points
    that run several settings (a shared sink would interleave them).

    The legacy per-call kwargs (``engine="fleet"``, ``n_workers=4``,
    ...) and the ``set_default_*`` setter pairs keep working as
    deprecation shims; mixing an ``EngineConfig`` with explicit legacy
    kwargs in the same call is an error (ambiguous precedence).

    ``fault_policy`` (a :class:`~repro.sim.FaultPolicy`) supervises
    fleet shard execution: a failed shard is retried from its last
    good state with exponential backoff, and exhausted retries either
    raise a :class:`~repro.utils.exceptions.WorkerError` or degrade
    the run by skipping the shard (``on_exhausted="skip_shard"``).
    ``None`` (the default) keeps the historical fail-fast behavior.

    ``kernel_block_size`` chunks the dense scoring kernels over the
    agent axis (``repro.bandits.kernels``); ``None`` (the default)
    auto-sizes the block to cache.  Blocked and unblocked evaluation
    are bitwise identical on every tier, so this knob is pure
    performance tuning.

    ``sweep_workers`` parallelizes one level *above* the engine: entry
    points that run several independent settings —
    :func:`compare_settings` and the sweeps built on it — fan them
    across worker processes through
    :class:`~repro.experiments.parallel.ParallelMap` (results ordered
    deterministically, bit-identical to the serial loop).  It requires
    picklable workloads (module-level env factories, not closures) and
    composes with ``n_workers``: each setting's fleet still parallelizes
    its shards inside its worker process.
    """

    engine: str = "auto"
    n_workers: int = 1
    plan_chunk_size: int | None = None
    exactness: str = "bit"
    sink: object | None = None
    fault_policy: FaultPolicy | None = None
    kernel_block_size: int | None = None
    sweep_workers: int = 1

    def __post_init__(self) -> None:
        _check_engine(self.engine)
        check_positive_int(self.n_workers, name="n_workers")
        check_positive_int(self.sweep_workers, name="sweep_workers")
        if self.plan_chunk_size is not None:
            check_positive_int(self.plan_chunk_size, name="plan_chunk_size")
        _check_exactness(self.exactness)
        if self.kernel_block_size is not None:
            check_positive_int(self.kernel_block_size, name="kernel_block_size")
        if self.fault_policy is not None and not isinstance(
            self.fault_policy, FaultPolicy
        ):
            from ..utils.exceptions import ConfigError

            raise ConfigError(
                f"fault_policy must be a FaultPolicy or None, "
                f"got {self.fault_policy!r}"
            )

    def replace(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied (validated like a fresh one)."""
        return dataclasses.replace(self, **changes)

    def __setstate__(self, state: dict) -> None:
        # checkpoints pickle the EngineConfig into their context blob;
        # a snapshot written before a field existed (sweep_workers
        # postdates the checkpoint format) must still restore — missing
        # fields take their defaults — and keys of retired knobs
        # (the plan form, the worker backend) are dropped
        for f in dataclasses.fields(self):
            value = state.get(f.name, f.default)
            if value is not dataclasses.MISSING:
                self.__dict__[f.name] = value


_default_config = EngineConfig()


def set_default_config(config: EngineConfig) -> None:
    """Install ``config`` as the process-wide engine configuration.

    Used when callers do not pass an engine configuration explicitly.
    Exists for entry points (the CLI flags) that sit many layers above
    :func:`run_setting` and should not thread parameters through every
    figure/sweep signature.  Replaces the five legacy
    ``set_default_*`` pairs, which now shim onto this.
    """
    global _default_config
    if not isinstance(config, EngineConfig):
        from ..utils.exceptions import ConfigError

        raise ConfigError(
            f"set_default_config expects an EngineConfig, got {type(config).__name__}"
        )
    _default_config = config


def get_default_config() -> EngineConfig:
    """The process-wide :class:`EngineConfig` (default: ``EngineConfig()``)."""
    return _default_config


@contextmanager
def use_config(config: EngineConfig | None = None, **overrides):
    """Temporarily install an engine configuration (context manager).

    ``use_config(cfg)`` swaps the process default for the ``with``
    block; ``use_config(engine="fleet", n_workers=4)`` overrides just
    those fields of the current default.  The previous default is
    restored on exit, even on error.  Yields the active config.
    """
    if config is None:
        config = _default_config.replace(**overrides)
    elif overrides:
        config = config.replace(**overrides)
    previous = _default_config
    set_default_config(config)
    try:
        yield config
    finally:
        set_default_config(previous)


def _warn_deprecated(old: str, new: str) -> None:
    warnings.warn(
        f"{old} is deprecated; use {new} instead",
        DeprecationWarning,
        stacklevel=3,
    )


def set_default_engine(engine: str) -> None:
    """Deprecated shim: ``set_default_config(cfg.replace(engine=...))``."""
    _warn_deprecated("set_default_engine", "set_default_config / use_config")
    set_default_config(_default_config.replace(engine=_check_engine(engine)))


def get_default_engine() -> str:
    """Deprecated shim: ``get_default_config().engine``."""
    _warn_deprecated("get_default_engine", "get_default_config().engine")
    return _default_config.engine


def set_default_n_workers(n_workers: int) -> None:
    """Deprecated shim: ``set_default_config(cfg.replace(n_workers=...))``."""
    _warn_deprecated("set_default_n_workers", "set_default_config / use_config")
    set_default_config(
        _default_config.replace(
            n_workers=check_positive_int(n_workers, name="n_workers")
        )
    )


def get_default_n_workers() -> int:
    """Deprecated shim: ``get_default_config().n_workers``."""
    _warn_deprecated("get_default_n_workers", "get_default_config().n_workers")
    return _default_config.n_workers


def set_default_plan_chunk_size(plan_chunk_size: int | None) -> None:
    """Deprecated shim: ``set_default_config(cfg.replace(plan_chunk_size=...))``."""
    _warn_deprecated("set_default_plan_chunk_size", "set_default_config / use_config")
    if plan_chunk_size is not None:
        plan_chunk_size = check_positive_int(plan_chunk_size, name="plan_chunk_size")
    set_default_config(_default_config.replace(plan_chunk_size=plan_chunk_size))


def get_default_plan_chunk_size() -> int | None:
    """Deprecated shim: ``get_default_config().plan_chunk_size``."""
    _warn_deprecated(
        "get_default_plan_chunk_size", "get_default_config().plan_chunk_size"
    )
    return _default_config.plan_chunk_size


def set_default_exactness(exactness: str) -> None:
    """Deprecated shim: ``set_default_config(cfg.replace(exactness=...))``."""
    _warn_deprecated("set_default_exactness", "set_default_config / use_config")
    set_default_config(_default_config.replace(exactness=_check_exactness(exactness)))


def get_default_exactness() -> str:
    """Deprecated shim: ``get_default_config().exactness``."""
    _warn_deprecated("get_default_exactness", "get_default_config().exactness")
    return _default_config.exactness


def _resolve_config(
    engine: "str | EngineConfig | None" = None,
    *,
    n_workers: int | None = None,
    plan_chunk_size=UNSET,
    exactness: str | None = None,
) -> EngineConfig:
    """Fold one call's engine arguments into a single :class:`EngineConfig`.

    ``engine`` accepts the new form — an :class:`EngineConfig`, taken
    verbatim — or the legacy string (``"auto"``/``"sequential"``/
    ``"fleet"``).  Legacy per-field kwargs override the process
    default; mixing them with an ``EngineConfig`` is rejected (the
    config already carries those fields, so precedence would be
    ambiguous).
    """
    if isinstance(engine, EngineConfig):
        if (
            n_workers is not None
            or plan_chunk_size is not UNSET
            or exactness is not None
        ):
            from ..utils.exceptions import ConfigError

            raise ConfigError(
                "pass engine settings either as one EngineConfig or as "
                "individual kwargs, not both (the EngineConfig already "
                "carries n_workers/plan_chunk_size/exactness)"
            )
        return engine
    changes: dict = {}
    if engine is not None:
        changes["engine"] = _check_engine(engine)
    if n_workers is not None:
        changes["n_workers"] = check_positive_int(n_workers, name="n_workers")
    if plan_chunk_size is not UNSET:
        if plan_chunk_size is not None:
            plan_chunk_size = check_positive_int(
                plan_chunk_size, name="plan_chunk_size"
            )
        changes["plan_chunk_size"] = plan_chunk_size
    if exactness is not None:
        changes["exactness"] = _check_exactness(exactness)
    if not changes:
        return _default_config
    return _default_config.replace(**changes)


def _resolve_engine(engine: str, agents) -> bool:
    """Decide whether ``agents`` run on the fleet engine.

    ``"fleet"`` insists (raising if the population is not
    fleet-capable); ``"auto"`` probes; ``"sequential"`` never.
    """
    engine = _check_engine(engine)
    if engine == "sequential":
        return False
    supported = fleet_supported(agents)
    if engine == "fleet" and not supported:
        from ..utils.exceptions import ConfigError

        raise ConfigError(
            "engine='fleet' requested but the population is not fleet-capable "
            "(empty, or it contains a policy without supports_fleet — "
            "heterogeneous populations shard automatically and are fine)"
        )
    return supported


def _simulate_agent(
    agent, session, n_interactions: int, *, track_expected: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Drive one agent/session pair.

    Returns the realized reward sequence and, when ``track_expected``
    and the session knows its ground truth, the *expected* reward of
    each chosen action.  Agents always learn from the realized (noisy)
    reward; the expected sequence is a measurement-noise-free evaluation
    channel for environments with large reward noise (the synthetic
    benchmark: sigma = 0.1 versus signal differences of ~0.02).
    """
    rewards = np.empty(n_interactions, dtype=np.float64)
    expected: np.ndarray | None = None
    if track_expected:
        expected = np.empty(n_interactions, dtype=np.float64)
    for t in range(n_interactions):
        x = session.next_context()
        action = agent.act(x)
        r = session.reward(action)
        agent.learn(x, action, r)
        rewards[t] = r
        if expected is not None:
            try:
                expected[t] = session.expected_rewards()[action]
            except NotImplementedError:
                expected = None
    return rewards, expected


def run_setting(
    env: Environment,
    config: P2BConfig,
    mode: str,
    *,
    n_contributors: int = 0,
    contributor_interactions: int | None = None,
    n_eval_agents: int = 50,
    eval_interactions: int = 50,
    seed=None,
    encoder=None,
    measure: str = "realized",
    engine: "str | EngineConfig | None" = None,
    n_workers: int | None = None,
    plan_chunk_size: int | None = UNSET,  # type: ignore[assignment]
    exactness: str | None = None,
    checkpoint_every: int | None = None,
    checkpoint_path=None,
    resume_from=None,
) -> ExperimentResult:
    """Simulate one setting end-to-end (see module docstring).

    Parameters
    ----------
    env:
        The workload (synthetic / multi-label / Criteo environment).
    config:
        Deployment parameters; ``config.n_actions`` and
        ``config.n_features`` must match the environment.
    mode:
        One of :class:`~repro.core.config.AgentMode`.
    n_contributors:
        Population size ``U`` for the contribution phase (ignored for
        cold).
    contributor_interactions:
        Interactions per contributor; defaults to ``config.window`` (the
        paper's synthetic setting interacts exactly ``T`` times).
    n_eval_agents, eval_interactions:
        Evaluation workload.
    seed:
        Root seed; contributor users, eval users, system internals all
        get independent child streams.
    encoder:
        Optional pre-fitted codebook shared across settings/sweep points
        (saves re-fitting k-means at every sweep point).
    measure:
        ``"realized"`` reports observed rewards; ``"expected"`` reports
        the ground-truth mean reward of chosen actions when the
        environment provides it (falls back to realized otherwise).
        Learning always uses realized rewards.
    engine:
        The preferred form is an :class:`EngineConfig` carrying every
        engine knob at once.  The legacy string form —
        ``"sequential"``, ``"fleet"``, ``"auto"`` (fleet when every
        agent's policy supports it; heterogeneous populations shard
        into one stacked state per configuration) — still works, as
        does ``None`` for the process default (see
        :func:`set_default_config`).  Fleet and sequential produce
        bit-identical results whenever both run (the :mod:`repro.sim`
        contract, pinned by ``tests/sim/``).
    n_workers:
        Legacy kwarg (prefer :class:`EngineConfig`): fleet shard
        parallelism (``None`` for the process default).  Multi-shard
        populations step their shards concurrently; results stay
        identical to serial.
    plan_chunk_size:
        Legacy kwarg (prefer :class:`EngineConfig`): fleet plan-chunk
        size (omit for the process default): session plans materialize
        in horizon slices of this many steps (stationary noise and plan
        calls; traced row walks are allocated whole); ``None``
        materializes whole horizons.  Results are identical
        for every chunk size (the :mod:`repro.sim` contract).
    exactness:
        Legacy kwarg (prefer :class:`EngineConfig`): contract tier for
        fleet runs, one of :data:`~repro.sim.EXACTNESS_TIERS`, or
        ``None`` for the process default.  ``"bit"`` (the initial
        default) is bit-identical to the sequential loop; ``"fast"``
        holds memory-lean policy state and streams curve sums instead
        of materializing result matrices — statistically equivalent
        curves, not bitwise (sequential-engine runs ignore the tier;
        they are the bit reference by definition).
    checkpoint_every, checkpoint_path:
        Make the run restartable: the fleet phases execute in segments
        of ``checkpoint_every`` rounds and snapshot population state,
        partial results and the setting's own phase context atomically
        to ``checkpoint_path`` after each.  A killed run finishes via
        ``resume_from`` **bit-identically** to the uninterrupted one.
        Requires the fleet engine at ``exactness="bit"`` with no sink.
    resume_from:
        Path of a snapshot a previous ``run_setting`` call wrote; the
        interrupted phase finishes from it and the remaining phases run
        normally, returning the same :class:`ExperimentResult` the
        original call would have.  ``mode`` must match the snapshot's;
        the other workload arguments are taken from the snapshot (the
        environment is restored mid-walk, not rebuilt).  Supervision is
        per-process: pass ``fault_policy`` again if the resumed run
        should be supervised too.
    """
    if measure not in ("realized", "expected"):
        from ..utils.exceptions import ConfigError

        raise ConfigError(f"measure must be 'realized' or 'expected', got {measure!r}")
    check_positive_int(n_eval_agents, name="n_eval_agents")
    check_positive_int(eval_interactions, name="eval_interactions")
    if env.n_actions != config.n_actions or env.n_features != config.n_features:
        from ..utils.exceptions import ConfigError

        raise ConfigError(
            f"environment ({env.n_actions} actions, {env.n_features} features) does not "
            f"match config ({config.n_actions} actions, {config.n_features} features)"
        )
    sys_seed, contrib_users_seed, eval_users_seed = spawn_seeds(seed, 3)
    cfg = _resolve_config(
        engine,
        n_workers=n_workers,
        plan_chunk_size=plan_chunk_size,
        exactness=exactness,
    )
    checkpointing = checkpoint_every is not None or checkpoint_path is not None
    if checkpointing or resume_from is not None:
        _check_checkpointable(cfg)
    if checkpointing:
        from ..utils.exceptions import ConfigError

        if checkpoint_every is None or checkpoint_path is None:
            raise ConfigError(
                "checkpoint_every and checkpoint_path go together: the "
                "cadence says when to snapshot, the path says where"
            )
        check_positive_int(checkpoint_every, name="checkpoint_every")
    if resume_from is not None:
        return _resume_setting(
            resume_from,
            mode=mode,
            cfg=cfg,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )
    if cfg.sink is not None:
        if cfg.engine == "sequential":
            from ..utils.exceptions import ConfigError

            raise ConfigError(
                "EngineConfig.sink streams fleet-engine results; the "
                "sequential engine fills result matrices directly (drop the "
                "sink or pick engine='auto'/'fleet')"
            )
        if not (hasattr(cfg.sink, "curve") and hasattr(cfg.sink, "mean_reward")):
            from ..utils.exceptions import ConfigError

            raise ConfigError(
                "run_setting needs the evaluation curve back from the sink: "
                "EngineConfig.sink must expose .curve and .mean_reward "
                "(e.g. CurveSink), got "
                f"{type(cfg.sink).__name__}"
            )
    tier = cfg.exactness
    system = P2BSystem(config, mode=mode, encoder=encoder, seed=sys_seed)

    n_reports = n_released = 0
    if mode != AgentMode.COLD and n_contributors > 0:
        t_contrib = (
            contributor_interactions
            if contributor_interactions is not None
            else config.window
        )
        check_positive_int(t_contrib, name="contributor_interactions")
        contributors = [system.new_agent() for _ in range(n_contributors)]
        sessions = [
            env.new_user(s) for s in spawn_seeds(contrib_users_seed, n_contributors)
        ]
        if _resolve_engine(cfg.engine, contributors):
            runner = FleetRunner(
                contributors,
                sessions,
                n_workers=cfg.n_workers,
                plan_chunk_size=cfg.plan_chunk_size,
                exactness=tier,
                kernel_block_size=cfg.kernel_block_size,
                fault_policy=cfg.fault_policy,
            )
            if checkpointing:
                # the phase context makes the snapshot self-contained:
                # everything _resume_setting needs to finish the whole
                # setting — the system (pre-collection), the environment
                # mid-walk, and the evaluation workload arguments
                context = pickle.dumps(
                    {
                        "phase": "contrib",
                        "system": system,
                        "env": env,
                        "mode": mode,
                        "cfg": cfg.replace(fault_policy=None),
                        "n_contributors": n_contributors,
                        "n_eval_agents": n_eval_agents,
                        "eval_interactions": eval_interactions,
                        "eval_users_seed": eval_users_seed,
                        "measure": measure,
                        "checkpoint_every": checkpoint_every,
                    }
                )
                runner.run(
                    t_contrib,
                    checkpoint_every=checkpoint_every,
                    checkpoint_path=checkpoint_path,
                    checkpoint_context=context,
                )
            else:
                # the contributor phase never reads its result matrices,
                # so the fast tier streams them into a discarding sink —
                # zero O(n x T) result memory on million-contributor runs
                runner.run(t_contrib, sink=NullSink() if tier == "fast" else None)
        else:
            if checkpointing:
                from ..utils.exceptions import ConfigError

                raise ConfigError(
                    "checkpoint/resume needs the fleet engine, but this "
                    "population is not fleet-capable under engine='auto'"
                )
            for agent, session in zip(contributors, sessions):
                _simulate_agent(agent, session, t_contrib)
        # fleet-run contributors hold columnar pending reports, so this
        # collection round flows arrays end-to-end (shuffler + server
        # ingest_arrays) — bit-identical to the sequential object drain
        outcome = system.collect(contributors)
        n_reports, n_released = outcome.n_reports, outcome.n_released

    return _eval_phase(
        system,
        env,
        cfg,
        mode=mode,
        n_contributors=n_contributors,
        n_eval_agents=n_eval_agents,
        eval_interactions=eval_interactions,
        eval_users_seed=eval_users_seed,
        measure=measure,
        n_reports=n_reports,
        n_released=n_released,
        checkpoint_every=checkpoint_every if checkpointing else None,
        checkpoint_path=checkpoint_path if checkpointing else None,
    )


def _check_checkpointable(cfg: EngineConfig) -> None:
    """Reject engine configurations that cannot snapshot mid-horizon."""
    from ..utils.exceptions import ConfigError

    if cfg.engine == "sequential":
        raise ConfigError(
            "checkpoint/resume runs on the fleet engine; "
            "engine='sequential' cannot snapshot mid-horizon"
        )
    if cfg.sink is not None:
        raise ConfigError(
            "checkpointing materializes partial result matrices and cannot "
            "stream into EngineConfig.sink; drop the sink or the checkpointing"
        )
    if cfg.exactness == "fast":
        raise ConfigError(
            "run_setting checkpointing requires exactness='bit': the fast "
            "tier streams results through sinks, which cannot be snapshotted"
        )


def _eval_phase(
    system: P2BSystem,
    env: Environment,
    cfg: EngineConfig,
    *,
    mode: str,
    n_contributors: int,
    n_eval_agents: int,
    eval_interactions: int,
    eval_users_seed,
    measure: str,
    n_reports: int,
    n_released: int,
    checkpoint_every: int | None = None,
    checkpoint_path=None,
) -> ExperimentResult:
    """The evaluation phase of :func:`run_setting` (fresh users).

    Factored out so a resumed contribution-phase snapshot
    (:func:`_resume_setting`) re-enters the identical code path the
    uninterrupted run takes — the bit-identity guarantee rests on it.
    """
    tier = cfg.exactness
    eval_seeds = spawn_seeds(eval_users_seed, n_eval_agents)
    want_expected = measure == "expected"
    warm = mode != AgentMode.COLD and n_contributors > 0
    # NB: the per-agent sequential loop creates agent i then session i;
    # batching construction is equivalent because sessions are built
    # from pre-spawned seeds and never touch the system's agent stream.
    eval_agents = [
        system.new_warm_agent() if warm else system.new_agent()
        for _ in range(n_eval_agents)
    ]
    curve = mean_reward = None
    dropped: tuple = ()
    if _resolve_engine(cfg.engine, eval_agents):
        eval_sessions = [env.new_user(s) for s in eval_seeds]
        fleet = FleetRunner(
            eval_agents,
            eval_sessions,
            n_workers=cfg.n_workers,
            plan_chunk_size=cfg.plan_chunk_size,
            exactness=tier,
            kernel_block_size=cfg.kernel_block_size,
            fault_policy=cfg.fault_policy,
        )
        if checkpoint_every is not None:
            # phase context for restarts of *this* phase: the system is
            # snapshotted post-collection, so privacy accounting and
            # collection counters survive the restart
            context = pickle.dumps(
                {
                    "phase": "eval",
                    "system": system,
                    "mode": mode,
                    "cfg": cfg.replace(fault_policy=None),
                    "n_contributors": n_contributors,
                    "n_eval_agents": n_eval_agents,
                    "eval_interactions": eval_interactions,
                    "measure": measure,
                    "n_reports": n_reports,
                    "n_released": n_released,
                    "checkpoint_every": checkpoint_every,
                }
            )
            result = fleet.run(
                eval_interactions,
                track_expected=want_expected,
                checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path,
                checkpoint_context=context,
            )
            reward_matrix = result.measured()
            dropped = result.dropped
        elif cfg.sink is not None or tier == "fast":
            # curve-only reduction: per-round sums stream into the sink
            # and the (n, T) matrices are never materialized
            sink = cfg.sink if cfg.sink is not None else CurveSink()
            fleet.run(eval_interactions, track_expected=want_expected, sink=sink)
            curve = sink.curve
            mean_reward = sink.mean_reward
        else:
            result = fleet.run(eval_interactions, track_expected=want_expected)
            reward_matrix = result.measured()
            dropped = result.dropped
    else:
        from ..utils.exceptions import ConfigError

        if checkpoint_every is not None:
            raise ConfigError(
                "checkpoint/resume needs the fleet engine, but this "
                "population is not fleet-capable under engine='auto'"
            )
        if cfg.sink is not None:
            raise ConfigError(
                "EngineConfig.sink requires the fleet engine, but this "
                "population is not fleet-capable under engine='auto' "
                "(drop the sink or fix the population)"
            )
        reward_matrix = np.empty((n_eval_agents, eval_interactions), dtype=np.float64)
        for i, user_seed in enumerate(eval_seeds):
            agent = eval_agents[i]
            session = env.new_user(user_seed)
            realized, expected = _simulate_agent(
                agent, session, eval_interactions, track_expected=want_expected
            )
            reward_matrix[i] = (
                expected if (want_expected and expected is not None) else realized
            )

    return _finish_result(
        system,
        mode=mode,
        curve=curve,
        mean_reward=mean_reward,
        reward_matrix=None if curve is not None else reward_matrix,
        dropped=dropped,
        n_contributors=n_contributors,
        n_eval_agents=n_eval_agents,
        eval_interactions=eval_interactions,
        n_reports=n_reports,
        n_released=n_released,
    )


def _finish_result(
    system: P2BSystem,
    *,
    mode: str,
    curve,
    mean_reward,
    reward_matrix,
    dropped: tuple,
    n_contributors: int,
    n_eval_agents: int,
    eval_interactions: int,
    n_reports: int,
    n_released: int,
) -> ExperimentResult:
    """Reduce evaluation output into the :class:`ExperimentResult`."""
    if curve is None:
        if dropped:
            # degraded run (FaultPolicy on_exhausted="skip_shard"): the
            # dropped shards' rows are NaN-filled — average the survivors
            curve = np.nanmean(reward_matrix, axis=0)
            mean_reward = float(np.nanmean(reward_matrix))
        else:
            curve = reward_matrix.mean(axis=0)
            mean_reward = float(reward_matrix.mean())
    cumulative = np.cumsum(curve) / np.arange(1, eval_interactions + 1)
    privacy = None
    if mode == AgentMode.WARM_PRIVATE:
        privacy = system.privacy_report().as_dict()
    return ExperimentResult(
        mode=mode,
        mean_reward=mean_reward,
        curve=curve,
        cumulative_curve=cumulative,
        n_contributors=n_contributors if mode != AgentMode.COLD else 0,
        n_eval_agents=n_eval_agents,
        eval_interactions=eval_interactions,
        n_reports=n_reports,
        n_released=n_released,
        privacy=privacy,
    )


def _resume_setting(
    path,
    *,
    mode: str,
    cfg: EngineConfig,
    checkpoint_every: int | None,
    checkpoint_path,
) -> ExperimentResult:
    """Finish a :func:`run_setting` interrupted mid-phase.

    The snapshot's context blob says which phase was in flight and
    carries everything needed to finish the setting: a ``contrib``
    snapshot resumes the contributor horizon, collects, and runs the
    evaluation phase through the normal code path; an ``eval`` snapshot
    resumes the evaluation horizon and reduces.  Either way the result
    is bit-identical to the run that was never interrupted.
    """
    from ..utils.exceptions import CheckpointError, ConfigError

    runner = FleetRunner.resume(path, fault_policy=cfg.fault_policy)
    blob = runner.resume_context
    if blob is None:
        raise CheckpointError(
            f"checkpoint {str(path)!r} carries no run_setting context — it "
            "was written by FleetRunner directly; finish it with "
            "FleetRunner.resume(path).resume_run() instead"
        )
    try:
        ctx = pickle.loads(blob)
        phase = ctx["phase"]
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {str(path)!r} holds an unreadable run_setting "
            f"context: {exc}"
        ) from exc
    if ctx["mode"] != mode:
        raise ConfigError(
            f"checkpoint {str(path)!r} belongs to a {ctx['mode']!r} run, "
            f"but resume was requested for mode {mode!r}"
        )
    # supervision is per-process (not part of the snapshot): the
    # resume-time fault policy governs both the resumed horizon and
    # every phase after it
    phase_cfg = ctx["cfg"].replace(fault_policy=cfg.fault_policy)
    path_out = path if checkpoint_path is None else checkpoint_path
    every = (
        ctx.get("checkpoint_every") if checkpoint_every is None else checkpoint_every
    )
    system = ctx["system"]
    if phase == "contrib":
        runner.resume_run(checkpoint_path=path_out, checkpoint_every=every)
        outcome = system.collect(runner.agents)
        return _eval_phase(
            system,
            ctx["env"],
            phase_cfg,
            mode=ctx["mode"],
            n_contributors=ctx["n_contributors"],
            n_eval_agents=ctx["n_eval_agents"],
            eval_interactions=ctx["eval_interactions"],
            eval_users_seed=ctx["eval_users_seed"],
            measure=ctx["measure"],
            n_reports=outcome.n_reports,
            n_released=outcome.n_released,
            checkpoint_every=every,
            checkpoint_path=path_out,
        )
    if phase != "eval":
        raise CheckpointError(
            f"checkpoint {str(path)!r} has unknown run_setting phase {phase!r}"
        )
    result = runner.resume_run(checkpoint_path=path_out, checkpoint_every=every)
    return _finish_result(
        system,
        mode=ctx["mode"],
        curve=None,
        mean_reward=None,
        reward_matrix=result.measured(),
        dropped=result.dropped,
        n_contributors=ctx["n_contributors"],
        n_eval_agents=ctx["n_eval_agents"],
        eval_interactions=ctx["eval_interactions"],
        n_reports=ctx["n_reports"],
        n_released=ctx["n_released"],
    )


def _run_one_setting(job: tuple) -> ExperimentResult:
    """One ``compare_settings`` mode, shaped for :class:`ParallelMap`.

    Module-level on purpose: sweep-level parallelism pickles
    ``(fn, job)`` into a worker process, and the job builds its
    environment *inside* the worker (environments carry assignment
    state; only the factory crosses the boundary).
    """
    env_factory, config, mode, kwargs = job
    return run_setting(env_factory(), config, mode, **kwargs)


def compare_settings(
    env_factory: Callable[[], Environment],
    config: P2BConfig,
    *,
    n_contributors: int,
    contributor_interactions: int | None = None,
    n_eval_agents: int = 50,
    eval_interactions: int = 50,
    seed=None,
    modes: tuple[str, ...] = AgentMode.ALL,
    encoder=None,
    measure: str = "realized",
    engine: "str | EngineConfig | None" = None,
    n_workers: int | None = None,
    plan_chunk_size: int | None = UNSET,  # type: ignore[assignment]
    exactness: str | None = None,
) -> SettingComparison:
    """Run the three §5 settings on identically seeded workloads.

    ``env_factory`` must build a *fresh but identically seeded*
    environment on every call (environments carry assignment state, so
    sharing one instance across settings would unfairly hand later
    settings different users).  ``engine`` accepts an
    :class:`EngineConfig` like :func:`run_setting` — except one with a
    ``sink``, which is per-run state and would interleave the settings.

    With ``EngineConfig.sweep_workers > 1`` the settings run
    concurrently in worker processes (each builds its environment from
    ``env_factory`` inside its worker — the factory and encoder must be
    picklable).  Every setting seeds its own streams from the same root
    ``seed`` either way, so the comparison is bit-identical to the
    serial loop, in the same deterministic ``modes`` order.
    """
    cfg = _resolve_config(
        engine,
        n_workers=n_workers,
        plan_chunk_size=plan_chunk_size,
        exactness=exactness,
    )
    if cfg.sink is not None:
        from ..utils.exceptions import ConfigError

        raise ConfigError(
            "compare_settings runs several settings; a shared "
            "EngineConfig.sink would accumulate across them — run "
            "run_setting per mode with a fresh sink instead"
        )
    kwargs = dict(
        n_contributors=n_contributors,
        contributor_interactions=contributor_interactions,
        n_eval_agents=n_eval_agents,
        eval_interactions=eval_interactions,
        seed=seed,  # same root seed => paired users across settings
        encoder=encoder,
        measure=measure,
        # one sweep level only: the settings are already fanned out
        # here, so each worker's own compare/sweep calls run serial
        engine=cfg.replace(sweep_workers=1),
    )
    if cfg.sweep_workers > 1:
        from .parallel import ParallelMap

        jobs = [(env_factory, config, mode, kwargs) for mode in modes]
        outs = ParallelMap(cfg.sweep_workers).map(_run_one_setting, jobs)
        return SettingComparison(results=dict(zip(modes, outs)))
    results = {}
    for mode in modes:
        results[mode] = _run_one_setting((env_factory, config, mode, kwargs))
    return SettingComparison(results=results)
