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

import pickle
from contextlib import contextmanager
from typing import Callable

import numpy as np

from ..core.config import AgentMode, P2BConfig
from ..core.system import P2BSystem
from ..data.environment import Environment
from ..sim import (
    ENGINES,
    EXACTNESS_TIERS,
    EngineConfig,
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
    "ENGINES",
    "EXACTNESS_TIERS",
]

_default_config = EngineConfig()


def set_default_config(config: EngineConfig) -> None:
    """Install ``config`` as the process-wide engine configuration.

    Used when callers do not pass an engine configuration explicitly.
    Exists for entry points (the CLI flags) that sit many layers above
    :func:`run_setting` and should not thread parameters through every
    figure/sweep signature.
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


def _resolve_config(engine: "str | EngineConfig | None" = None) -> EngineConfig:
    """The :class:`EngineConfig` one call runs under.

    An ``EngineConfig`` is taken verbatim; an engine name
    (``"auto"``/``"sequential"``/``"fleet"``) or ``None`` goes onto the
    process default (:func:`set_default_config`).
    """
    if isinstance(engine, EngineConfig):
        return engine
    if engine is None:
        return _default_config
    return _default_config.replace(engine=engine)


def _resolve_engine(engine: str, agents) -> bool:
    """Decide whether ``agents`` run on the fleet engine.

    ``"fleet"`` insists (raising if the population is not
    fleet-capable); ``"auto"`` probes; ``"sequential"`` never.
    """
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
        The :class:`EngineConfig` to run under (its fields document
        every engine knob), or just an engine name —
        ``"sequential"``, ``"fleet"``, ``"auto"`` — applied to the
        process default, or ``None`` for the process default itself
        (see :func:`set_default_config`).
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
        environment is restored mid-walk, not rebuilt).
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
    cfg = _resolve_config(engine)
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
        # probe the class: on a fresh sink the properties have no data yet
        sink_type = type(cfg.sink)
        if not (hasattr(sink_type, "curve") and hasattr(sink_type, "mean_reward")):
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
            # the caller's sink is for the evaluation curve; the
            # contributor phase must never stream into it
            runner = FleetRunner(contributors, sessions, config=cfg.replace(sink=None))
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
                        "cfg": cfg,
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
        # one columnar collection route for either engine: fleet-run
        # contributors drain log rows, sequential ones report objects
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
    if _resolve_engine(cfg.engine, eval_agents):
        eval_sessions = [env.new_user(s) for s in eval_seeds]
        fleet = FleetRunner(eval_agents, eval_sessions, config=cfg)
        if checkpoint_every is not None:
            # phase context for restarts of *this* phase: the system is
            # snapshotted post-collection, so privacy accounting and
            # collection counters survive the restart
            context = pickle.dumps(
                {
                    "phase": "eval",
                    "system": system,
                    "mode": mode,
                    "cfg": cfg,
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
    n_contributors: int,
    n_eval_agents: int,
    eval_interactions: int,
    n_reports: int,
    n_released: int,
) -> ExperimentResult:
    """Reduce evaluation output into the :class:`ExperimentResult`."""
    if curve is None:
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

    runner = FleetRunner.resume(path)
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
            ctx["cfg"],
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
    cfg = _resolve_config(engine)
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
