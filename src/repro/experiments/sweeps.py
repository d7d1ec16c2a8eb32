"""Parameter sweeps behind the paper's figures (§5.1–§5.3).

Each sweep drives :func:`repro.experiments.runner.compare_settings`
over one axis (population ``U``, context dimension ``d``, arm count
``A``, codebook size ``k``, participation ``p``) and returns a
:class:`~repro.experiments.results.FigureResult` whose series are the
three settings' metrics — the printed equivalent of one paper plot.

Grid points are fully independent, so every sweep fans them across
worker processes when the engine configuration carries
``sweep_workers > 1`` (:class:`~repro.experiments.parallel.
ParallelMap`); points land in the figure in grid order regardless of
completion order, bit-identical to the serial sweep.  Parallel grids
require picklable factories — pass module-level ``env_factory`` /
``make_config`` callables, not lambdas.

Every sweep takes its engine knobs as one ``engine`` argument, exactly
as :func:`~repro.experiments.runner.compare_settings` does: an
:class:`~repro.sim.EngineConfig` (whose fields document the knobs), an
engine name, or ``None`` for the process default.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.config import AgentMode, P2BConfig
from ..data.synthetic import SyntheticPreferenceEnvironment
from ..encoding.kmeans_encoder import KMeansEncoder
from ..privacy.accounting import epsilon_from_p
from .parallel import ParallelMap
from .results import FigureResult
from .runner import EngineConfig, _resolve_config, compare_settings

__all__ = [
    "population_sweep",
    "dimension_sweep",
    "codebook_sweep",
    "participation_sweep",
]

_MODE_LABELS = {
    AgentMode.COLD: "cold",
    AgentMode.WARM_NONPRIVATE: "warm_nonprivate",
    AgentMode.WARM_PRIVATE: "warm_private",
}


def _shared_encoder(config: P2BConfig, seed) -> KMeansEncoder:
    """Fit the public codebook once per sweep (identical across points)."""
    return KMeansEncoder(
        n_codes=config.n_codes,
        n_features=config.n_features,
        q=config.q,
        seed=seed,
    ).fit()


def _sweep_point(job: tuple):
    """One grid point, shaped for :class:`ParallelMap` (module-level so
    ``(fn, job)`` pickles into a worker process)."""
    env_factory, config, kwargs = job
    return compare_settings(env_factory, config, **kwargs)


def _grid_plan(engine: str | EngineConfig | None) -> tuple[int, EngineConfig]:
    """Resolve a sweep's ``engine`` argument into ``(grid_workers, cfg)``.

    ``grid_workers`` fans the sweep's *points*; each point then runs
    with ``sweep_workers=1`` (one fan-out level — a point's settings
    run serially inside its worker, their fleets still free to use
    ``n_workers`` shard parallelism).  A serial grid keeps the caller's
    ``sweep_workers`` so :func:`compare_settings` can fan the settings
    instead.
    """
    cfg = _resolve_config(engine)
    grid_workers = cfg.sweep_workers
    point_cfg = cfg.replace(sweep_workers=1) if grid_workers > 1 else cfg
    return grid_workers, point_cfg


class _SyntheticEnvFactory:
    """Picklable per-point environment factory (``dimension_sweep``).

    A plain class instead of a closure so grid-parallel sweeps can ship
    it to worker processes.
    """

    def __init__(self, n_actions: int, n_features: int, weight_scale: float, seed) -> None:
        self.n_actions = n_actions
        self.n_features = n_features
        self.weight_scale = weight_scale
        self.seed = seed

    def __call__(self) -> SyntheticPreferenceEnvironment:
        return SyntheticPreferenceEnvironment(
            n_actions=self.n_actions,
            n_features=self.n_features,
            weight_scale=self.weight_scale,
            seed=self.seed,
        )


def population_sweep(
    u_values: Sequence[int],
    config: P2BConfig,
    *,
    env_factory: Callable[[], SyntheticPreferenceEnvironment],
    contributor_interactions: int | None = None,
    n_eval_agents: int = 60,
    eval_interactions: int = 10,
    seed: int = 0,
    figure_id: str = "fig4",
    description: str = "average reward vs population size U",
    measure: str = "realized",
    engine: str | EngineConfig | None = None,
) -> FigureResult:
    """Fig. 4's x-axis: grow the contributing population ``U``."""
    result = FigureResult(
        figure_id=figure_id,
        description=description,
        x_name="U",
        x_values=[],
        notes={
            "A": config.n_actions,
            "d": config.n_features,
            "k": config.n_codes,
            "p": config.p,
            "epsilon": epsilon_from_p(config.p),
        },
    )
    encoder = _shared_encoder(config, seed)
    grid_workers, point_cfg = _grid_plan(engine)
    jobs = [
        (
            env_factory,
            config,
            dict(
                n_contributors=int(u),
                contributor_interactions=contributor_interactions,
                n_eval_agents=n_eval_agents,
                eval_interactions=eval_interactions,
                seed=seed,
                encoder=encoder,
                measure=measure,
                engine=point_cfg,
            ),
        )
        for u in u_values
    ]
    comparisons = ParallelMap(grid_workers).map(_sweep_point, jobs)
    for u, comparison in zip(u_values, comparisons):
        result.add_point(
            int(u),
            {_MODE_LABELS[m]: r.mean_reward for m, r in comparison.results.items()},
        )
    return result


def dimension_sweep(
    d_values: Sequence[int],
    *,
    n_actions: int,
    n_contributors: int,
    make_config: Callable[[int], P2BConfig],
    env_seed: int = 0,
    contributor_interactions: int | None = None,
    n_eval_agents: int = 60,
    eval_interactions: int = 20,
    seed: int = 0,
    figure_id: str = "fig5",
    description: str = "average reward vs context dimension d",
    measure: str = "realized",
    engine: str | EngineConfig | None = None,
) -> FigureResult:
    """Fig. 5's x-axis: grow the context dimension ``d``.

    A fresh environment and codebook are required per ``d`` (the context
    space itself changes), hence the ``make_config`` callable.
    """
    result = FigureResult(
        figure_id=figure_id,
        description=description,
        x_name="d",
        x_values=[],
        notes={"A": n_actions, "U": n_contributors},
    )
    grid_workers, point_cfg = _grid_plan(engine)
    jobs = [
        (
            _SyntheticEnvFactory(n_actions, int(d), 8.0, env_seed),
            make_config(int(d)),
            dict(
                n_contributors=n_contributors,
                contributor_interactions=contributor_interactions,
                n_eval_agents=n_eval_agents,
                eval_interactions=eval_interactions,
                seed=seed,
                measure=measure,
                engine=point_cfg,
            ),
        )
        for d in d_values
    ]
    comparisons = ParallelMap(grid_workers).map(_sweep_point, jobs)
    for d, comparison in zip(d_values, comparisons):
        result.add_point(
            int(d),
            {_MODE_LABELS[m]: r.mean_reward for m, r in comparison.results.items()},
        )
    return result


def codebook_sweep(
    k_values: Sequence[int],
    base_config: P2BConfig,
    *,
    env_factory: Callable[[], object],
    n_contributors: int,
    contributor_interactions: int | None = None,
    n_eval_agents: int = 60,
    eval_interactions: int = 50,
    seed: int = 0,
    figure_id: str = "ablation-k",
    description: str = "reward vs codebook size k (warm-private)",
    engine: str | EngineConfig | None = None,
) -> FigureResult:
    """Ablation axis: codebook size ``k`` (Fig. 7 compares 2^5 vs 2^7)."""
    from dataclasses import replace

    result = FigureResult(
        figure_id=figure_id,
        description=description,
        x_name="k",
        x_values=[],
    )
    grid_workers, point_cfg = _grid_plan(engine)
    jobs = [
        (
            env_factory,
            replace(base_config, n_codes=int(k)),
            dict(
                n_contributors=n_contributors,
                contributor_interactions=contributor_interactions,
                n_eval_agents=n_eval_agents,
                eval_interactions=eval_interactions,
                seed=seed,
                modes=(AgentMode.WARM_PRIVATE,),
                engine=point_cfg,
            ),
        )
        for k in k_values
    ]
    comparisons = ParallelMap(grid_workers).map(_sweep_point, jobs)
    for k, comparison in zip(k_values, comparisons):
        result.add_point(
            int(k),
            {"warm_private": comparison[AgentMode.WARM_PRIVATE].mean_reward},
        )
    return result


def participation_sweep(
    p_values: Sequence[float],
    base_config: P2BConfig,
    *,
    env_factory: Callable[[], object],
    n_contributors: int,
    contributor_interactions: int | None = None,
    n_eval_agents: int = 60,
    eval_interactions: int = 20,
    seed: int = 0,
    figure_id: str = "ablation-p",
    description: str = "privacy/utility trade-off over participation p",
    engine: str | EngineConfig | None = None,
) -> FigureResult:
    """Ablation axis: participation probability ``p`` — the privacy lever.

    Each point reports the warm-private reward *and* the corresponding
    ``eps`` so the trade-off curve is explicit.
    """
    from dataclasses import replace

    result = FigureResult(
        figure_id=figure_id,
        description=description,
        x_name="p",
        x_values=[],
    )
    grid_workers, point_cfg = _grid_plan(engine)
    jobs = [
        (
            env_factory,
            replace(base_config, p=float(p)),
            dict(
                n_contributors=n_contributors,
                contributor_interactions=contributor_interactions,
                n_eval_agents=n_eval_agents,
                eval_interactions=eval_interactions,
                seed=seed,
                modes=(AgentMode.WARM_PRIVATE,),
                engine=point_cfg,
            ),
        )
        for p in p_values
    ]
    comparisons = ParallelMap(grid_workers).map(_sweep_point, jobs)
    for p, comparison in zip(p_values, comparisons):
        result.add_point(
            float(p),
            {
                "warm_private": comparison[AgentMode.WARM_PRIVATE].mean_reward,
                "epsilon": epsilon_from_p(float(p)),
            },
        )
    return result
