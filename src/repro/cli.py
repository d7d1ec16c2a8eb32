"""Command-line interface: regenerate any paper figure from the shell.

Examples
--------
::

    repro-p2b fig3
    repro-p2b fig4 --scale 0.2 --seed 1
    repro-p2b headline --scale 0.5
    python -m repro.cli fig6 --out results.txt
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .experiments import figures, runner
from .utils.exceptions import ReproError
from .utils.tables import format_kv

__all__ = ["main", "build_parser"]


def _render_fig2(args) -> str:
    return figures.figure2(seed=args.seed).render()


def _render_fig3(args) -> str:
    return figures.figure3().render()


def _render_fig4(args) -> str:
    panels = figures.figure4(scale=args.scale, seed=args.seed)
    return "\n\n".join(panel.render() for panel in panels.values())


def _render_fig5(args) -> str:
    return figures.figure5(scale=args.scale, seed=args.seed).render()


def _render_fig6(args) -> str:
    panels = figures.figure6(scale=args.scale, seed=args.seed)
    return "\n\n".join(panel.render() for panel in panels.values())


def _render_fig7(args) -> str:
    panels = figures.figure7(scale=args.scale, seed=args.seed)
    return "\n\n".join(panel.render() for panel in panels.values())


def _render_headline(args) -> str:
    numbers = figures.headline(scale=args.scale, seed=args.seed)
    return format_kv(numbers, title="headline comparison (paper abstract / §7)")


def _render_serve(args) -> str:
    """Run a streaming deployment: churn + drift + async collection."""
    from .core.config import P2BConfig
    from .data import DriftingSyntheticEnvironment
    from .experiments.serve import FleetService

    env = DriftingSyntheticEnvironment(
        n_actions=8,
        n_features=16,
        epoch_length=args.serve_epoch_length,
    )
    config = P2BConfig(
        n_actions=8, n_features=16, n_codes=16, shuffler_threshold=5
    )
    service = FleetService(
        config, env, seed=args.seed, request_timeout=args.serve_timeout
    )
    service.arrive(args.serve_agents)
    rewards_sum = 0.0
    rewards_n = 0
    interrupted = False
    try:
        for r in range(args.serve_requests):
            if args.serve_arrivals:
                service.arrive(args.serve_arrivals)
            if args.serve_departures and service.n_agents > args.serve_departures:
                service.depart(list(range(args.serve_departures)))
            result = service.interact(args.serve_batch)
            if result is not None and result.rewards.size:
                rewards_sum += float(result.rewards.sum())
                rewards_n += result.rewards.size
            if (r + 1) % args.serve_collect_every == 0:
                service.collect()
    except KeyboardInterrupt:
        interrupted = True
    finally:
        # graceful shutdown on SIGINT and end-of-requests alike: drain
        # every pending report row and flush the async buffer (nothing a device
        # already handed over is silently lost)
        shutdown_outcome = service.shutdown()
    stats = service.stats
    numbers = {
        "requests answered": stats.n_requests,
        "interactions served": stats.n_interactions,
        "agents arrived": stats.n_arrived,
        "agents departed": stats.n_departed,
        "final population": stats.n_agents,
        "reports collected": stats.n_reports,
        "tuples released": stats.n_released,
        "released at shutdown": shutdown_outcome.n_released,
        "tuples quarantined": stats.n_quarantined,
        "mean reward": rewards_sum / rewards_n if rewards_n else 0.0,
    }
    title = "streaming deployment (churn + drift + async)"
    if interrupted:
        title += " — interrupted, drained gracefully"
    return format_kv(numbers, title=title)


def _render_run(args) -> str:
    """One end-to-end setting run, restartable via checkpoint/resume."""
    from .core.config import P2BConfig
    from .data import SyntheticPreferenceEnvironment

    env = SyntheticPreferenceEnvironment(
        n_actions=8, n_features=16, seed=args.seed
    )
    config = P2BConfig(n_actions=8, n_features=16, n_codes=16, shuffler_threshold=5)
    result = runner.run_setting(
        env,
        config,
        args.mode,
        n_contributors=args.contributors,
        n_eval_agents=args.eval_agents,
        eval_interactions=args.eval_interactions,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint_path,
        resume_from=args.resume_from,
    )
    numbers = {
        "mode": result.mode,
        "mean reward": result.mean_reward,
        "contributors": result.n_contributors,
        "eval agents": result.n_eval_agents,
        "eval interactions": result.eval_interactions,
        "reports collected": result.n_reports,
        "tuples released": result.n_released,
    }
    if result.privacy:
        numbers.update(
            (f"privacy {k}", v) for k, v in sorted(result.privacy.items())
        )
    return format_kv(numbers, title=f"setting run ({result.mode})")


_COMMANDS: dict[str, tuple[Callable, str]] = {
    "fig2": (_render_fig2, "encoding example: q=1, d=3 simplex, k=6 clusters"),
    "fig3": (_render_fig3, "epsilon vs participation probability p (Eq. 3)"),
    "fig4": (_render_fig4, "synthetic benchmark: reward vs population U"),
    "fig5": (_render_fig5, "synthetic benchmark: reward vs dimension d"),
    "fig6": (_render_fig6, "multi-label accuracy vs local interactions"),
    "fig7": (_render_fig7, "criteo-like CTR vs local interactions"),
    "headline": (_render_headline, "abstract's headline deltas"),
    "serve": (_render_serve, "streaming deployment: churn, drift, async collection"),
    "run": (_render_run, "one setting end-to-end, restartable (checkpoint/resume)"),
}


def _positive_int(value: str) -> int:
    """argparse type: a clean usage error instead of a traceback."""
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {parsed}")
    return parsed


def _nonneg_int(value: str) -> int:
    """argparse type: like :func:`_positive_int` but allows zero."""
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if parsed < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {parsed}"
        )
    return parsed


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-p2b",
        description="Reproduce figures from 'Privacy-Preserving Bandits' (MLSys 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--scale",
            type=float,
            default=0.25,
            help="population scale factor (1.0 = the scaled-paper defaults in "
            "EXPERIMENTS.md; smaller is faster)",
        )
        p.add_argument("--seed", type=int, default=0, help="experiment seed")
        p.add_argument("--out", type=str, default=None, help="write output to file")
        p.add_argument(
            "--engine",
            choices=list(runner.ENGINES),
            default="auto",
            help="simulation engine: the vectorized sharded fleet path, the "
            "reference sequential loop, or auto (fleet whenever every agent's "
            "policy supports it — heterogeneous populations shard into one "
            "stacked state per configuration; both engines produce "
            "bit-identical results)",
        )
        p.add_argument(
            "--workers",
            type=_positive_int,
            default=1,
            help="fleet shard parallelism: shards of a heterogeneous "
            "population step concurrently within each round (results are "
            "identical to serial stepping; only multi-shard populations "
            "benefit)",
        )
        p.add_argument(
            "--sweep-workers",
            type=_positive_int,
            default=1,
            help="sweep-level parallelism: fan a figure's independent "
            "settings / grid points across this many worker processes "
            "(results are bit-identical to the serial sweep, in grid "
            "order; composes with --workers inside each point)",
        )
        p.add_argument(
            "--exactness",
            choices=list(runner.EXACTNESS_TIERS),
            default="bit",
            help="fleet contract tier: 'bit' (default) is bit-identical to "
            "the sequential reference; 'fast' holds memory-lean float32 "
            "sparse policy state and streams curves instead of result "
            "matrices — statistically equivalent output at a fraction of "
            "the memory (the million-agent regime)",
        )
        if name == "serve":
            p.add_argument(
                "--serve-agents",
                type=_positive_int,
                default=64,
                help="initial population size (arrivals before request 1)",
            )
            p.add_argument(
                "--serve-requests",
                type=_positive_int,
                default=20,
                help="batch score/update requests to answer",
            )
            p.add_argument(
                "--serve-batch",
                type=_positive_int,
                default=10,
                help="interaction steps per request",
            )
            p.add_argument(
                "--serve-arrivals",
                type=_nonneg_int,
                default=2,
                help="fresh devices enrolled before each request (0 = none)",
            )
            p.add_argument(
                "--serve-departures",
                type=_nonneg_int,
                default=2,
                help="devices retired before each request (0 = none; "
                "their buffered reports keep waiting for crowd-mates)",
            )
            p.add_argument(
                "--serve-collect-every",
                type=_positive_int,
                default=4,
                help="run asynchronous collection every this many requests",
            )
            p.add_argument(
                "--serve-epoch-length",
                type=_positive_int,
                default=20,
                help="interactions per stationary stretch of the drifting "
                "synthetic workload (preferences drift or switch at each "
                "epoch boundary)",
            )
            p.add_argument(
                "--serve-timeout",
                type=float,
                default=None,
                help="per-request wall-clock budget in seconds: a request "
                "over budget errors back to the caller while its work "
                "drains in the background and the service reports degraded "
                "(default: no budget)",
            )
        if name == "run":
            from .core.config import AgentMode

            p.add_argument(
                "--mode",
                choices=list(AgentMode.ALL),
                default=AgentMode.WARM_PRIVATE,
                help="which §5 setting to deploy (default: the paper's full "
                "private pipeline)",
            )
            p.add_argument(
                "--contributors",
                type=_nonneg_int,
                default=40,
                help="contribution-phase population size U (0 = skip the "
                "phase; ignored for cold mode)",
            )
            p.add_argument(
                "--eval-agents",
                type=_positive_int,
                default=20,
                help="evaluation-phase population size",
            )
            p.add_argument(
                "--eval-interactions",
                type=_positive_int,
                default=30,
                help="interactions per evaluation agent",
            )
            p.add_argument(
                "--checkpoint-every",
                type=_positive_int,
                default=None,
                help="snapshot the run every N rounds (requires "
                "--checkpoint-path); a killed run restarts bit-identically "
                "with --resume-from",
            )
            p.add_argument(
                "--checkpoint-path",
                type=str,
                default=None,
                help="where the snapshots land (atomic writes: a crash "
                "mid-write never clobbers the last good one)",
            )
            p.add_argument(
                "--resume-from",
                type=str,
                default=None,
                help="finish an interrupted run from its snapshot; --mode "
                "must match the snapshot's, the rest of the workload is "
                "restored from it",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve" and args.engine == "sequential":
        parser.error("serve keeps a hot fleet; --engine must be 'auto' or 'fleet'")
    runner.set_default_config(
        runner.EngineConfig(
            engine=args.engine,
            n_workers=args.workers,
            exactness=args.exactness,
            sweep_workers=args.sweep_workers,
        )
    )
    renderer, _ = _COMMANDS[args.command]
    try:
        text = renderer(args)
    except ReproError as exc:
        # typed engine/config/checkpoint/service failures map to one
        # actionable line, never a traceback (tracebacks are for bugs)
        print(f"repro-p2b: error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
