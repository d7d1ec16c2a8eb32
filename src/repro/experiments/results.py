"""Result containers and rendering for the evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol, runtime_checkable

import numpy as np

from ..utils.tables import format_kv, format_series, format_table

__all__ = [
    "ExperimentResult",
    "SettingComparison",
    "FigureResult",
    "ResultSink",
    "CurveSink",
    "NullSink",
]


@runtime_checkable
class ResultSink(Protocol):
    """Streaming consumer of fleet result columns.

    Passed to :meth:`repro.sim.fleet.FleetRunner.run` (``sink=``), a
    sink receives each round's outcomes as they are produced instead
    of the engine materializing ``(n_agents, T)`` matrices — the
    memory saving that makes curve-only million-agent runs fit in RAM.

    Contract: ``begin`` is called once before any column; ``emit`` may
    deliver *partial* rows (one call per shard per round) in any round
    order across shards, and the arrays it receives are copies the
    sink may keep or reduce freely; ``finish`` is called exactly once
    after the last column (also for empty populations, with
    ``begin(0, T)``).  ``emit`` runs under the engine's sink lock —
    implementations need no locking of their own but must stay cheap.
    """

    def begin(self, n_agents: int, n_interactions: int) -> None: ...

    def emit(
        self,
        t: int,
        rows: np.ndarray,
        rewards: np.ndarray,
        expected: np.ndarray | None,
        expected_ok: np.ndarray,
    ) -> None: ...

    def finish(self) -> None: ...


class CurveSink:
    """Accumulate per-round reward sums — the curve without the matrices.

    Reduces every emitted column into two ``(T,)`` accumulators:
    realized rewards and the *measured* channel (expected reward where
    the session provides ground truth, realized otherwise — the same
    per-agent fallback :meth:`~repro.sim.fleet.FleetResult.measured`
    applies).  The resulting :attr:`curve` / :attr:`cumulative_curve` /
    :attr:`mean_reward` match what ``run_setting`` derives from the
    full matrices up to float summation order.
    """

    def __init__(self) -> None:
        self.n_agents = 0
        self.n_interactions = 0
        self._realized: np.ndarray | None = None
        self._measured: np.ndarray | None = None

    def begin(self, n_agents: int, n_interactions: int) -> None:
        self.n_agents = n_agents
        self.n_interactions = n_interactions
        self._realized = np.zeros(n_interactions, dtype=np.float64)
        self._measured = np.zeros(n_interactions, dtype=np.float64)

    def emit(self, t, rows, rewards, expected, expected_ok) -> None:
        self._realized[t] += rewards.sum()
        if expected is None:
            self._measured[t] += rewards.sum()
        else:
            self._measured[t] += np.where(expected_ok, expected, rewards).sum()

    def finish(self) -> None:
        pass

    @property
    def curve(self) -> np.ndarray:
        """Per-interaction mean measured reward across agents."""
        return self._measured / max(self.n_agents, 1)

    @property
    def cumulative_curve(self) -> np.ndarray:
        """Running mean of :attr:`curve` (the paper's plotted series)."""
        return np.cumsum(self.curve) / np.arange(1, self.n_interactions + 1)

    @property
    def mean_reward(self) -> float:
        """Mean measured reward over all (agent, interaction) pairs."""
        if self.n_agents == 0 or self.n_interactions == 0:
            return 0.0
        return float(self.curve.mean())


class NullSink:
    """Discard every column — run the fleet for its side effects only.

    For phases that need learning, participation, and report rows but
    never read the result matrices (e.g. the contributor phase of
    ``run_setting``), this drops the O(n x T) result memory outright.
    """

    def begin(self, n_agents: int, n_interactions: int) -> None:
        pass

    def emit(self, t, rows, rewards, expected, expected_ok) -> None:
        pass

    def finish(self) -> None:
        pass


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of evaluating one setting (cold / warm-*) once.

    Attributes
    ----------
    mode:
        The :class:`~repro.core.config.AgentMode` evaluated.
    mean_reward:
        Average reward over all evaluation interactions — the paper's
        headline metric (it equals accuracy / CTR for 0-1 rewards).
    curve:
        ``curve[t]`` = mean reward of eval agents at interaction ``t``
        (instantaneous learning curve).
    cumulative_curve:
        Running mean of ``curve`` — the series the paper's Figs. 6/7
        plot against "number of local interactions".
    n_contributors / n_eval_agents / eval_interactions:
        Workload bookkeeping.
    n_reports / n_released:
        Data-collection accounting (0 for cold).
    privacy:
        Privacy-report dict for warm-private runs, else None.
    """

    mode: str
    mean_reward: float
    curve: np.ndarray
    cumulative_curve: np.ndarray
    n_contributors: int
    n_eval_agents: int
    eval_interactions: int
    n_reports: int = 0
    n_released: int = 0
    privacy: Mapping[str, Any] | None = None

    def summary(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "mode": self.mode,
            "mean_reward": self.mean_reward,
            "contributors": self.n_contributors,
            "reports": self.n_reports,
            "released": self.n_released,
        }
        if self.privacy is not None:
            out["epsilon"] = self.privacy["epsilon"]
        return out


@dataclass(frozen=True)
class SettingComparison:
    """Results of the three §5 settings on one workload."""

    results: Mapping[str, ExperimentResult]

    def __getitem__(self, mode: str) -> ExperimentResult:
        return self.results[mode]

    def modes(self) -> list[str]:
        return list(self.results)

    def mean_rewards(self) -> dict[str, float]:
        return {m: r.mean_reward for m, r in self.results.items()}

    def curves(self) -> dict[str, np.ndarray]:
        return {m: r.cumulative_curve for m, r in self.results.items()}

    def render_summary(self, *, title: str | None = None) -> str:
        return format_table([r.summary() for r in self.results.values()], title=title)

    def render_curves(self, *, title: str | None = None, every: int = 1) -> str:
        curves = self.curves()
        length = min(len(c) for c in curves.values())
        xs = list(range(1, length + 1))[::every]
        series = {m: c[:length][::every].tolist() for m, c in curves.items()}
        return format_series(xs, series, x_name="interactions", title=title)


@dataclass
class FigureResult:
    """A reproduced figure: named series over one x-axis, plus metadata.

    ``rows`` render as the printed stand-in for the paper's plot.
    """

    figure_id: str
    description: str
    x_name: str
    x_values: list
    series: dict[str, list[float]] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)

    def add_point(self, x, values: Mapping[str, float]) -> None:
        """Append one x-position with its per-series values."""
        self.x_values.append(x)
        for name, value in values.items():
            self.series.setdefault(name, []).append(float(value))

    def render(self) -> str:
        header = f"{self.figure_id}: {self.description}"
        body = format_series(
            self.x_values, self.series, x_name=self.x_name, title=header
        )
        if self.notes:
            body += "\n" + format_kv(dict(self.notes), title="notes")
        return body

    def as_rows(self) -> list[dict]:
        rows = []
        for i, x in enumerate(self.x_values):
            row = {self.x_name: x}
            for name, values in self.series.items():
                row[name] = values[i]
            rows.append(row)
        return rows
