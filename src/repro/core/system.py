"""End-to-end P2B system wiring (paper Fig. 1).

:class:`P2BSystem` owns the public codebook, the shuffler, and the
central server, and manufactures correctly-configured
:class:`~repro.core.agent.LocalAgent` instances for any of the three
evaluation modes.  The full data path is::

    agent.learn(...)  ->  one row of the system's ReportLog (either engine)
      -> system.collect([agents])               # one route for every population
        -> drain_report_batches(agents)         # the agents' rows -> report columns
          -> shuffler.process_arrays(columns)   # anonymize, shuffle, threshold
            -> server.ingest_arrays(released)   # central LinUCB over codes
    system.model_snapshot() -> agent.warm_start(...)

:meth:`P2BSystem.collect_async` takes the same route, with
``shuffler.buffer_arrays`` + ``shuffler.release_ready`` as its private
step.  The non-private baseline follows the same surface but bypasses
the shuffler entirely (the raw-context columns feed the server
directly) — exactly the paper's "communicate the observed context to
the server in its original form".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from ..bandits.code_linucb import CodeLinUCB
from ..bandits.linucb import LinUCB
from ..encoding.kmeans_encoder import KMeansEncoder
from ..privacy.accounting import PrivacyReport
from ..utils.exceptions import ConfigError
from ..utils.rng import spawn_seeds
from .agent import LocalAgent
from .config import AgentMode, P2BConfig
from .participation import RandomizedParticipation
from .payload import ReportLog, drain_report_batches
from .server import NonPrivateServer, PrivateServer
from .shuffler import Shuffler, ShufflerStats

__all__ = ["P2BSystem", "CollectionResult"]


@dataclass(frozen=True)
class CollectionResult:
    """Outcome of one collection round."""

    n_reports: int
    n_released: int
    shuffler_stats: ShufflerStats | None  # None on the non-private path


class P2BSystem:
    """Factory + orchestrator for a P2B deployment.

    Parameters
    ----------
    config:
        Deployment parameters (see :class:`~repro.core.config.P2BConfig`).
    mode:
        Which §5 setting this system realizes; determines agent wiring
        and which server flavour exists.
    encoder:
        Optional pre-fitted encoder (the public codebook).  When absent
        and the mode is private, a :class:`KMeansEncoder` is fitted on
        synthetic simplex samples.
    seed:
        Root seed; every agent gets an independent child stream, so
        results are invariant to agent construction order.
    """

    def __init__(
        self,
        config: P2BConfig,
        *,
        mode: str = AgentMode.WARM_PRIVATE,
        encoder: KMeansEncoder | None = None,
        seed=None,
    ) -> None:
        if mode not in AgentMode.ALL:
            raise ConfigError(f"mode must be one of {AgentMode.ALL}, got {mode!r}")
        self.config = config
        self.mode = mode
        (
            self._encoder_seed,
            self._shuffler_seed,
            self._server_seed,
            self._agents_root,
        ) = spawn_seeds(seed, 4)
        self._agent_seq = 0

        self.encoder = encoder
        if mode == AgentMode.WARM_PRIVATE and self.encoder is None:
            self.encoder = KMeansEncoder(
                n_codes=config.n_codes,
                n_features=config.n_features,
                q=config.q,
                seed=self._encoder_seed,
            ).fit()

        self.shuffler: Shuffler | None = None
        self.server: PrivateServer | NonPrivateServer | None = None
        if mode == AgentMode.WARM_PRIVATE:
            self.shuffler = Shuffler(
                config.shuffler_threshold,
                seed=self._shuffler_seed,
                # bind the valid code space when the codebook declares one,
                # so out-of-range codes quarantine at the shuffler door
                n_codes=getattr(self.encoder, "n_codes", None),
            )
            if config.private_context == "one-hot":
                # One-hot contexts keep LinUCB's design matrices diagonal,
                # so the specialized CodeLinUCB (O(1) updates) is exact.
                central: CodeLinUCB | LinUCB = CodeLinUCB(
                    n_arms=config.n_actions,
                    n_features=config.n_codes,
                    alpha=config.alpha,
                    ridge=config.ridge,
                    seed=self._server_seed,
                )
            else:
                central = LinUCB(
                    n_arms=config.n_actions,
                    n_features=config.n_features,
                    alpha=config.alpha,
                    ridge=config.ridge,
                    seed=self._server_seed,
                )
            self.server = PrivateServer(
                central, self.encoder, context_mode=config.private_context  # type: ignore[arg-type]
            )
        elif mode == AgentMode.WARM_NONPRIVATE:
            central = LinUCB(
                n_arms=config.n_actions,
                n_features=config.n_features,
                alpha=config.alpha,
                ridge=config.ridge,
                seed=self._server_seed,
            )
            self.server = NonPrivateServer(central)
        #: released tuples per code over the whole deployment (the server
        #: refuses codes outside the codebook before they are counted)
        self._released_counts = np.zeros(getattr(self.encoder, "n_codes", 0), dtype=np.int64)
        #: every pending report of this system's agents, one row each
        #: (:meth:`new_agent` enrolls each agent at a row); cold systems
        #: have none
        self.report_log: ReportLog | None = None
        if mode != AgentMode.COLD:
            self.report_log = ReportLog(
                "encoded" if mode == AgentMode.WARM_PRIVATE else "raw",
                n_features=config.n_features,
            )
        #: optional chaos plan corrupting collected batches (see
        #: :mod:`repro.sim.faults`); ``REPRO_FAULTS`` arms one globally
        self.fault_plan = None
        self._fault_batches = 0

    # ------------------------------------------------------------------ #
    # agent factory
    # ------------------------------------------------------------------ #
    def _next_agent_seeds(self) -> tuple:
        (seed,) = self._agents_root.spawn(1)
        policy_seed, part_seed = seed.spawn(2)
        return policy_seed, part_seed

    def new_agent(self, agent_id: str | None = None) -> LocalAgent:
        """Create an agent wired for this system's mode (cold-started)."""
        policy_seed, part_seed = self._next_agent_seeds()
        self._agent_seq += 1
        aid = agent_id if agent_id is not None else f"agent-{self._agent_seq}"
        cfg = self.config
        if self.mode == AgentMode.WARM_PRIVATE and cfg.private_context == "one-hot":
            policy: CodeLinUCB | LinUCB = CodeLinUCB(
                n_arms=cfg.n_actions,
                n_features=cfg.n_codes,
                alpha=cfg.alpha,
                ridge=cfg.ridge,
                seed=policy_seed,
            )
        else:
            policy = LinUCB(
                n_arms=cfg.n_actions,
                n_features=cfg.n_features,
                alpha=cfg.alpha,
                ridge=cfg.ridge,
                seed=policy_seed,
            )
        participation = None
        if self.mode != AgentMode.COLD:
            participation = RandomizedParticipation(
                p=cfg.p,
                window=cfg.window,
                max_reports=cfg.max_reports_per_user,
                seed=part_seed,
            )
        agent = LocalAgent(
            aid,
            policy,
            mode=self.mode,
            encoder=self.encoder if self.mode == AgentMode.WARM_PRIVATE else None,
            participation=participation,
            private_context=cfg.private_context,
        )
        if self.report_log is not None:
            agent.report_log, agent.report_row = self.report_log, self.report_log.enroll()
        return agent

    def new_warm_agent(self, agent_id: str | None = None) -> LocalAgent:
        """Create an agent initialized from the current central model."""
        if self.server is None:
            raise ConfigError("cold systems have no central model to warm-start from")
        agent = self.new_agent(agent_id)
        agent.warm_start(self.server.model_snapshot())
        return agent

    # ------------------------------------------------------------------ #
    # collection round
    # ------------------------------------------------------------------ #
    def _maybe_corrupt(self, codes, actions, rewards):
        """Chaos tap on the private collection path.

        When a fault plan with a ``corrupt`` rate is armed (an explicit
        :attr:`fault_plan` or the ``REPRO_FAULTS`` env knob), drained
        report columns are deterministically mangled before the
        shuffler sees them — exercising the quarantine end-to-end.
        With no plan armed (the default) the columns pass through
        untouched.
        """
        # lazy: core must stay importable without the sim package loaded
        from ..sim.faults import active_plan

        plan = self.fault_plan if self.fault_plan is not None else active_plan()
        if plan is None or plan.p_corrupt <= 0.0:
            return codes, actions, rewards
        self._fault_batches += 1
        codes, actions, rewards, _ = plan.corrupt_batch(
            self._fault_batches, codes, actions, rewards
        )
        return codes, actions, rewards

    def collect(self, agents: Iterable[LocalAgent]) -> CollectionResult:
        """Drain the agents' pending report rows and run one collection round.

        Private mode: reports pass through the shuffler as one batch
        (:meth:`Shuffler.process_arrays`); only the released
        (crowd-blended) tuples reach the server.  Non-private mode: raw
        reports go straight to the server.  Cold mode: no-op.
        """
        return self._collect(agents, buffered=False)

    # ------------------------------------------------------------------ #
    # asynchronous collection: per-agent clocks, threshold-fill release
    # ------------------------------------------------------------------ #
    @property
    def n_pending_reports(self) -> int:
        """Reports buffered in the shuffler awaiting their crowd (async)."""
        return 0 if self.shuffler is None else self.shuffler.n_pending

    def collect_async(self, agents: Iterable[LocalAgent]) -> CollectionResult:
        """Drain pending report rows into the shuffler's buffer; release what's ready.

        The asynchronous analogue of :meth:`collect` — devices report
        on their own clocks, so ``agents`` may be *any* subset of the
        population, called as often as reports trickle in.  Private
        mode buffers the drained tuples (:meth:`Shuffler.buffer_arrays`)
        and releases only the codes whose crowd (``>= threshold``
        across everything pending) has filled
        (:meth:`Shuffler.release_ready`); sub-threshold tuples keep
        waiting, surviving even their reporter's departure.
        Non-private and cold modes have no crowd to wait for, so they
        degenerate to :meth:`collect`.  Call :meth:`flush_async` at end
        of deployment to drop the stragglers.
        """
        return self._collect(agents, buffered=True)

    def _collect(self, agents: Iterable[LocalAgent], *, buffered: bool) -> CollectionResult:
        """The one collection route behind :meth:`collect` and
        :meth:`collect_async`: drain to columns, tap, then the mode's
        step; only the private step differs between the two."""
        encoded, raw = drain_report_batches(agents)
        n_reports = len(encoded) + len(raw)
        if self.mode == AgentMode.COLD or self.server is None:
            return CollectionResult(n_reports=n_reports, n_released=0, shuffler_stats=None)
        if self.mode == AgentMode.WARM_NONPRIVATE:
            self.server.ingest_arrays(raw.contexts, raw.actions, raw.rewards)
            return CollectionResult(n_reports=n_reports, n_released=len(raw), shuffler_stats=None)
        columns = self._maybe_corrupt(encoded.codes, encoded.actions, encoded.rewards)
        if buffered:
            self.shuffler.buffer_arrays(*columns)  # type: ignore[union-attr]
            return self._release_pending(n_reports, final=False)
        *released, stats = self.shuffler.process_arrays(*columns)  # type: ignore[union-attr]
        return self._ingest_released(n_reports, released, stats)

    def _release_pending(self, n_reports: int, *, final: bool) -> CollectionResult:
        *released, stats = self.shuffler.release_ready(final=final)  # type: ignore[union-attr]
        return self._ingest_released(n_reports, released, stats, skip_empty=True)

    def _ingest_released(
        self,
        n_reports: int,
        released: list[np.ndarray],
        stats: ShufflerStats,
        *,
        skip_empty: bool = False,
    ) -> CollectionResult:
        """Audit a shuffler release, train the server on it, count its crowds.

        An empty buffered release (``skip_empty``) is no server batch;
        a round's release always is, even when empty.
        """
        stats.audit.raise_if_violated()
        codes = released[0]
        if codes.shape[0] or not skip_empty:
            self.server.ingest_arrays(*released)  # type: ignore[union-attr]
            self._count_released(codes)
        return CollectionResult(
            n_reports=n_reports, n_released=int(codes.shape[0]), shuffler_stats=stats
        )

    def flush_async(self) -> CollectionResult:
        """Final asynchronous release: stragglers' crowds never arrived.

        Releases every pending code that (now) meets the threshold and
        permanently drops the rest — call once at end of deployment.
        No-op for non-private and cold systems.
        """
        if self.mode != AgentMode.WARM_PRIVATE or self.shuffler is None:
            return CollectionResult(n_reports=0, n_released=0, shuffler_stats=None)
        return self._release_pending(0, final=True)

    # ------------------------------------------------------------------ #
    def model_snapshot(self) -> dict[str, Any]:
        """Current central-model state (for distribution to devices)."""
        if self.server is None:
            raise ConfigError("cold systems have no central model")
        return self.server.model_snapshot()

    def privacy_report(self) -> PrivacyReport:
        """Privacy guarantee of this deployment.

        For private systems that have completed collection rounds, the
        realized ``l`` (smallest released crowd across all rounds) is
        used when it is stricter evidence than the configured threshold;
        otherwise the configured threshold stands.
        """
        if self.mode != AgentMode.WARM_PRIVATE:
            raise ConfigError("privacy reports only apply to warm-private systems")
        crowds = self._released_counts[self._released_counts > 0]
        realized = int(crowds.min()) if crowds.size else None
        return self.config.privacy_report(realized_l=realized)

    def _count_released(self, codes) -> None:
        """Add a released batch's codes to the per-code crowd counts."""
        self._released_counts += np.bincount(
            np.asarray(codes, dtype=np.intp), minlength=self._released_counts.size
        )
