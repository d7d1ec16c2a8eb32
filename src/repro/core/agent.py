"""The local (on-device) P2B agent (paper §3, Fig. 1).

A :class:`LocalAgent` couples three components:

* a **bandit policy** (LinUCB by default) that proposes actions and
  learns from local feedback;
* an optional **encoder** mapping raw contexts to codes — in the
  *warm-private* setting the agent also *acts* on the one-hot encoded
  context (§5.3: "Private agents use the encoded value as the
  context"), so the policy's feature space is ``R^k``;
* an optional **participation policy** that decides when an
  interaction becomes a report: one row of the agent's
  :class:`~repro.core.payload.ReportLog` (its system's, or a private
  one-row log for a hand-built agent).

The three evaluation settings of §5 correspond to:

==================  =======================  =====================
setting             acting context           reports
==================  =======================  =====================
cold                raw ``x ∈ R^d``          never
warm-nonprivate     raw ``x ∈ R^d``          context rows
warm-private        one-hot code ``∈ R^k``   code rows
==================  =======================  =====================

:attr:`LocalAgent.outbox` shows the pending rows as
:class:`~repro.core.payload.RawReport` /
:class:`~repro.core.payload.EncodedReport` objects.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..bandits.base import BanditPolicy
from ..encoding.base import Encoder
from ..utils.exceptions import ConfigError
from ..utils.validation import check_vector
from .config import AgentMode
from .participation import RandomizedParticipation
from .payload import EncodedReport, RawReport, ReportBatch, ReportLog

__all__ = ["LocalAgent"]


class LocalAgent:
    """On-device contextual bandit with optional privacy-preserving reporting.

    Parameters
    ----------
    agent_id:
        Identifier carried only in report *metadata* (stripped by the
        shuffler); exists so tests can prove anonymization happens.
    policy:
        The bandit policy.  Its ``n_features`` must equal the raw
        context dimension (cold / warm-nonprivate) or the codebook size
        ``k`` (warm-private).
    mode:
        One of :class:`~repro.core.config.AgentMode`.
    encoder:
        Required for ``warm-private`` (used for both acting and
        reporting); optional for other modes.
    participation:
        Required for the two warm modes; ignored for ``cold``.
    private_context:
        ``"one-hot"`` (default) or ``"centroid"`` — the warm-private
        acting representation (see
        :class:`~repro.core.config.P2BConfig.private_context`).

    Examples
    --------
    >>> from repro.bandits import LinUCB
    >>> agent = LocalAgent("u1", LinUCB(n_arms=3, n_features=4, seed=0),
    ...                    mode="cold")
    >>> a = agent.act(np.array([0.4, 0.3, 0.2, 0.1]))
    >>> agent.learn(np.array([0.4, 0.3, 0.2, 0.1]), a, reward=1.0)
    """

    def __init__(
        self,
        agent_id: str,
        policy: BanditPolicy,
        *,
        mode: str = AgentMode.COLD,
        encoder: Encoder | None = None,
        participation: RandomizedParticipation | None = None,
        private_context: str = "one-hot",
    ) -> None:
        if mode not in AgentMode.ALL:
            raise ConfigError(f"mode must be one of {AgentMode.ALL}, got {mode!r}")
        if private_context not in ("one-hot", "centroid"):
            raise ConfigError(
                f"private_context must be 'one-hot' or 'centroid', got {private_context!r}"
            )
        if mode == AgentMode.WARM_PRIVATE:
            if encoder is None:
                raise ConfigError("warm-private agents require an encoder")
            if private_context == "one-hot" and policy.n_features != encoder.n_codes:
                raise ConfigError(
                    "warm-private agents act on one-hot codes: policy.n_features "
                    f"({policy.n_features}) must equal encoder.n_codes ({encoder.n_codes})"
                )
            if private_context == "centroid" and policy.n_features != encoder.n_features:
                raise ConfigError(
                    "centroid-context agents act on codebook centroids: policy.n_features "
                    f"({policy.n_features}) must equal encoder.n_features ({encoder.n_features})"
                )
        if mode != AgentMode.COLD and participation is None:
            raise ConfigError(f"{mode} agents require a participation policy")
        self.agent_id = str(agent_id)
        self.policy = policy
        self.mode = mode
        self.encoder = encoder
        self.participation = participation
        self.private_context = private_context
        #: the store holding this agent's pending reports, and its row
        #: there: a private one-row log until a system enrolls the agent
        #: in its own; cold agents never report and hold none
        self.report_log: ReportLog | None = None
        self.report_row = 0
        if mode != AgentMode.COLD:
            kind = "encoded" if mode == AgentMode.WARM_PRIVATE else "raw"
            self.report_log = ReportLog(kind)
            self.report_row = self.report_log.enroll()
        self.n_interactions = 0
        self.total_reward = 0.0

    # ------------------------------------------------------------------ #
    def acting_context(self, context: np.ndarray) -> np.ndarray:
        """The feature vector the policy actually sees for ``context``."""
        context = check_vector(context, name="context")
        if self.mode == AgentMode.WARM_PRIVATE:
            encoder = self.encoder
            if self.private_context == "centroid":
                return encoder.decode(encoder.encode(context))  # type: ignore[union-attr]
            return encoder.one_hot_context(context)  # type: ignore[union-attr]
        return context

    def act(self, context: np.ndarray) -> int:
        """Propose an action for the observed raw context."""
        return self.policy.select(self.acting_context(context))

    def learn(self, context: np.ndarray, action: int, reward: float) -> None:
        """Incorporate feedback locally and maybe enqueue a report.

        Reporting never blocks or alters learning: the device learns
        from every interaction, while the participation policy decides
        opportunistically whether this interaction is *also* offered to
        the collection pipeline.
        """
        ctx = check_vector(context, name="context")
        self.policy.update(self.acting_context(ctx), action, reward)
        self.record_interaction(ctx, action, reward)

    def record_interaction(self, context: np.ndarray, action: int, reward: float) -> None:
        """Post-update bookkeeping: counters plus the reporting pipeline.

        Split out of :meth:`learn` so the fleet engine
        (:mod:`repro.sim`), which applies the policy update through
        stacked state instead of ``policy.update``, shares this exact
        code path — participation RNG consumption, report metadata
        (including ``interaction_index``), and encode-at-report-time all
        live only here.
        """
        self.n_interactions += 1
        self.total_reward += float(reward)
        if self.mode == AgentMode.COLD or self.participation is None:
            return
        ctx = np.asarray(context, dtype=np.float64)
        sampled = self.participation.offer((ctx.copy(), int(action), float(reward)))
        if sampled is None:
            return
        s_ctx, s_action, s_reward = sampled
        if self.mode == AgentMode.WARM_PRIVATE:
            payload = self.encoder.encode(s_ctx)  # type: ignore[union-attr]
        else:
            payload = s_ctx
        self._log_report(payload, s_action, s_reward, self.n_interactions)

    def _log_report(self, payload, action: int, reward: float, index: int) -> None:
        """Append one report row (code or context) to this agent's store."""
        self.report_log.append(  # type: ignore[union-attr]
            [self.report_row], [payload], [action], [reward], [index]
        )

    def step(self, context: np.ndarray, reward_fn) -> tuple[int, float]:
        """One full interaction: act, obtain reward via ``reward_fn(action)``,
        learn.  Returns ``(action, reward)``."""
        action = self.act(context)
        reward = float(reward_fn(action))
        self.learn(context, action, reward)
        return action, reward

    # ------------------------------------------------------------------ #
    @property
    def outbox(self) -> list[EncodedReport | RawReport]:
        """Pending reports as objects: a read-only view of this agent's rows.

        Same reports, same metadata, same order as the rows collection
        (:meth:`~repro.core.system.P2BSystem.collect`) drains; reading
        the view leaves the rows in place.  Each read scans the whole
        store the agent shares with its system, so reading a
        population's outboxes one by one is quadratic: bulk reads go
        through :func:`~repro.core.payload.drain_report_batches`.
        """
        if self.report_log is None:
            return []
        return self._as_reports(self.report_log.rows(self.report_row))

    @outbox.setter
    def outbox(self, reports: list[EncodedReport | RawReport]) -> None:
        """Replace this agent's pending rows with ``reports``, in order.

        A report without an ``interaction_index`` in its metadata keeps
        its position, with index ``-1``.
        """
        reports = list(reports)
        self.drain_outbox()
        if not reports:
            return
        if self.report_log is None:
            raise ConfigError("cold agents hold no reports")
        encoded = self.report_log.kind == "encoded"
        expected = EncodedReport if encoded else RawReport
        for r in reports:
            if not isinstance(r, expected):
                raise TypeError(f"{self.mode} agents hold {expected.__name__} objects")
            index = r.metadata.get("interaction_index", -1)
            self._log_report(r.code if encoded else r.context, r.action, r.reward, index)

    def drain_outbox(self) -> list[EncodedReport | RawReport]:
        """Remove and return all pending reports (the network send).

        Like :attr:`outbox`, this scans the whole shared store.
        """
        if self.report_log is None:
            return []
        return self._as_reports(self.report_log.take(np.array([self.report_row]), np.array([0])))

    def _as_reports(self, rows: ReportBatch) -> list[EncodedReport | RawReport]:
        """Objects for rows of this agent labelled 0, with its metadata."""
        rows.agent_ids = (self.agent_id,)
        return rows.to_reports()

    def warm_start(self, model_state: Mapping[str, Any]) -> None:
        """Initialize the local policy from a central-model snapshot."""
        self.policy.set_state(model_state)

    @property
    def mean_reward(self) -> float:
        """Average reward over this agent's lifetime."""
        return self.total_reward / self.n_interactions if self.n_interactions else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LocalAgent(id={self.agent_id!r}, mode={self.mode!r}, "
            f"interactions={self.n_interactions})"
        )
