"""The local (on-device) P2B agent (paper §3, Fig. 1).

A :class:`LocalAgent` couples three components:

* a **bandit policy** (LinUCB by default) that proposes actions and
  learns from local feedback;
* an optional **encoder** mapping raw contexts to codes — in the
  *warm-private* setting the agent also *acts* on the one-hot encoded
  context (§5.3: "Private agents use the encoded value as the
  context"), so the policy's feature space is ``R^k``;
* an optional **participation policy** that decides when an encoded
  interaction becomes an :class:`~repro.core.payload.EncodedReport`.

The three evaluation settings of §5 correspond to:

==================  =======================  =====================
setting             acting context           reports
==================  =======================  =====================
cold                raw ``x ∈ R^d``          never
warm-nonprivate     raw ``x ∈ R^d``          :class:`RawReport`
warm-private        one-hot code ``∈ R^k``   :class:`EncodedReport`
==================  =======================  =====================
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
from .payload import EncodedReport, PendingReports, RawReport, ReportLog

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
        #: pending reports; may transiently hold columnar
        #: :class:`~repro.core.payload.PendingReports` markers dropped
        #: by the fleet engine — the ``outbox`` property materializes
        #: them on access, so object-path consumers never see them
        self._outbox: list[EncodedReport | RawReport | PendingReports] = []
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
        metadata = {"agent_id": self.agent_id, "interaction_index": self.n_interactions}
        if self.mode == AgentMode.WARM_PRIVATE:
            code = self.encoder.encode(s_ctx)  # type: ignore[union-attr]
            self._outbox.append(
                EncodedReport(code=code, action=s_action, reward=s_reward, metadata=metadata)
            )
        else:
            self._outbox.append(
                RawReport(context=s_ctx, action=s_action, reward=s_reward, metadata=metadata)
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
        """Pending reports as objects (the scalar reference view).

        The fleet engine records reports columnar-side and parks
        :class:`~repro.core.payload.PendingReports` markers here;
        reading this property materializes them in place — same
        reports, same metadata, same order as the scalar path — so any
        object-path consumer stays oblivious.  Collection
        (:meth:`~repro.core.system.P2BSystem.collect`) bypasses this
        property and drains markers and objects alike to columns.
        """
        if any(isinstance(e, PendingReports) for e in self._outbox):
            expanded: list[EncodedReport | RawReport] = []
            for entry in self._outbox:
                if isinstance(entry, PendingReports):
                    expanded.extend(entry.materialize())
                else:
                    expanded.append(entry)
            self._outbox = expanded
        return self._outbox  # type: ignore[return-value]

    @outbox.setter
    def outbox(self, value: list[EncodedReport | RawReport]) -> None:
        self._outbox = list(value)

    def adopt_report_log(self, log: ReportLog, row: int) -> None:
        """Attach a columnar report log (the fleet engine's outbox form).

        Reports the engine appends to ``log`` under ``row`` belong to
        this agent; they are drained through the same outbox semantics
        as object reports.
        """
        self._outbox.append(PendingReports(log, row))

    def pending_entries(self) -> list[EncodedReport | RawReport | PendingReports]:
        """The raw pending-outbox entries, *without* materializing.

        The collection drain
        (:func:`~repro.core.payload.drain_report_batches`) turns these
        into report columns — log rows for markers, one row per report
        object; anything that wants report objects should use
        :attr:`outbox` / :meth:`drain_outbox` instead.
        """
        return list(self._outbox)

    def clear_pending(self) -> None:
        """Drop every pending entry (the collection drain's commit step).

        Only meaningful after the caller has consumed the entries via
        :meth:`pending_entries` — this is how
        :func:`~repro.core.payload.drain_report_batches` mirrors the
        destructive semantics of :meth:`drain_outbox`.
        """
        self._outbox = []

    def drain_outbox(self) -> list[EncodedReport | RawReport]:
        """Remove and return all pending reports (the network send)."""
        out, self.outbox = self.outbox, []
        return out

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
