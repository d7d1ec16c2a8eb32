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

An agent's lifetime counters are its row of :class:`AgentCounters`
columns, as its participation is a row of
:class:`~repro.core.participation.StackedParticipation` columns; its
pending reports are its rows of ``report_log`` at
``report_row``: :meth:`~repro.core.payload.ReportLog.rows` reads them
in place, and :func:`~repro.core.payload.drain_report_batches` takes
them (the network send).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..bandits.base import BanditPolicy
from ..encoding.base import Encoder
from ..utils.exceptions import ConfigError
from ..utils.validation import check_vector
from .columns import Column, Columns
from .config import AgentMode
from .participation import RandomizedParticipation
from .payload import ReportLog

__all__ = ["AgentCounters", "LocalAgent"]


class AgentCounters(Columns):
    """``n`` agents' lifetime counters, one row each."""

    fields = {"n_interactions": np.int64, "total_reward": np.float64}


class LocalAgent:
    """On-device contextual bandit with optional privacy-preserving reporting.

    Parameters
    ----------
    agent_id:
        Identifier of this device.  It never enters a report: a report
        row names its agent by store row only.
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

    #: lifetime interactions and summed reward: its AgentCounters row
    n_interactions = Column()
    total_reward = Column()

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
        AgentCounters.bind(self)

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

        This is the specification the fleet engine (:mod:`repro.sim`)
        records by in columns: a held interaction's payload is its code
        (warm-private, encoded when the window keeps it) or its context,
        and a report is one ``report_log`` row with its lifetime
        interaction index.
        """
        self.n_interactions += 1
        self.total_reward += float(reward)
        part = self.participation
        if self.mode == AgentMode.COLD or part is None:
            return
        item = None
        if part.holds_next:
            payload = np.asarray(context, dtype=np.float64)
            if self.mode == AgentMode.WARM_PRIVATE:
                payload = self.encoder.encode(payload)  # type: ignore[union-attr]
            item = (payload, int(action), float(reward))
        sampled = part.offer(item)
        if sampled is None:
            return
        payload, s_action, s_reward = sampled
        self.report_log.append(  # type: ignore[union-attr]
            [self.report_row], [payload], [s_action], [s_reward], [self.n_interactions]
        )

    def step(self, context: np.ndarray, reward_fn) -> tuple[int, float]:
        """One full interaction: act, obtain reward via ``reward_fn(action)``,
        learn.  Returns ``(action, reward)``."""
        action = self.act(context)
        reward = float(reward_fn(action))
        self.learn(context, action, reward)
        return action, reward

    # ------------------------------------------------------------------ #
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
