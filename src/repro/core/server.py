"""The central server (paper §3, Fig. 1).

"Upon receiving the new batch of training data, the server updates the
global model based on the observed interaction data and distributes it
to local agents that request it."

Two server flavours mirror the two warm settings:

* :class:`PrivateServer` consumes the shuffler's released
  ``(code, action, reward)`` columns and trains its central policy on
  **one-hot code contexts** (``R^k``);
* :class:`NonPrivateServer` consumes raw-report columns drained
  directly from agents and trains on **raw contexts** (``R^d``).

Both distribute the model as a state dict (deep-copied / serialized),
and both training paths are *additive* — order-invariant and idempotent
per tuple — which is required for the private path because the shuffler
destroys ordering.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..bandits.base import BanditPolicy
from ..encoding.base import Encoder
from ..utils.exceptions import ValidationError

__all__ = ["PrivateServer", "NonPrivateServer"]


class _ServerBase:
    """Shared bookkeeping for both server flavours."""

    def __init__(self, policy: BanditPolicy) -> None:
        self.policy = policy
        self.n_tuples_ingested = 0
        self.n_batches = 0

    def model_snapshot(self) -> dict[str, Any]:
        """Deep snapshot of the central model, safe to hand to agents."""
        return self.policy.get_state()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(tuples={self.n_tuples_ingested}, "
            f"batches={self.n_batches})"
        )


class PrivateServer(_ServerBase):
    """Central-model trainer for the P2B (private) path.

    Parameters
    ----------
    policy:
        Central policy; its ``n_features`` must equal ``encoder.n_codes``
        for one-hot mode or ``encoder.n_features`` for centroid mode.
    encoder:
        The public codebook — used only to translate codes to contexts;
        the server never sees raw contexts.
    context_mode:
        ``"one-hot"`` or ``"centroid"`` (must match the agents' mode;
        see :class:`~repro.core.config.P2BConfig.private_context`).
    """

    def __init__(
        self, policy: BanditPolicy, encoder: Encoder, *, context_mode: str = "one-hot"
    ) -> None:
        if context_mode not in ("one-hot", "centroid"):
            raise ValidationError(
                f"context_mode must be 'one-hot' or 'centroid', got {context_mode!r}"
            )
        expected = encoder.n_codes if context_mode == "one-hot" else encoder.n_features
        if policy.n_features != expected:
            raise ValidationError(
                f"central policy n_features ({policy.n_features}) must equal "
                f"{expected} for {context_mode} contexts"
            )
        super().__init__(policy)
        self.encoder = encoder
        self.context_mode = context_mode

    def ingest_arrays(
        self, codes: np.ndarray, actions: np.ndarray, rewards: np.ndarray
    ) -> None:
        """Train the central model on a shuffled, thresholded batch.

        The device → shuffler → server pipeline's terminal stage; codes
        become one-hot indicators (or codebook centroids via the
        batched decode) and feed ``update_batch``.
        """
        codes = np.asarray(codes, dtype=np.intp).ravel()
        actions = np.asarray(actions, dtype=np.intp).ravel()
        rewards = np.asarray(rewards, dtype=np.float64).ravel()
        if not (codes.shape[0] == actions.shape[0] == rewards.shape[0]):
            raise ValidationError(
                "codes, actions and rewards must have matching lengths: "
                f"{codes.shape[0]}, {actions.shape[0]}, {rewards.shape[0]}"
            )
        n = codes.shape[0]
        if n == 0:
            self.n_batches += 1
            return
        k = self.encoder.n_codes
        if codes.max(initial=0) >= k:
            raise ValidationError(
                f"batch contains code {int(codes.max())} outside the codebook of size {k}"
            )
        if self.context_mode == "one-hot":
            contexts = np.zeros((n, k), dtype=np.float64)
            contexts[np.arange(n), codes] = 1.0
        else:
            contexts = self.encoder.decode_batch(codes)
        self.policy.update_batch(contexts, actions, rewards)
        self.n_tuples_ingested += n
        self.n_batches += 1


class NonPrivateServer(_ServerBase):
    """Central-model trainer for the warm-non-private baseline."""

    def ingest_arrays(
        self, contexts: np.ndarray, actions: np.ndarray, rewards: np.ndarray
    ) -> None:
        """Train the central model on raw-context report columns."""
        contexts = np.asarray(contexts, dtype=np.float64)
        actions = np.asarray(actions, dtype=np.intp).ravel()
        rewards = np.asarray(rewards, dtype=np.float64).ravel()
        if contexts.ndim != 2:
            raise ValidationError(
                f"contexts must be a 2-D batch, got ndim={contexts.ndim}"
            )
        if not (contexts.shape[0] == actions.shape[0] == rewards.shape[0]):
            raise ValidationError(
                "contexts, actions and rewards must have matching lengths: "
                f"{contexts.shape[0]}, {actions.shape[0]}, {rewards.shape[0]}"
            )
        if contexts.shape[0] == 0:
            self.n_batches += 1
            return
        if contexts.shape[1] != self.policy.n_features:
            raise ValidationError(
                f"batch context dimension {contexts.shape[1]} does not match "
                f"central policy n_features {self.policy.n_features}"
            )
        self.policy.update_batch(contexts, actions, rewards)
        self.n_tuples_ingested += contexts.shape[0]
        self.n_batches += 1
