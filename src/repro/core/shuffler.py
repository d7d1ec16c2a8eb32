"""The trusted shuffler (paper §3.3).

Performs, in order, the three PROCHLO-style operations the paper
specifies:

1. **Anonymization** — only the ``(code, action, reward)`` columns
   of a report batch enter; its metadata columns never do (the
   in-process stand-in for discarding IP addresses and enclave
   attestation; see DESIGN.md substitutions).
2. **Shuffling** — batch order is randomized, destroying arrival-order
   correlations.
3. **Thresholding** — tuples whose encoded context appears fewer than
   ``threshold`` times in the batch are dropped.  The threshold *is*
   the crowd-blending ``l`` (§4).

The shuffler returns both the released batch and a
:class:`~repro.privacy.crowd_blending.CrowdBlendingAudit` so callers
can assert the privacy invariant held (the audit on released output
must always pass — a property test pins this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..privacy.crowd_blending import CrowdBlendingAudit, verify_crowd_blending
from ..utils.rng import ensure_rng
from ..utils.validation import check_positive_int

__all__ = ["Shuffler", "ShufflerStats"]


@dataclass(frozen=True)
class ShufflerStats:
    """Book-keeping for one shuffler batch.

    ``n_quarantined`` counts malformed tuples refused at the door —
    negative or out-of-range codes, negative actions, non-finite
    rewards, or whole batches with misaligned columns — which are
    excluded *before* shuffling and thresholding, so they can never
    reach the released stream or skew the crowd-blending audit.
    """

    n_received: int
    n_released: int
    n_dropped: int
    codes_received: int
    codes_released: int
    audit: CrowdBlendingAudit
    n_quarantined: int = 0


class Shuffler:
    """Anonymize → shuffle → threshold (paper §3.3).

    Parameters
    ----------
    threshold:
        Minimum per-code batch frequency for release (the crowd-blending
        ``l``).
    seed:
        Randomness for the shuffle permutation.
    n_codes:
        Size of the valid code space, when known (the encoder's
        codebook size).  Codes ``>= n_codes`` are then quarantined as
        out-of-range; ``None`` (default) only rejects negatives —
        raw-signature code spaces can be huge and sparse.

    Malformed input — a device shipping garbage, a corrupted transport
    batch — is **quarantined, not raised**: collection is the
    production hot loop, and one bad reporter must not stall every
    honest one.  Quarantined tuples are counted per batch
    (``ShufflerStats.n_quarantined``) and cumulatively
    (:attr:`total_quarantined`), and never reach the shuffle,
    threshold, release, or audit stages.
    """

    def __init__(
        self, threshold: int = 10, *, seed=None, n_codes: int | None = None
    ) -> None:
        self.threshold = check_positive_int(threshold, name="threshold")
        if n_codes is not None:
            n_codes = check_positive_int(n_codes, name="n_codes")
        self.n_codes = n_codes
        self._rng = ensure_rng(seed)
        # asynchronous-collection buffer: column triples accumulated by
        # buffer_arrays, released by release_ready when thresholds fill
        self._pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: malformed tuples quarantined over this shuffler's lifetime
        self.total_quarantined = 0
        # quarantined since the last release_ready (reported in its stats)
        self._pending_quarantined = 0

    def _sanitize(
        self, codes, actions, rewards
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Quarantine malformed input; returns the clean columns + bad count.

        Misaligned columns void the whole batch (its tuples cannot be
        paired up); an aligned batch loses its malformed rows.  Either
        way the count goes into :attr:`total_quarantined`.  Runs
        *before* the shuffle permutation, so a batch with nothing
        malformed consumes the RNG exactly as it always did, and a
        voided one consumes nothing.
        """
        codes = np.asarray(codes, dtype=np.intp).ravel()
        actions = np.asarray(actions, dtype=np.intp).ravel()
        rewards = np.asarray(rewards, dtype=np.float64).ravel()
        if not (codes.shape[0] == actions.shape[0] == rewards.shape[0]):
            n_bad = int(max(codes.shape[0], actions.shape[0], rewards.shape[0]))
            codes, actions, rewards = codes[:0], actions[:0], rewards[:0]
        else:
            bad = (codes < 0) | (actions < 0) | ~np.isfinite(rewards)
            if self.n_codes is not None:
                bad |= codes >= self.n_codes
            n_bad = int(np.count_nonzero(bad))
            if n_bad:
                good = ~bad
                codes, actions, rewards = codes[good], actions[good], rewards[good]
        self.total_quarantined += n_bad
        return codes, actions, rewards, n_bad

    def _shuffle_threshold(
        self, codes: np.ndarray, actions: np.ndarray, rewards: np.ndarray, *, retain: bool
    ) -> tuple[tuple, tuple | None, int, int, CrowdBlendingAudit]:
        """The shared core: shuffle → threshold → audit on clean columns.

        One permutation draw for a non-empty batch, nothing for an
        empty one.  Codes are counted with one ``unique`` call, not a
        bincount: code spaces can be huge and sparse (e.g. 2^30 for
        wide LSH signatures).  Returns ``(released, retained,
        codes_received, codes_released, audit)`` — the released column
        triple, the sub-threshold one when ``retain`` (else ``None``:
        a one-batch caller drops them, and gathering them would only
        raise its peak memory), the distinct codes seen and released,
        and the crowd-blending audit of the release.
        """
        codes_received = codes_released = 0
        retained = (codes, actions, rewards) if retain else None
        if codes.shape[0]:
            order = self._rng.permutation(codes.shape[0])
            codes, actions, rewards = codes[order], actions[order], rewards[order]
            _, inverse, counts = np.unique(codes, return_inverse=True, return_counts=True)
            released_mask = counts >= self.threshold
            codes_received = int(counts.size)
            codes_released = int(np.count_nonzero(released_mask))
            keep = released_mask[inverse]
            if retain:
                retained = (codes[~keep], actions[~keep], rewards[~keep])
            codes, actions, rewards = codes[keep], actions[keep], rewards[keep]
        audit = verify_crowd_blending(codes, self.threshold)
        return (codes, actions, rewards), retained, codes_received, codes_released, audit

    def process_arrays(
        self, codes: np.ndarray, actions: np.ndarray, rewards: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, ShufflerStats]:
        """One batch through anonymize → shuffle → threshold, on arrays.

        The columnar form carries no metadata, so taking the columns is
        the anonymization step.  Sub-threshold tuples are dropped.
        """
        codes, actions, rewards, n_quarantined = self._sanitize(codes, actions, rewards)
        released, _, codes_received, codes_released, audit = self._shuffle_threshold(
            codes, actions, rewards, retain=False
        )
        n_clean, n_released = codes.shape[0], released[0].shape[0]
        stats = ShufflerStats(
            n_received=n_clean + n_quarantined,
            n_released=n_released,
            n_dropped=n_clean - n_released,
            codes_received=codes_received,
            codes_released=codes_released,
            audit=audit,
            n_quarantined=n_quarantined,
        )
        return (*released, stats)

    # ------------------------------------------------------------------ #
    # asynchronous collection: devices report on their own clocks, the
    # shuffler releases when thresholds fill — no global round barrier
    @property
    def n_pending(self) -> int:
        """Tuples buffered but not yet released (awaiting crowd-mates)."""
        return sum(c.shape[0] for c, _, _ in self._pending)

    def buffer_arrays(
        self, codes: np.ndarray, actions: np.ndarray, rewards: np.ndarray
    ) -> int:
        """Accept one columnar report batch into the pending buffer.

        Nothing is released here — arrival time stops mattering the
        moment tuples enter the buffer (they are anonymized to columns
        immediately and shuffled with the whole buffer at the next
        :meth:`release_ready`).  Returns the new pending count.
        Malformed input is quarantined as in :meth:`process_arrays`,
        and counted in the next :meth:`release_ready` stats.
        """
        codes, actions, rewards, n_bad = self._sanitize(codes, actions, rewards)
        self._pending_quarantined += n_bad
        if codes.shape[0]:
            self._pending.append((codes, actions, rewards))
        return self.n_pending

    def release_ready(
        self, *, final: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, ShufflerStats]:
        """Release every pending tuple whose code's crowd has filled.

        The whole buffer is shuffled (one permutation draw when
        non-empty, the same RNG discipline as :meth:`process_arrays`),
        then codes appearing at least ``threshold`` times *across the
        buffer* release; sub-threshold tuples stay pending — they wait
        for crowd-mates from later reports instead of being dropped,
        which is the asynchronous analogue of the per-batch threshold.
        ``final=True`` drops the stragglers instead (end of deployment:
        their crowd never arrived), leaving the buffer empty.

        Crowd-blending holds per release by construction (every
        released code brought ``>= threshold`` tuples with it), and
        ``stats.audit`` asserts it.  In ``stats``, ``n_received``
        counts the tuples considered (the whole buffer) and
        ``n_dropped`` the tuples *permanently* dropped — zero unless
        ``final`` (retained tuples are neither released nor dropped).
        """
        if self._pending:
            codes, actions, rewards = (np.concatenate(cols) for cols in zip(*self._pending))
        else:
            codes = actions = np.empty(0, dtype=np.intp)
            rewards = np.empty(0, dtype=np.float64)
        released, retained, codes_received, codes_released, audit = self._shuffle_threshold(
            codes, actions, rewards, retain=True
        )
        n_buffered, n_released = codes.shape[0], released[0].shape[0]
        self._pending = [] if final or retained[0].shape[0] == 0 else [retained]
        n_quarantined, self._pending_quarantined = self._pending_quarantined, 0
        stats = ShufflerStats(
            n_received=n_buffered,
            n_released=n_released,
            n_dropped=n_buffered - n_released if final else 0,
            codes_received=codes_received,
            codes_released=codes_released,
            audit=audit,
            n_quarantined=n_quarantined,
        )
        return (*released, stats)
