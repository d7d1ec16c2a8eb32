"""Configuration dataclasses for P2B deployments and experiments."""

from __future__ import annotations

from dataclasses import dataclass

from ..privacy.accounting import PrivacyReport
from ..utils.exceptions import ConfigError
from ..utils.validation import check_positive_int, check_probability, check_scalar

__all__ = ["P2BConfig", "AgentMode"]


class AgentMode:
    """The paper's three evaluation settings (§5)."""

    COLD = "cold"
    WARM_PRIVATE = "warm-private"
    WARM_NONPRIVATE = "warm-nonprivate"

    ALL = (COLD, WARM_PRIVATE, WARM_NONPRIVATE)


@dataclass(frozen=True)
class P2BConfig:
    """Static parameters of a P2B deployment.

    Defaults follow the paper's experimental section: ``p=0.5``, ``q=1``,
    ``alpha=1``, shuffler threshold 10.

    Attributes
    ----------
    n_actions:
        Size of the action set ``A``.
    n_features:
        Raw context dimension ``d``.
    n_codes:
        Codebook size ``k`` (e.g. ``2**10`` synthetic, ``2**5``
        multi-label, ``2**5``/``2**7`` Criteo).
    q:
        Quantization digits.
    p:
        Participation probability (privacy lever, Eq. 3).
    window:
        Local interactions ``T`` per participation window (one coin each).
    max_reports_per_user:
        Report budget per user (1 in all paper experiments).
    shuffler_threshold:
        Minimum batch frequency for a code to be released (= the
        crowd-blending ``l``).
    alpha:
        LinUCB exploration parameter.
    ridge:
        LinUCB ridge regularizer.
    private_context:
        How warm-private agents represent the encoded context they act
        on (§5.3 "private agents use the encoded value as the context"):
        ``"one-hot"`` — the indicator of the code in R^k (a tabular
        per-(code, arm) policy; sample-hungry but assumption-free);
        ``"centroid"`` — the code's codebook centroid in R^d (a linear
        policy over k distinct context points; far more sample-efficient
        when rewards are sparse, e.g. the Criteo replay workload).
    """

    n_actions: int
    n_features: int
    n_codes: int = 2**5
    q: int = 1
    p: float = 0.5
    window: int = 10
    max_reports_per_user: int = 1
    shuffler_threshold: int = 10
    alpha: float = 1.0
    ridge: float = 1.0
    private_context: str = "one-hot"

    def __post_init__(self) -> None:
        check_positive_int(self.n_actions, name="n_actions")
        check_positive_int(self.n_features, name="n_features", minimum=2)
        check_positive_int(self.n_codes, name="n_codes")
        check_positive_int(self.q, name="q")
        check_probability(self.p, name="p", allow_one=False)
        check_positive_int(self.window, name="window")
        check_positive_int(self.max_reports_per_user, name="max_reports_per_user", minimum=0)
        check_positive_int(self.shuffler_threshold, name="shuffler_threshold")
        check_scalar(self.alpha, name="alpha", minimum=0.0)
        check_scalar(self.ridge, name="ridge", minimum=0.0, include_min=False)
        if self.n_codes < 2:
            raise ConfigError("n_codes must be at least 2 for the encoding to be non-trivial")
        if self.private_context not in ("one-hot", "centroid"):
            raise ConfigError(
                f"private_context must be 'one-hot' or 'centroid', got {self.private_context!r}"
            )

    def privacy_report(self, *, realized_l: int | None = None) -> PrivacyReport:
        """The deployment's privacy guarantee.

        ``l`` defaults to the shuffler threshold (§4: "l can always be
        matched to the shuffler's threshold"); pass ``realized_l`` to
        report the measured smallest released crowd instead.
        """
        l = self.shuffler_threshold if realized_l is None else realized_l
        return PrivacyReport(p=self.p, l=l, tuples_per_user=max(self.max_reports_per_user, 1))
