"""The paper's encoder: k-means codebook over the quantized simplex (§3.2).

"Neighboring context vectors x can be encoded into the same context
code y" — the codebook is a k-means clustering whose ``k`` sets the
utility/privacy granularity.  Two deployment-relevant properties are
baked in:

1. **The codebook never sees user data.**  §4 assumes contexts are
   uniform over the normalized vector space, so the default ``fit``
   trains on *synthetic* uniform simplex samples (quantized to ``q``
   digits).  The codebook is therefore a public artifact shared by all
   agents, leaking nothing — fitting on real contexts is possible (pass
   ``X``) but changes the threat model and is flagged in the docstring.
2. **Encoding is deterministic** (crowd-blending ``eps_bar = 0``): a
   fitted codebook is a frozen array of centroids; ``encode`` is a pure
   nearest-centroid lookup of the *quantized* context, O(k d).
"""

from __future__ import annotations

import numpy as np

from ..clustering import KMeans, MiniBatchKMeans, cluster_sizes
from ..utils.exceptions import ValidationError
from ..utils.rng import ensure_rng
from ..utils.validation import (
    check_fitted,
    check_in_range,
    check_matrix,
    check_positive_int,
)
from .base import Encoder
from .quantization import quantize_simplex

__all__ = ["KMeansEncoder", "sample_uniform_simplex"]


def sample_uniform_simplex(
    n_samples: int, d: int, *, q: int | None = None, seed=None
) -> np.ndarray:
    """Uniform samples from the d-simplex (flat Dirichlet), optionally quantized.

    This is the public, data-free training distribution the default
    codebook uses, matching §4's uniformity assumption.
    """
    n_samples = check_positive_int(n_samples, name="n_samples")
    d = check_positive_int(d, name="d", minimum=2)
    rng = ensure_rng(seed)
    X = rng.dirichlet(np.ones(d), size=n_samples)
    if q is not None:
        X = quantize_simplex(X, q)
    return X


class KMeansEncoder(Encoder):
    """k-means codebook encoder.

    Parameters
    ----------
    n_codes:
        Codebook size ``k`` (paper: 2^10 synthetic, 2^5 multi-label,
        2^5 / 2^7 Criteo).
    n_features:
        Context dimension ``d``.
    q:
        Quantization digits applied before codebook lookup (paper: 1).
    algorithm:
        ``"minibatch"`` (Sculley 2010; paper's citation, default) or
        ``"lloyd"`` (exact; slower, used in small ablations).
    n_fit_samples:
        Number of synthetic simplex samples used by :meth:`fit` when no
        data is supplied.
    seed:
        Seed for codebook training (the *fitted* encoder is
        deterministic regardless).

    Examples
    --------
    >>> enc = KMeansEncoder(n_codes=8, n_features=3, seed=0).fit()
    >>> code = enc.encode(np.array([0.7, 0.2, 0.1]))
    >>> 0 <= code < 8
    True
    """

    def __init__(
        self,
        n_codes: int,
        n_features: int,
        *,
        q: int = 1,
        algorithm: str = "minibatch",
        n_fit_samples: int = 20_000,
        seed=None,
    ) -> None:
        self.n_codes = check_positive_int(n_codes, name="n_codes")
        self.n_features = check_positive_int(n_features, name="n_features", minimum=2)
        self.q = check_positive_int(q, name="q")
        if algorithm not in ("minibatch", "lloyd"):
            raise ValidationError(
                f"algorithm must be 'minibatch' or 'lloyd', got {algorithm!r}"
            )
        self.algorithm = algorithm
        self.n_fit_samples = check_positive_int(n_fit_samples, name="n_fit_samples")
        self.seed = seed
        self.centers_: np.ndarray | None = None
        self.fit_sizes_: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray | None = None) -> "KMeansEncoder":
        """Train the codebook.

        Parameters
        ----------
        X:
            Optional training contexts.  **Default None trains on
            synthetic uniform simplex samples** — the privacy-preserving
            option.  Supplying real user contexts produces a sharper
            codebook but makes the codebook itself data-dependent.
        """
        rng = ensure_rng(self.seed)
        if X is None:
            X = sample_uniform_simplex(
                max(self.n_fit_samples, self.n_codes), self.n_features, q=self.q, seed=rng
            )
        else:
            X = check_matrix(X, name="X", n_cols=self.n_features)
            X = quantize_simplex(X, self.q)
        if self.algorithm == "minibatch":
            km = MiniBatchKMeans(
                n_clusters=self.n_codes,
                batch_size=min(256, X.shape[0]),
                max_iter=300,
                seed=rng,
            ).fit(X)
        else:
            km = KMeans(n_clusters=self.n_codes, n_init=2, seed=rng).fit(X)
        self.centers_ = km.cluster_centers_
        labels = km.predict(X)
        self.fit_sizes_ = cluster_sizes(labels, self.n_codes)
        return self

    # ------------------------------------------------------------------ #
    def encode(self, context: np.ndarray) -> int:
        check_fitted(self, ["centers_"])
        x = quantize_simplex(self._check_context(context), self.q)
        d2 = ((self.centers_ - x) ** 2).sum(axis=1)
        return int(np.argmin(d2))

    def _encode_rows(self, contexts: np.ndarray) -> np.ndarray:
        """Batch nearest-centroid, bit-exact against :meth:`encode`.

        Uses the scalar path's direct squared-difference expression
        with a broadcast leading axis (a trailing-axis reduction is
        independent of outer dimensions), *not* the BLAS expansion
        ``|x|² - 2x·c + |c|²`` of :func:`~repro.clustering.pairwise_sq_dists`,
        whose accumulation differs from the scalar expression and could
        flip an argmin near a tie — the base-class exactness contract
        forbids that.  Chunked so the ``(chunk, k, d)`` temporary stays
        small at fleet-horizon batch sizes.
        """
        check_fitted(self, ["centers_"])
        Xq = quantize_simplex(contexts, self.q)
        out = np.empty(Xq.shape[0], dtype=np.intp)
        chunk = max(1, (1 << 22) // (self.n_codes * self.n_features))
        for start in range(0, Xq.shape[0], chunk):
            block = Xq[start : start + chunk]
            d2 = ((self.centers_[None, :, :] - block[:, None, :]) ** 2).sum(axis=2)
            out[start : start + chunk] = np.argmin(d2, axis=1)
        return out

    def decode(self, code: int) -> np.ndarray:
        check_fitted(self, ["centers_"])
        code = check_in_range(code, name="code", low=0, high=self.n_codes)
        return self.centers_[code].copy()

    def decode_batch(self, codes: np.ndarray) -> np.ndarray:
        """Gather centroids for a batch of codes — one fancy-index, no loop."""
        check_fitted(self, ["centers_"])
        return self.centers_[self._check_codes(codes)].copy()

    # ------------------------------------------------------------------ #
    def estimated_min_crowd(self, n_users: int) -> int:
        """Estimate the crowd-blending ``l`` for ``n_users`` participants.

        Scales the fit-time cluster occupancy (a proxy for the encoding
        distribution) to the deployment population: the paper's
        "optimal encoder" would give ``n_users / k``; a skewed codebook
        gives proportionally less for its smallest cluster.
        """
        check_fitted(self, ["centers_", "fit_sizes_"])
        n_users = check_positive_int(n_users, name="n_users")
        total = int(self.fit_sizes_.sum())
        if total == 0:
            return 0
        smallest_share = float(self.fit_sizes_.min()) / total
        return int(n_users * smallest_share)

    def codebook_state(self) -> dict:
        """Serializable public codebook (centroids + config)."""
        check_fitted(self, ["centers_"])
        return {
            "n_codes": self.n_codes,
            "n_features": self.n_features,
            "q": self.q,
            "centers": self.centers_.copy(),
        }

    @classmethod
    def from_codebook_state(cls, state: dict) -> "KMeansEncoder":
        """Rebuild a fitted encoder from :meth:`codebook_state` output."""
        enc = cls(int(state["n_codes"]), int(state["n_features"]), q=int(state["q"]))
        centers = np.asarray(state["centers"], dtype=np.float64)
        if centers.shape != (enc.n_codes, enc.n_features):
            raise ValidationError(
                f"codebook centers shape {centers.shape} does not match "
                f"({enc.n_codes}, {enc.n_features})"
            )
        enc.centers_ = centers
        return enc
