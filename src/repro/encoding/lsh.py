"""Random-hyperplane LSH encoder (Aghasaryan et al. 2013, cited in §6).

The paper mentions LSH as the other "distance preserving encoding
algorithm" suitable for on-device use.  Signed random projections
produce a ``b``-bit signature, so ``k = 2^b`` codes; nearby contexts
share signatures with probability ``1 - angle/pi`` per bit.

Compared with k-means codebooks:

* pro — no training at all (hyperplanes are drawn from a seed, the
  codebook is a ``(b, d)`` matrix);
* con — code occupancy is much less balanced on simplex-concentrated
  data, which *lowers* the realized crowd-blending ``l``.  The encoder
  ablation bench quantifies exactly this trade-off.
"""

from __future__ import annotations

import numpy as np

from ..utils.exceptions import ValidationError
from ..utils.rng import ensure_rng
from ..utils.validation import check_fitted, check_in_range, check_positive_int
from .base import Encoder
from .quantization import quantize_simplex

__all__ = ["LSHEncoder"]


class LSHEncoder(Encoder):
    """Signed-random-projection encoder with ``2^n_bits`` codes.

    Parameters
    ----------
    n_bits:
        Signature length ``b``; ``n_codes = 2^b``.
    n_features:
        Context dimension ``d``.
    q:
        Pre-quantization digits (applied before projection so that the
        *exact same* grid point always produces the same code —
        matching the paper's fixed-precision pipeline).
    center:
        Whether to center contexts at the simplex barycenter ``1/d``
        before projecting.  Without centering, all-positive simplex
        vectors fall on the same side of most hyperplanes and most
        codes stay empty.
    seed:
        Hyperplane seed; fixing it fixes the encoder (determinism).
    """

    def __init__(
        self,
        n_bits: int,
        n_features: int,
        *,
        q: int = 1,
        center: bool = True,
        seed=None,
    ) -> None:
        self.n_bits = check_positive_int(n_bits, name="n_bits")
        if self.n_bits > 30:
            raise ValidationError(f"n_bits={n_bits} gives an impractically large code space")
        self.n_features = check_positive_int(n_features, name="n_features", minimum=2)
        self.q = check_positive_int(q, name="q")
        self.center = bool(center)
        self.seed = seed
        self.n_codes = 2**self.n_bits
        self.hyperplanes_: np.ndarray | None = None
        self._powers = (2 ** np.arange(self.n_bits)).astype(np.int64)

    def fit(self, X: np.ndarray | None = None) -> "LSHEncoder":
        """Draw the hyperplanes (no data needed; ``X`` is ignored)."""
        rng = ensure_rng(self.seed)
        self.hyperplanes_ = rng.standard_normal((self.n_bits, self.n_features))
        return self

    def _signature(self, Xq: np.ndarray) -> np.ndarray:
        if self.center:
            Xq = Xq - 1.0 / self.n_features
        # einsum, not BLAS @: its per-row accumulation over d is
        # independent of the batch size, so the scalar encode (a 1-row
        # batch) and encode_batch agree bit-exactly — the base-class
        # contract the fleet replay fast path relies on
        proj = np.einsum("nd,bd->nb", Xq, self.hyperplanes_)  # type: ignore[arg-type]
        return (proj >= 0).astype(np.int64)

    def encode(self, context: np.ndarray) -> int:
        check_fitted(self, ["hyperplanes_"])
        x = quantize_simplex(self._check_context(context), self.q)
        bits = self._signature(x[None, :])[0]
        return int(bits @ self._powers)

    def _encode_rows(self, contexts: np.ndarray) -> np.ndarray:
        check_fitted(self, ["hyperplanes_"])
        Xq = quantize_simplex(contexts, self.q)
        return (self._signature(Xq) @ self._powers).astype(np.intp)

    def decode(self, code: int) -> np.ndarray:
        """Least-squares pre-image of the signature, projected to the simplex.

        LSH has no exact inverse; this returns a plausible representative:
        solve for a vector whose projections have the signed margins
        ``±1``, then map onto the simplex.
        """
        check_fitted(self, ["hyperplanes_"])
        code = check_in_range(code, name="code", low=0, high=self.n_codes)
        bits = (code >> np.arange(self.n_bits)) & 1
        targets = np.where(bits > 0, 1.0, -1.0)
        x, *_ = np.linalg.lstsq(self.hyperplanes_, targets, rcond=None)
        if self.center:
            x = x + 1.0 / self.n_features
        from ..utils.math import project_to_simplex

        return project_to_simplex(x)
