"""Exact grid encoder: one code per quantized simplex point.

This is the paper's *identity* encoding — the cardinality-``n`` code
space of Eq. (1) before any clustering compresses it to ``k < n``
codes.  It exists to

* reproduce Figure 2's enumeration (``q=1, d=3 ⇒ 66`` codes),
* serve as the "no compression" arm of encoder ablations, and
* demonstrate the rank/unrank bijection at sizes where materializing
  the grid is impossible.
"""

from __future__ import annotations

import numpy as np

from ..privacy.cardinality import (
    composition_rank,
    composition_unrank,
    context_cardinality,
)
from ..utils.validation import check_in_range, check_positive_int
from .base import Encoder
from .quantization import grid_resolution, to_grid_integers

__all__ = ["GridEncoder"]


class GridEncoder(Encoder):
    """Bijective encoder from q-digit simplex points to ``{0, …, n-1}``.

    Parameters
    ----------
    n_features:
        Context dimension ``d`` (≥ 2).
    q:
        Decimal precision.

    Notes
    -----
    ``n_codes`` equals Eq. (1)'s cardinality, which grows fast —
    ``q=1, d=10`` already gives 92,378 codes.  The encoder never
    materializes the grid: encoding is combinatorial *ranking* of the
    quantized composition, O(d · 10^q).

    Examples
    --------
    >>> enc = GridEncoder(n_features=3, q=1)
    >>> enc.n_codes
    66
    >>> enc.encode(np.array([1.0, 0.0, 0.0]))  # (10,0,0) is rank 65
    65
    """

    def __init__(self, n_features: int, q: int = 1) -> None:
        self.n_features = check_positive_int(n_features, name="n_features", minimum=2)
        self.q = check_positive_int(q, name="q")
        self.n_codes = context_cardinality(q, self.n_features)
        self._scale = grid_resolution(q)

    def encode(self, context: np.ndarray) -> int:
        x = self._check_context(context)
        counts = to_grid_integers(x, self.q)
        return composition_rank(counts, self._scale)

    def _encode_rows(self, contexts: np.ndarray) -> np.ndarray:
        counts = to_grid_integers(contexts, self.q)
        return np.array(
            [composition_rank(row, self._scale) for row in counts], dtype=np.intp
        )

    def decode(self, code: int) -> np.ndarray:
        code = check_in_range(code, name="code", low=0, high=self.n_codes)
        parts = composition_unrank(code, self._scale, self.n_features)
        return np.asarray(parts, dtype=np.float64) / self._scale
