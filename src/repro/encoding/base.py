"""Encoder interface (paper §3.2).

An encoder maps a ``d``-dimensional context vector to a code
``y ∈ {0, …, k-1}``.  Two downstream consumers shape the interface:

* the **payload path** — agents transmit ``(y, a, r)`` tuples, so
  :meth:`Encoder.encode` must be deterministic (determinism is what
  gives the scheme its ``eps_bar = 0`` crowd-blending property);
* the **private model path** — warm-private agents act on the encoded
  context (paper §5.3), represented as the one-hot indicator of ``y``
  in ``R^k`` via :meth:`Encoder.one_hot`.
"""

from __future__ import annotations

import abc

import numpy as np

from ..utils.exceptions import ValidationError
from ..utils.validation import check_in_range, check_matrix, check_vector

__all__ = ["Encoder"]


class Encoder(abc.ABC):
    """Deterministic context → code mapping.

    Subclasses set :attr:`n_codes` (the codebook size ``k``) and
    :attr:`n_features` (the raw context dimension ``d``) when fitted.
    """

    n_codes: int
    n_features: int

    @abc.abstractmethod
    def encode(self, context: np.ndarray) -> int:
        """Code for a single context vector."""

    def encode_batch(self, contexts: np.ndarray) -> np.ndarray:
        """Codes ``(n,)`` for a batch of contexts ``(n, d)``.

        Contract: ``encode_batch(X)[i] == encode(X[i])`` *bit-exactly*,
        for every input — not just with high probability.  The default
        row loop is trivially exact; overrides of :meth:`_encode_rows`
        must keep row ``i``'s float operations identical to the scalar
        path (elementwise expressions with a broadcast leading axis,
        einsum contractions, reductions along the trailing axis — never
        a BLAS expansion whose accumulation differs from the scalar
        expression).  The fleet engine encodes through this method
        only — whole replay horizons and every new stationary or drift
        segment at plan time, in one call per encoder — and
        its bit-identity guarantee (:mod:`repro.sim`) inherits this
        contract; ``tests/encoding`` checks it on every implementation.
        An empty ``(0, d)`` batch yields an empty code array.
        """
        contexts = check_matrix(contexts, name="contexts", n_cols=self.n_features, allow_empty=True)
        if contexts.shape[0] == 0:
            return np.empty(0, dtype=np.intp)
        return self._encode_rows(contexts)

    def _encode_rows(self, contexts: np.ndarray) -> np.ndarray:
        """:meth:`encode_batch` body for a validated, non-empty batch."""
        return np.array([self.encode(x) for x in contexts], dtype=np.intp)

    @abc.abstractmethod
    def decode(self, code: int) -> np.ndarray:
        """Representative context for ``code`` (e.g. the centroid).

        Used for diagnostics and for non-linear consumers that want an
        embedding rather than an indicator.
        """

    def one_hot(self, code: int) -> np.ndarray:
        """Indicator vector of ``code`` in ``R^k`` — the private context."""
        code = check_in_range(code, name="code", low=0, high=self.n_codes)
        out = np.zeros(self.n_codes, dtype=np.float64)
        out[code] = 1.0
        return out

    def _check_codes(self, codes: np.ndarray) -> np.ndarray:
        """Coerce a code batch to a flat ``intp`` array within ``[0, k)``."""
        codes = np.asarray(codes, dtype=np.intp).ravel()
        if codes.size and (codes.min() < 0 or codes.max() >= self.n_codes):
            raise ValidationError(
                f"codes must lie in [0, {self.n_codes}), got range "
                f"[{int(codes.min())}, {int(codes.max())}]"
            )
        return codes

    def one_hot_batch(self, codes: np.ndarray) -> np.ndarray:
        """Indicator matrix ``(n, k)`` for a batch of codes.

        Row ``i`` equals ``one_hot(codes[i])`` exactly (indicators are
        0/1, so there is no floating-point divergence to worry about).
        """
        codes = self._check_codes(codes)
        out = np.zeros((codes.size, self.n_codes), dtype=np.float64)
        out[np.arange(codes.size), codes] = 1.0
        return out

    def one_hot_context(self, context: np.ndarray) -> np.ndarray:
        """Encode then one-hot in one call (the private agent's view)."""
        return self.one_hot(self.encode(context))

    def decode_batch(self, codes: np.ndarray) -> np.ndarray:
        """Representative contexts ``(n, d)`` for a batch of codes.

        Contract: ``decode_batch(codes)[i] == decode(codes[i])``
        *bit-exactly* — the same guarantee as :meth:`encode_batch`,
        because warm-private shards acting on centroids gather their
        representations through this method.  The default decodes each
        distinct code once with :meth:`decode` and gathers; subclasses
        with array codebooks override with a direct gather.
        """
        codes = self._check_codes(codes)
        if codes.size == 0:
            return np.empty((0, self.n_features), dtype=np.float64)
        distinct, inverse = np.unique(codes, return_inverse=True)
        return np.stack([self.decode(int(c)) for c in distinct])[inverse]

    def _check_context(self, context: np.ndarray) -> np.ndarray:
        return check_vector(context, name="context", size=self.n_features)

    def validate_determinism(self, contexts: np.ndarray, *, n_repeats: int = 2) -> None:
        """Assert that repeated encoding of the same inputs is identical.

        The privacy analysis (eps_bar = 0) rests on this; the system
        test-suite calls it on every encoder implementation.
        """
        reference = self.encode_batch(contexts)
        for _ in range(n_repeats):
            again = self.encode_batch(contexts)
            if not np.array_equal(reference, again):
                raise ValidationError(
                    f"{type(self).__name__} is non-deterministic; crowd-blending "
                    "eps_bar=0 does not hold"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        k = getattr(self, "n_codes", "?")
        d = getattr(self, "n_features", "?")
        return f"{type(self).__name__}(n_codes={k}, n_features={d})"
