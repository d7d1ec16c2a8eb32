"""Input validation helpers shared across the library.

These are intentionally small and composable: each raises
:class:`~repro.utils.exceptions.ValidationError` with a message naming
the offending parameter, which keeps error reporting uniform across the
public API.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .exceptions import NotFittedError, ValidationError

__all__ = [
    "check_array",
    "check_matrix",
    "check_vector",
    "check_scalar",
    "check_probability",
    "check_in_range",
    "check_positive_int",
    "check_fitted",
    "check_random_reward",
]


def check_array(
    x: Any,
    *,
    name: str = "array",
    ndim: int | None = None,
    dtype: Any = np.float64,
    allow_empty: bool = False,
    finite: bool = True,
) -> np.ndarray:
    """Coerce ``x`` to an ndarray and validate its shape/contents.

    Parameters
    ----------
    x:
        Array-like input.
    name:
        Parameter name used in error messages.
    ndim:
        Required dimensionality, or ``None`` to accept any.
    dtype:
        Target dtype (``None`` keeps the input dtype).
    allow_empty:
        Whether zero-size arrays are acceptable.
    finite:
        Whether to reject NaN/inf entries (only checked for floats).

    Returns
    -------
    numpy.ndarray
        A validated (possibly copied) array.
    """
    try:
        arr = np.asarray(x, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not convertible to an ndarray: {exc}") from exc
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(
            f"{name} must have ndim={ndim}, got ndim={arr.ndim} (shape {arr.shape})"
        )
    if not allow_empty and arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if finite and np.issubdtype(arr.dtype, np.floating) and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite entries")
    return arr


def check_matrix(
    x: Any, *, name: str = "X", n_cols: int | None = None, allow_empty: bool = False
) -> np.ndarray:
    """Validate a 2-D float matrix, optionally with a fixed column count."""
    arr = check_array(x, name=name, ndim=2, allow_empty=allow_empty)
    if n_cols is not None and arr.shape[1] != n_cols:
        raise ValidationError(f"{name} must have {n_cols} columns, got {arr.shape[1]}")
    return arr


def check_vector(x: Any, *, name: str = "x", size: int | None = None) -> np.ndarray:
    """Validate a 1-D float vector, optionally with a fixed length."""
    arr = check_array(x, name=name, ndim=1)
    if size is not None and arr.shape[0] != size:
        raise ValidationError(f"{name} must have length {size}, got {arr.shape[0]}")
    return arr


def check_scalar(
    value: Any,
    *,
    name: str,
    target_type: type | tuple[type, ...] = (int, float),
    minimum: float | None = None,
    maximum: float | None = None,
    include_min: bool = True,
    include_max: bool = True,
) -> float:
    """Validate a numeric scalar against an (optionally open) interval."""
    if isinstance(value, bool) or not isinstance(value, target_type + (np.integer, np.floating)):
        raise ValidationError(f"{name} must be a number, got {type(value).__name__}")
    v = float(value)
    if not np.isfinite(v):
        raise ValidationError(f"{name} must be finite, got {v}")
    if minimum is not None:
        if include_min and v < minimum:
            raise ValidationError(f"{name} must be >= {minimum}, got {v}")
        if not include_min and v <= minimum:
            raise ValidationError(f"{name} must be > {minimum}, got {v}")
    if maximum is not None:
        if include_max and v > maximum:
            raise ValidationError(f"{name} must be <= {maximum}, got {v}")
        if not include_max and v >= maximum:
            raise ValidationError(f"{name} must be < {maximum}, got {v}")
    return v


def check_probability(
    value: Any, *, name: str = "p", allow_zero: bool = True, allow_one: bool = True
) -> float:
    """Validate a probability in ``[0, 1]`` (bounds optionally open)."""
    return check_scalar(
        value,
        name=name,
        minimum=0.0,
        maximum=1.0,
        include_min=allow_zero,
        include_max=allow_one,
    )


def check_in_range(value: int, *, name: str, low: int, high: int) -> int:
    """Validate an integer in the half-open range ``[low, high)``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    if not (low <= int(value) < high):
        raise ValidationError(f"{name} must be in [{low}, {high}), got {value}")
    return int(value)


def check_positive_int(value: Any, *, name: str, minimum: int = 1) -> int:
    """Validate an integer ``>= minimum`` (default: strictly positive)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    if int(value) < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_fitted(obj: Any, attributes: Sequence[str], *, name: str | None = None) -> None:
    """Raise :class:`NotFittedError` unless all ``attributes`` exist and are not None."""
    missing = [a for a in attributes if getattr(obj, a, None) is None]
    if missing:
        cls = name or type(obj).__name__
        raise NotFittedError(
            f"{cls} is not fitted yet (missing {', '.join(missing)}); call fit() first"
        )


def check_random_reward(reward: Any, *, name: str = "reward") -> float:
    """Validate a bandit reward; the paper's setting has r in [0, 1].

    Rewards slightly outside [0, 1] from Gaussian noise are clipped by
    callers; this check merely requires a finite float.
    """
    return check_scalar(reward, name=name)
