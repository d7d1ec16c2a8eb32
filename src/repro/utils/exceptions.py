"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` from misuse of the Python
API itself) propagate normally.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "NotFittedError",
    "ValidationError",
    "ConvergenceWarning",
    "PrivacyError",
    "DataError",
    "ConfigError",
    "EngineError",
    "CheckpointError",
    "ServiceError",
    "ServiceTimeout",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class NotFittedError(ReproError, RuntimeError):
    """An estimator/encoder was used before its ``fit`` method was called.

    Mirrors the scikit-learn convention: raised by any component with
    learned state (k-means, encoders, bandit policies restored from a
    server snapshot) when queried pre-fit.
    """


class ValidationError(ReproError, ValueError):
    """An argument failed validation (shape, dtype, range, or value)."""


class ConvergenceWarning(UserWarning):
    """An iterative fit stopped at ``max_iter`` without converging."""


class PrivacyError(ReproError):
    """A privacy accounting or enforcement invariant was violated.

    Examples: requesting ``eps`` for a participation probability outside
    ``[0, 1)``, or a shuffler release that would break the configured
    crowd-blending threshold.
    """


class DataError(ReproError, ValueError):
    """A dataset generator or loader received inconsistent parameters."""


class ConfigError(ReproError, ValueError):
    """A configuration dataclass contains an invalid combination."""


class EngineError(ReproError, RuntimeError):
    """An execution-engine operation failed at run time.

    Base class for failures of the fleet engine's machinery itself —
    checkpoints, the serving loop — as opposed to bad arguments
    (:class:`ConfigError`/:class:`ValidationError`).  Every subclass
    carries an actionable message: what failed, which resource, and
    what the caller can do about it.
    """


class CheckpointError(EngineError):
    """A run checkpoint could not be written, read, or applied.

    Covers unreadable/corrupt snapshot files, version mismatches, and
    resuming with engine settings incompatible with the ones the
    snapshot was taken under.
    """


class ServiceError(EngineError):
    """A :class:`~repro.experiments.serve.FleetService` request failed.

    Raised for requests against a shut-down service or while a previous
    timed-out request is still draining.
    """


class ServiceTimeout(ServiceError):
    """A serve request exceeded the service's per-request timeout.

    The underlying fleet step keeps running to completion in the
    background (state stays consistent); the service reports itself
    degraded until that stray request drains.
    """
