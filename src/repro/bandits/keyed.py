"""Keyed, counter-based draws: per-agent randomness as array arithmetic.

Every policy and every participation policy owns a ``uint64`` key,
drawn once from its own generator at construction, and a monotone draw
counter.  A draw is the stateless hash ``H(key, stream, counter)``: a
SplitMix64 finalizer of ``key ^ mix(counter * phi + stream)``, in the
counter-based style of Salmon et al., "Parallel Random Numbers: As Easy
as 1, 2, 3" (SC 2011).  ``stream`` separates the kinds of draw that
share one counter value (a tie-break and an exploration coin of the
same ``select``; a participation coin and its within-window index).

Everything is ``uint64`` integer arithmetic, and the two conversions
out of it are exact (an index ``((h >> 32) * n) >> 32``, a uniform
``(h >> 11) * 2**-53``), so a draw does not depend on the shape of the
array it is computed in.  The sequential policies evaluate these
functions on length-1 arrays and the stacked fleet on length-``n``
arrays, which makes fleet and sequential draws bitwise equal by
construction, with no per-agent generator call.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "STREAM_TIEBREAK",
    "STREAM_EXPLORE_COIN",
    "STREAM_EXPLORE_ARM",
    "STREAM_PARTICIPATE",
    "STREAM_WINDOW_INDEX",
    "draw_key",
    "keyed_bits",
    "keyed_index",
    "keyed_uniform",
    "tiebreak_rows",
]

#: stream ids: one per kind of draw taken at a shared counter value
STREAM_TIEBREAK = 0
STREAM_EXPLORE_COIN = 1
STREAM_EXPLORE_ARM = 2
STREAM_PARTICIPATE = 3
STREAM_WINDOW_INDEX = 4

_PHI = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53


def draw_key(rng: np.random.Generator) -> np.uint64:
    """One ``uint64`` key from ``rng`` (the only generator call a key costs)."""
    return rng.integers(0, 2**64, dtype=np.uint64)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a ``uint64`` array."""
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


def keyed_bits(keys, stream: int, counters) -> np.ndarray:
    """``H(key, stream, counter)`` elementwise, as a ``uint64`` array.

    ``keys`` and ``counters`` broadcast against each other; the result
    is at least one-dimensional (integer wraparound is the point, and
    only array arithmetic wraps silently).
    """
    z = np.array(counters, dtype=np.uint64, ndmin=1) * _PHI
    z += np.uint64(stream)
    _mix(z)
    z = z ^ np.asarray(keys, dtype=np.uint64)
    return _mix(z)


def keyed_index(keys, stream: int, counters, n) -> np.ndarray:
    """A uniform index in ``[0, n)`` per element (``n`` may be an array)."""
    h = keyed_bits(keys, stream, counters) >> np.uint64(32)
    return ((h * np.asarray(n, dtype=np.uint64)) >> np.uint64(32)).astype(np.intp)


def keyed_uniform(keys, stream: int, counters) -> np.ndarray:
    """A uniform float64 in ``[0, 1)`` per element, on the 2**-53 grid."""
    return (keyed_bits(keys, stream, counters) >> np.uint64(11)) * _U53


def tiebreak_rows(scores: np.ndarray, keys, counters) -> np.ndarray:
    """Row-wise argmax, ties broken by each row's keyed draw.

    Row ``i`` takes the ``k``-th of its tied maxima (in column order),
    ``k = keyed_index(keys[i], STREAM_TIEBREAK, counters[i], n_tied)``;
    a row with one maximum takes it.  Whether or not a row ties, the
    caller advances its counter once.
    """
    is_max = scores == scores.max(axis=1, keepdims=True)
    actions = is_max.argmax(axis=1).astype(np.intp)
    n_tied = is_max.sum(axis=1)
    tied = np.flatnonzero(n_tied > 1)
    if tied.size:
        keys = np.broadcast_to(np.asarray(keys, dtype=np.uint64), actions.shape)
        counters = np.broadcast_to(np.asarray(counters, dtype=np.uint64), actions.shape)
        k = keyed_index(keys[tied], STREAM_TIEBREAK, counters[tied], n_tied[tied])
        actions[tied] = (is_max[tied].cumsum(axis=1) > k[:, None]).argmax(axis=1)
    return actions
