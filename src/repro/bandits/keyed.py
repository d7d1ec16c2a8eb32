"""Keyed, counter-based draws: per-agent randomness as array arithmetic.

Every policy and every participation policy owns a ``uint64`` key,
drawn once from its own generator at construction, and a monotone draw
counter.  A draw is the stateless hash ``H(key, stream, counter)``: a
SplitMix64 finalizer of ``key ^ mix(counter * phi + stream)``, in the
counter-based style of Salmon et al., "Parallel Random Numbers: As Easy
as 1, 2, 3" (SC 2011).  ``stream`` separates the kinds of draw that
share one counter value (a tie-break and an exploration coin of the
same ``select``; a participation coin and its within-window index).
Synthetic sessions key their reward noise the same way
(:func:`keyed_normal`), one counter value per interaction, and linear
Thompson sampling keys its posterior normals, ``A`` slots per counter
value.

Everything is ``uint64`` integer arithmetic, and the two conversions
out of it are exact (an index ``((h >> 32) * n) >> 32``, a uniform
``(h >> 11) * 2**-53``), so a draw does not depend on the shape of the
array it is computed in.  A normal (:func:`keyed_normal`) adds numpy's
``log``/``sqrt``/``cos``, whose per-element result does not depend on
shape or strides either, though it may differ between SIMD dispatch
targets and from ``math``'s libm.  The sequential policies evaluate these
functions on length-1 arrays and the stacked fleet on length-``n``
arrays, which makes fleet and sequential draws bitwise equal by
construction, with no per-agent generator call.
"""

from __future__ import annotations

import numpy as np

from ..utils.exceptions import ValidationError

__all__ = [
    "STREAM_TIEBREAK",
    "STREAM_EXPLORE_COIN",
    "STREAM_EXPLORE_ARM",
    "STREAM_PARTICIPATE",
    "STREAM_WINDOW_INDEX",
    "STREAM_REWARD_NOISE",
    "STREAM_POSTERIOR",
    "draw_key",
    "keyed_bits",
    "keyed_index",
    "keyed_uniform",
    "keyed_normal",
    "box_muller",
    "tiebreak_rows",
]

#: stream ids: one per kind of draw taken at a shared counter value
STREAM_TIEBREAK = 0
STREAM_EXPLORE_COIN = 1
STREAM_EXPLORE_ARM = 2
STREAM_PARTICIPATE = 3
STREAM_WINDOW_INDEX = 4
#: a normal takes two uniforms: this stream and the next (6)
STREAM_REWARD_NOISE = 5
#: Thompson posterior normals: this stream and the next (8)
STREAM_POSTERIOR = 7

_PHI = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0**-53
# shift counts as uint64 scalars, built once: a length-1 draw is a
# dozen ufunc calls, and building a scalar per call is a tenth of it
_S11, _S27, _S30, _S31, _S32 = (np.uint64(k) for k in (11, 27, 30, 31, 32))
_TWO_PI = 2.0 * np.pi
#: the one error both argmax paths raise for a row with no maximum
NAN_SCORES = "scores contain NaN: no arm has the highest score"


def draw_key(rng: np.random.Generator) -> np.uint64:
    """One ``uint64`` key from ``rng`` (the only generator call a key costs)."""
    return rng.integers(0, 2**64, dtype=np.uint64)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a ``uint64`` array."""
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
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
    h = keyed_bits(keys, stream, counters) >> _S32
    return ((h * np.asarray(n, dtype=np.uint64)) >> _S32).astype(np.intp)


def _unit(h: np.ndarray) -> np.ndarray:
    """``uint64`` bits to a float64 in ``[0, 1)`` on the 2**-53 grid."""
    return (h >> _S11) * _U53


def keyed_uniform(keys, stream: int, counters) -> np.ndarray:
    """A uniform float64 in ``[0, 1)`` per element, on the 2**-53 grid."""
    return _unit(keyed_bits(keys, stream, counters))


def box_muller(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """A standard normal per element of two ``uint64`` bit arrays:
    ``sqrt(-2 log u1) * cos(2 pi u2)``, ``u1 = 1 - unit(h1)`` in
    ``(0, 1]`` (``log`` never sees 0), ``u2 = unit(h2)``; numpy ufuncs
    only, never ``math``."""
    u1 = 1.0 - _unit(h1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * _unit(h2))


def keyed_normal(keys, stream: int, counters) -> np.ndarray:
    """A standard normal float64 per element: :func:`box_muller` of the
    keyed bits of ``stream`` and ``stream + 1``."""
    return box_muller(keyed_bits(keys, stream, counters), keyed_bits(keys, stream + 1, counters))


def tiebreak_rows(scores: np.ndarray, keys, counters) -> np.ndarray:
    """Row-wise argmax, ties broken by each row's keyed draw.

    Row ``i`` takes the ``k``-th of its tied maxima (in column order),
    ``k = keyed_index(keys[i], STREAM_TIEBREAK, counters[i], n_tied)``;
    a row with one maximum takes it.  Whether or not a row ties, the
    caller advances its counter once.  A row holding a NaN has no
    maximum (``max`` is NaN, equal to nothing) and raises
    :class:`~repro.utils.exceptions.ValidationError`, as the scalar
    :func:`~repro.bandits.base.argmax_random_tiebreak` does.
    """
    is_max = scores == scores.max(axis=1, keepdims=True)
    actions = is_max.argmax(axis=1).astype(np.intp)
    n_tied = is_max.sum(axis=1)
    tied = np.flatnonzero(n_tied != 1)
    if tied.size:
        if not n_tied[tied].all():
            raise ValidationError(NAN_SCORES)
        keys = np.broadcast_to(np.asarray(keys, dtype=np.uint64), actions.shape)
        counters = np.broadcast_to(np.asarray(counters, dtype=np.uint64), actions.shape)
        k = keyed_index(keys[tied], STREAM_TIEBREAK, counters[tied], n_tied[tied])
        actions[tied] = (is_max[tied].cumsum(axis=1) > k[:, None]).argmax(axis=1)
    return actions
