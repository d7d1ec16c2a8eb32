"""One statement of "same participation state", for tests that pin a
second path (the fleet engine, a resumed checkpoint) to the sequential
specification.

A :class:`~repro.core.participation.RandomizedParticipation` holds its
open window as a fill level, a pick and at most one held item, plus its
keyed draw counter and report counters.  Two policies agree when all of
these do, the held context bit for bit.
"""

from __future__ import annotations

import numpy as np


def assert_participation_equal(a, b, label: str = "") -> None:
    """``a`` and ``b`` hold the same window, held item and counters."""
    assert (a.fill, a._pick, a._draws) == (b.fill, b._pick, b._draws), label
    assert (a.reports_sent, a.windows_seen) == (b.reports_sent, b.windows_seen), label
    if a._held is None or b._held is None:
        assert a._held is None and b._held is None, label
        return
    (ca, aa, ra), (cb, ab, rb) = a._held, b._held
    assert (ca.dtype, ca.shape) == (cb.dtype, cb.shape), label
    assert ca.tobytes() == cb.tobytes(), label
    assert type(aa) is type(ab) and aa == ab, label
    assert np.float64(ra).tobytes() == np.float64(rb).tobytes(), label
