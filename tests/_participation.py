"""One statement of "same participation state", for tests that pin a
second path (the fleet engine, a resumed checkpoint) to the sequential
specification.

A :class:`~repro.core.participation.RandomizedParticipation` is one row
of participation columns: its parameters, keyed stream, open window
(fill level and pick), report counters and at most one held item.
:meth:`~repro.core.participation.RandomizedParticipation.state` copies
all of it; two devices agree when their states do, the held payload
bit for bit.
"""

from __future__ import annotations

import numpy as np


def assert_participation_equal(a, b, label: str = "") -> None:
    """``a`` and ``b`` hold the same window, held item and counters."""
    sa, sb = a.state(), b.state()
    ha, hb = sa.pop("held"), sb.pop("held")
    assert sa == sb, label
    if ha is None or hb is None:
        assert ha is None and hb is None, label
        return
    (pa, aa, ra), (pb, ab, rb) = ha, hb
    pa, pb = np.asarray(pa), np.asarray(pb)
    assert (pa.dtype, pa.shape) == (pb.dtype, pb.shape), label
    assert pa.tobytes() == pb.tobytes(), label
    assert type(aa) is type(ab) and aa == ab, label
    assert np.float64(ra).tobytes() == np.float64(rb).tobytes(), label
