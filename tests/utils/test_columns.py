"""Own-pages storage for stacked agent-axis arrays (``repro.utils.columns``)."""

import os
import pickle

import numpy as np
import pytest

from repro.utils.columns import OWN_PAGES_MIN_BYTES, own_pages, stack_rows

# rows of (10, 64) float64: 5 KiB each, so 1000 of them pass the threshold
ROW_SHAPE = (10, 64)


def _rows(n: int, dtype=np.float64) -> list[np.ndarray]:
    rng = np.random.default_rng(n)
    return [rng.normal(size=ROW_SHAPE).astype(dtype) for _ in range(n)]


@pytest.mark.parametrize("n", [3, 1000])
@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_stack_rows_is_np_stack(n, dtype):
    rows = _rows(n, dtype)
    out = stack_rows(rows)
    ref = np.stack(rows)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


def test_large_stack_is_on_pages_of_its_own():
    out = stack_rows(_rows(1000))
    assert out.nbytes >= OWN_PAGES_MIN_BYTES
    assert not out.flags.owndata and out.flags.writeable and out.flags.c_contiguous
    row = out[7]
    row[0, 0] = 42.0
    assert out[7, 0, 0] == 42.0 and np.shares_memory(row, out)


def test_row_outlives_its_stack_and_pickles():
    rows = _rows(1000)
    row = stack_rows(rows)[5]  # the stack itself is dropped at once
    assert np.array_equal(row, rows[5])
    back = pickle.loads(pickle.dumps(row))
    assert np.array_equal(back, rows[5]) and not np.shares_memory(back, row)


def test_small_arrays_come_from_the_heap():
    assert own_pages((4, 3), np.float64).flags.owndata
    assert own_pages((0, 3), np.float64).shape == (0, 3)


def test_forked_child_writes_its_own_copy():
    out = stack_rows(_rows(1000))
    pid = os.fork()
    if pid == 0:  # child: write and leave without running any cleanup
        out[:] = -1.0
        os._exit(0)
    os.waitpid(pid, 0)
    assert np.array_equal(out[5], _rows(1000)[5])
