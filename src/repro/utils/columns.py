"""Per-member state as rows of shared columns.

A held fleet shard keeps its members' policy state, participation
windows and lifetime counters as arrays with one row per member: a
:class:`Rows` store.  Each member holds ``(_cols, _row)`` and reads and
writes its row through :class:`Column` (a scalar) and
:class:`ArrayColumn` (a view) attributes, so the store *is* the
members' state.  Joins append rows into spare capacity that doubles
when full, departures compact in member order.  A member outside any
shard holds a private one-row store; joining copies its row into the
shard's store and binds it there, and a departing member gets its own
copy of its row.  :class:`Columns` keeps its scalar columns in one
record array; a stacked policy state (:mod:`repro.sim.stacked`) is a
:class:`Rows` too.
"""

from __future__ import annotations

import mmap
from typing import Iterable, Sequence

import numpy as np

__all__ = ["ArrayColumn", "Column", "Columns", "Rows", "own_pages", "stack_rows"]

#: arrays of at least this many bytes get pages of their own
OWN_PAGES_MIN_BYTES = 1 << 20


def own_pages(shape: tuple, dtype) -> np.ndarray:
    """An uninitialised array on private anonymous memory pages of its own.

    A shard's stacked tables are long-lived and several MiB each.  From
    the C heap, a rebuilt fleet's tables land in the hole its
    predecessor's left or grow the heap past it, depending on the
    process's address layout, so the peak memory of one run differed
    from process to process by the tables' size.  Pages of their own
    are mapped when allocated and unmapped when the last view goes; the
    mapping is private, so a forked worker process gets copy-on-write
    pages as it would of the heap.  Arrays under
    :data:`OWN_PAGES_MIN_BYTES` come from ``np.empty``.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if nbytes < OWN_PAGES_MIN_BYTES:
        return np.empty(shape, dtype=dtype)
    pages = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    return np.frombuffer(pages, dtype=dtype).reshape(shape)


def stack_rows(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``np.stack(arrays)`` into :func:`own_pages` storage."""
    dtype = np.result_type(*{a.dtype for a in arrays})
    return np.stack(arrays, out=own_pages((len(arrays), *arrays[0].shape), dtype))


class Column:
    """A member attribute that is its row of the store column of that name."""

    def __init__(self, column: str | None = None) -> None:
        self.column = column

    def __set_name__(self, owner, name: str) -> None:
        self.column = self.column or name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return getattr(obj._cols, self.column).item(obj._row)

    def __set__(self, obj, value) -> None:
        getattr(obj._cols, self.column)[obj._row] = value


class ArrayColumn(Column):
    """A member attribute that is a view of its row of the store array of
    that name: in-place writes land in the store, and assigning copies in."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return getattr(obj._cols, self.column)[obj._row]


class Rows:
    """``n`` members' state: named arrays sharing a leading row axis.

    Each array is the live rows ``[:n]`` of storage with spare rows.
    Each member bound here holds ``(_cols, _row)``: this store and its
    row.  The base form holds the arrays it is given, one attribute
    each; subclasses name theirs in :meth:`names`.
    """

    _store: dict[str, np.ndarray]

    def __init__(self, **arrays: np.ndarray) -> None:
        self.columns = tuple(arrays)
        self._store = {}
        for name, a in arrays.items():
            setattr(self, name, a)
        self.n = len(arrays[self.columns[0]])

    def __getstate__(self) -> dict:
        # a pickle holds the live rows only (a view pickles as a copy)
        return {**vars(self), "_store": {}}

    def names(self) -> list[str]:
        """Every agent-axis array the store holds."""
        return list(self.columns)

    def take(self, rows) -> Rows:
        """A new store holding copies of ``rows``, in order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Rows(**{name: getattr(self, name)[rows] for name in self.names()})

    def _storage(self, name: str) -> np.ndarray:
        return self._store.setdefault(name, getattr(self, name))

    def _append_rows(self, names: Iterable[str], other, n: int, m: int) -> None:
        """Put ``other``'s arrays in rows ``[n, m)``; a full storage doubles
        (moving every row)."""
        for name in names:
            store = self._storage(name)
            if m > len(store):
                grown = own_pages((max(m, 2 * len(store)), *store.shape[1:]), store.dtype)
                grown[:n] = store[:n]
                store = self._store[name] = grown
            store[n:m] = getattr(other, name)
            setattr(self, name, store[:m])

    def leave(self, members: Sequence, keep: np.ndarray) -> None:
        """Compact in place to the rows ``keep`` (ascending) of ``members``
        (one per row): a departed member bound here first gets its own
        copy of its row, and a kept member that moves is re-pointed."""
        kept = np.zeros(self.n, dtype=bool)
        kept[keep] = True
        for i in np.flatnonzero(~kept).tolist():
            if members[i]._cols is self:
                members[i]._cols, members[i]._row = self.take([i]), 0
        first = int(np.argmin(kept)) if keep.size < self.n else self.n  # rows before stay
        for name in self.names():
            live = self._storage(name)
            live[first : keep.size] = live[keep[first:]]
            setattr(self, name, live[: keep.size])
        self.n = keep.size
        for row, i in enumerate(keep[first:].tolist(), first):
            if members[i]._cols is self:
                members[i]._row = row

    def holds(self, members: Sequence) -> bool:
        """Whether every one of ``members`` is bound to this store."""
        return all(m._cols is self for m in members)


class Columns(Rows):
    """Rows whose scalar columns are the fields of one record array.

    Subclasses name their ``(n,)`` columns and dtypes in :attr:`fields`,
    the fields of one record array (a row is one allocation, each column
    attribute a view of its field).  A column named in :attr:`lazy` is a
    separate array, ``None`` until its first write fixes its dtype and
    trailing shape.
    """

    fields: dict[str, type] = {}
    lazy: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._dtype = np.dtype(list(cls.fields.items()))
        for name in cls.fields:  # a read-only view: write through it, in place
            setattr(cls, name, property(lambda self, name=name: self._rec[name]))

    def __init__(self, n: int = 1) -> None:
        self.n, self._store, self._rec = n, {}, np.zeros(n, dtype=self._dtype)
        for name in self.lazy:
            setattr(self, name, None)

    @classmethod
    def bind(cls, member) -> None:
        """Give ``member`` a private one-row store."""
        member._cols, member._row = cls(1), 0

    def names(self) -> list[str]:
        """Every allocated array: the record array and the lazy columns."""
        return ["_rec", *(name for name in self.lazy if getattr(self, name) is not None)]

    def _allocate(self, name: str, like: np.ndarray) -> np.ndarray:
        """Allocate lazy column ``name`` as zeros with ``like``'s row shape."""
        setattr(self, name, np.zeros((self.n, *like.shape[1:]), dtype=like.dtype))
        return getattr(self, name)

    def take(self, rows) -> Columns:
        """A new store holding copies of ``rows``, in order."""
        out = type(self)(len(rows))
        for name in self.names():
            setattr(out, name, getattr(self, name)[np.asarray(rows, dtype=np.intp)])
        return out

    def _gather(self, members: Sequence) -> Columns:
        """A new store holding copies of the members' current rows, in order."""
        sources = [(m._cols, m._row) for m in members]
        if all(s is sources[0][0] for s, _ in sources):
            return sources[0][0].take([r for _, r in sources])
        out = type(self)(len(sources))
        out._rec = np.array([s._rec[r] for s, r in sources], dtype=self._dtype)
        for name in out.lazy:
            for i, (store, row) in enumerate(sources):
                if getattr(store, name) is not None:
                    column = getattr(out, name)
                    if column is None:
                        column = out._allocate(name, getattr(store, name))
                    column[i] = getattr(store, name)[row]
        return out

    def join(self, members: Sequence) -> None:
        """Append copies of ``members``' current rows after the live ones
        and bind each member to its new row."""
        if not members:
            return
        other = self._gather(members)
        for a, b in ((self, other), (other, self)):
            for name in b.names():
                if getattr(a, name) is None:
                    a._allocate(name, getattr(b, name))
        n, m = self.n, self.n + other.n
        self._append_rows(self.names(), other, n, m)
        self.n = m
        for row, member in enumerate(members, n):
            member._cols, member._row = self, row
