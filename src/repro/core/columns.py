"""Per-device state as rows of shared columns.

A held fleet shard keeps its members' policy state, participation
windows and lifetime counters as arrays with one row per member.
:class:`RowStorage` is the membership machinery they share: joins
append rows into spare capacity that doubles when full, departures
compact in member order.  :class:`Columns` binds member objects to rows:
each holds ``(_cols, _row)`` and reads and writes its row through
:class:`Column` attributes, so the columns *are* the members' state.  A
member outside any shard holds a private one-row store; joining copies
its row into the shard's store and binds it there, and a departing
member gets its own copy of its row.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["Column", "Columns", "RowStorage"]


class RowStorage:
    """Agent-axis arrays held as the live rows ``[:n]`` of storage with spare rows."""

    _store: dict[str, np.ndarray]

    def _storage(self, name: str) -> np.ndarray:
        return self._store.setdefault(name, getattr(self, name))

    def _append_rows(self, names: Iterable[str], other, n: int, m: int) -> list[str]:
        """Put ``other``'s arrays in rows ``[n, m)``; a full storage doubles
        (moving every row).  Returns the names whose storage moved."""
        moved = []
        for name in names:
            store = self._storage(name)
            if m > len(store):
                grown = np.empty((max(m, 2 * len(store)), *store.shape[1:]), dtype=store.dtype)
                grown[:n] = store[:n]
                store = self._store[name] = grown
                moved.append(name)
            store[n:m] = getattr(other, name)
            setattr(self, name, store[:m])
        return moved

    def _keep_rows(self, names: Iterable[str], keep: np.ndarray, first: int) -> None:
        """Compact in place to the rows ``keep`` (ascending); rows before
        ``first`` stay where they are."""
        for name in names:
            live = self._storage(name)
            live[first : keep.size] = live[keep[first:]]
            setattr(self, name, live[: keep.size])


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


class Columns(RowStorage):
    """``n`` members' state: one row per member of each column.

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

    def __getstate__(self) -> dict:
        # a pickle holds the live rows only (a view pickles as a copy)
        return {**vars(self), "_store": {}}

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

    def leave(self, members: Sequence, keep: np.ndarray) -> None:
        """Compact to the rows ``keep`` (ascending) of ``members`` (one per
        row): a departed member bound here first gets its own copy of its
        row, and a kept member that moves is re-pointed."""
        kept = np.zeros(self.n, dtype=bool)
        kept[keep] = True
        for i in np.flatnonzero(~kept).tolist():
            if members[i]._cols is self:
                members[i]._cols, members[i]._row = self.take([i]), 0
        first = int(np.argmin(kept)) if keep.size < self.n else self.n
        self._keep_rows(self.names(), keep, first)
        self.n = keep.size
        for row, i in enumerate(keep[first:].tolist(), first):
            if members[i]._cols is self:
                members[i]._row = row

    def holds(self, members: Sequence) -> bool:
        """Whether every one of ``members`` is bound to this store."""
        return all(m._cols is self for m in members)
