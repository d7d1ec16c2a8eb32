"""Sweep-level parallelism: fan independent settings across processes.

The fleet engine parallelizes *within* one run (shards of one
population, :class:`~repro.sim.FleetRunner` ``n_workers``).  The §5
figure grids are parallel one level up: ``compare_settings`` runs
three fully independent settings, and every sweep runs an independent
``compare_settings`` per grid point — the ``joblib.Parallel(delayed(
one_regret))`` shape of the reference bandit simulators, here on the
standard library.

:class:`ParallelMap` is that executor.  It ships each item to a worker
process by pickling ``(fn, item)``, and returns results **in item
order** regardless of completion order — parallel sweeps are
deterministic, bit-identical to serial ones (each setting seeds its own
streams from the same root seed either way).  Entry points reach it
through :attr:`~repro.sim.EngineConfig.sweep_workers`
(CLI ``--sweep-workers``).

Because work crosses a process boundary, ``fn`` and the items must be
picklable — module-level functions and factories, not lambdas or
closures.  Unpicklable work raises a
:class:`~repro.utils.exceptions.ConfigError` up front (before any
worker starts), naming the fix.
"""

from __future__ import annotations

import pickle
from typing import Callable, Iterable, Sequence

from ..utils.validation import check_positive_int

__all__ = ["ParallelMap", "parallel_map"]


def _call_pickled(payload: bytes):
    fn, item = pickle.loads(payload)
    return fn(item)


class ParallelMap:
    """Order-preserving process fan-out for independent work items.

    ``ParallelMap(n).map(fn, items)`` == ``[fn(x) for x in items]`` —
    same values, same order — with up to ``n`` items in flight in
    worker processes.  ``n_workers=1`` (or a single item) runs inline,
    no pool, so the serial path stays the trivial one.
    """

    def __init__(self, n_workers: int = 1) -> None:
        self.n_workers = check_positive_int(n_workers, name="n_workers")

    def map(self, fn: Callable, items: Iterable) -> list:
        items = list(items)
        if self.n_workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        from concurrent.futures import ProcessPoolExecutor

        from ..utils.exceptions import ConfigError

        try:
            # pickle up front: a clean, early error instead of one
            # worker process dying mid-sweep
            payloads = [
                pickle.dumps((fn, item), protocol=pickle.HIGHEST_PROTOCOL)
                for item in items
            ]
        except Exception as exc:
            raise ConfigError(
                "sweep_workers > 1 ships each setting to a worker process "
                f"by pickling, which this workload does not support ({exc}); "
                "use module-level functions/factories instead of lambdas or "
                "closures, or run with sweep_workers=1"
            ) from exc
        with ProcessPoolExecutor(
            max_workers=min(self.n_workers, len(payloads))
        ) as pool:
            futures = [pool.submit(_call_pickled, p) for p in payloads]
            # futures are consumed in submission order — results come
            # back ordered by item, never by completion
            return [f.result() for f in futures]


def parallel_map(fn: Callable, items: Sequence, *, n_workers: int = 1) -> list:
    """Functional shorthand for ``ParallelMap(n_workers).map(fn, items)``."""
    return ParallelMap(n_workers).map(fn, items)
