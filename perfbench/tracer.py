"""Span tracing of the P2B layers, installed from outside the library.

The benchmark never edits ``src/``: it wraps public functions and
methods of ``repro.*`` for the duration of a traced run and restores
them afterwards.  Every wrapped call records one span — layer, start,
end, parent span — into flat in-memory columns; the columns are
written out once, when the run ends (:meth:`Tracer.dump`).

A layer's *self time* is the duration of its spans minus the time
covered by their child spans, so nested layers (a kernel inside
``select``, an encode inside ``record_interaction``) are never counted
twice.  A wrapped call made directly inside a span of the *same* layer
(``sherman_morrison`` calling ``mat_vec``, a ``plan_rewards`` override
calling ``super()``) belongs to the enclosing span and opens none.

Functions are patched where their callers look them up: every loaded
``repro`` module whose attribute *is* the original function gets the
wrapper (the kernels are bound by name into ``repro.sim.stacked``,
``drain_report_batches`` into ``repro.core.system``, and so on).
Methods are patched on every class that defines them in its own
``__dict__``.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["Target", "Tracer", "default_targets"]

_MISSING = object()


@dataclass(frozen=True)
class Target:
    """One traced entry point of a layer.

    ``owner`` is a class (patch ``attr`` on every subclass defining it,
    the class included) or a function to patch in every ``repro``
    module binding it; ``count`` maps ``(args, result)`` to counter
    increments recorded at the same boundary.  ``per_parent`` counters
    are also summed per enclosing span (see :meth:`Tracer.max_per_parent`).
    """

    layer: str
    owner: object
    attr: str | None = None
    count: Callable[[tuple, object], dict[str, float]] | None = None
    per_parent: bool = False


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def default_targets() -> list[Target]:
    """The benchmark's layer boundaries (one entry per wrapped name)."""
    from repro.bandits import kernels
    from repro.core.agent import LocalAgent
    from repro.core.participation import RandomizedParticipation, StackedParticipation
    from repro.core.payload import ReportLog, drain_report_batches
    from repro.core.server import PrivateServer
    from repro.core.shuffler import Shuffler
    from repro.data.environment import ReplayUserSession, UserSession
    from repro.encoding.kmeans_encoder import KMeansEncoder
    from repro.experiments.serve import FleetService
    from repro.sim.fleet import FleetRunner
    from repro.sim.stacked import StackedPolicies, stack_policies

    def n_arg(i):
        return lambda args, result: {"rows": len(args[i])}

    def shuffled(args, result):
        return {
            "received": len(args[1]),
            "released": len(result[0]),
            "quarantined": result[3].n_quarantined,
        }

    def released(args, result):
        return {"released": len(result[0]), "quarantined": result[3].n_quarantined}

    targets = [
        Target("encoding.encode", KMeansEncoder, "encode"),
        Target("encoding.encode_batch", KMeansEncoder, "encode_batch", n_arg(1)),
        Target("data.plan", UserSession, "plan_rewards"),
        Target("data.plan", UserSession, "plan_trace"),
        Target("data.plan", ReplayUserSession, "plan_trace_indexed"),
        Target("sim.stacked.select", StackedPolicies, "select"),
        Target("sim.stacked.update", StackedPolicies, "update"),
        Target("sim.stacked.writeback", StackedPolicies, "writeback"),
        Target(
            "sim.stacked.stack",
            stack_policies,
            count=lambda args, result: {"state_bytes": result.state_nbytes()},
            per_parent=True,
        ),
        Target("sim.fleet.run", FleetRunner, "run"),
        Target("sim.fleet.add_agents", FleetRunner, "add_agents"),
        Target("sim.fleet.remove_agents", FleetRunner, "remove_agents"),
        Target("core.agent.record_interaction", LocalAgent, "record_interaction"),
        Target("core.agent.warm_start", LocalAgent, "warm_start"),
        Target("core.participation.step", StackedParticipation, "step"),
        Target("core.participation.offer", RandomizedParticipation, "offer"),
        Target("core.payload.log_append", ReportLog, "append", n_arg(1)),
        Target("core.payload.drain", drain_report_batches),
        Target("core.shuffler.process_arrays", Shuffler, "process_arrays", shuffled),
        Target(
            "core.shuffler.buffer_arrays",
            Shuffler,
            "buffer_arrays",
            lambda args, result: {"received": len(args[1])},
        ),
        Target("core.shuffler.release_ready", Shuffler, "release_ready", released),
        Target("core.server.ingest_arrays", PrivateServer, "ingest_arrays", n_arg(1)),
        Target("core.server.model_snapshot", PrivateServer, "model_snapshot"),
        Target("experiments.serve.interact", FleetService, "interact"),
        Target("experiments.serve.collect", FleetService, "collect"),
        Target("experiments.serve.arrive", FleetService, "arrive"),
        Target("experiments.serve.depart", FleetService, "depart"),
    ]
    for name in (
        "ucb_explore",
        "ucb_explore_fast",
        "linear_scores",
        "mat_vec",
        "theta_refresh",
        "sherman_morrison",
    ):
        targets.append(Target("bandits.kernels", getattr(kernels, name)))
    return targets


class Tracer:
    """Record spans of the wrapped layers; use as a context manager.

    Single-threaded by design: the benchmark runs every workload
    serially, so one open-span stack describes the whole call tree.
    """

    def __init__(self, targets: list[Target] | None = None) -> None:
        self._targets = targets
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        #: counter increments recorded at the span boundaries, keyed
        #: ``(layer, counter)``
        self.counters: Counter = Counter()
        #: ``per_parent`` counters summed per enclosing span, keyed
        #: ``(layer, counter, parent span)``
        self.parent_counters: Counter = Counter()
        self._open: list[int] = []
        self._open_layer: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _wrap(self, target: Target, fn):
        lid = self._layer_id(target.layer)
        count = target.count
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open_layer and self._open_layer[-1] == lid:
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.layer.append(lid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0)
            self._open.append(sid)
            self._open_layer.append(lid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._open.pop()
                self._open_layer.pop()
            if count is not None:
                for key, value in count(args, result).items():
                    self.counters[target.layer, key] += value
                    if target.per_parent:
                        self.parent_counters[target.layer, key, self.parent[sid]] += value
            return result

        return traced

    def install(self) -> None:
        targets = default_targets() if self._targets is None else self._targets
        for target in targets:
            if isinstance(target.owner, type):
                owner, attr = target.owner, target.attr
                # an inherited method is wrapped on the owner itself and
                # removed again on uninstall (_MISSING marks that case)
                classes = _subclasses(owner)
                if attr not in owner.__dict__:
                    self._patches.append((owner, attr, _MISSING))
                    setattr(owner, attr, self._wrap(target, getattr(owner, attr)))
                    classes = classes[1:]
                for cls in classes:
                    if attr in cls.__dict__:
                        original = cls.__dict__[attr]
                        self._patches.append((cls, attr, original))
                        setattr(cls, attr, self._wrap(target, original))
                continue
            fn = target.owner
            wrapper = None
            for name, module in list(sys.modules.items()):
                if not (name == "repro" or name.startswith("repro.")) or module is None:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        if wrapper is None:
                            wrapper = self._wrap(target, fn)
                        self._patches.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    def columns(self) -> dict[str, np.ndarray]:
        """The span table as arrays (times in ns from an arbitrary origin)."""
        return {
            "layer": np.frombuffer(self.layer, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-layer ``calls``, inclusive ``total_s`` and ``self_s``."""
        cols = self.columns()
        dur = (cols["end_ns"] - cols["start_ns"]).astype(np.float64) * 1e-9
        parent = cols["parent"]
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_s = dur - child
        n_layers = len(self.layers)
        calls = np.bincount(cols["layer"], minlength=n_layers)
        total = np.bincount(cols["layer"], weights=dur, minlength=n_layers)
        own = np.bincount(cols["layer"], weights=self_s, minlength=n_layers)
        return {
            layer: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
            }
            for i, layer in enumerate(self.layers)
        }

    def durations_ms(self, layer: str) -> np.ndarray:
        """Inclusive durations of one layer's spans, in call order."""
        if layer not in self._layer_ids:
            return np.empty(0)
        cols = self.columns()
        mask = cols["layer"] == self._layer_ids[layer]
        return (cols["end_ns"][mask] - cols["start_ns"][mask]) * 1e-6

    def max_per_parent(self, layer: str, key: str) -> float:
        """Largest per-enclosing-span sum of a ``per_parent`` counter."""
        return float(
            max(
                (v for (lay, k, _), v in self.parent_counters.items() if (lay, k) == (layer, key)),
                default=0.0,
            )
        )

    def dump(self, path: Path) -> None:
        """Write the span table (and layer names) as a compressed ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, layers=np.array(self.layers), **self.columns())
