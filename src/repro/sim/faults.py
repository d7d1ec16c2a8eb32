"""Deterministic report corruption for the collection path (chaos tap).

In the paper's threat model devices are untrusted, so a collected
report batch may hold malformed tuples, and the shuffler's quarantine
must absorb them.  That path is only trustworthy if it is *exercised*,
and only testable if the malformed input is reproducible.  A
:class:`FaultPlan` mangles collected report batches
**deterministically**: the same plan corrupts the same tuples of the
same batches on every run, so a chaos failure found in CI replays
locally from its spec string alone.

:meth:`~repro.core.system.P2BSystem.collect` (and the async variant)
pass drained report columns through :meth:`FaultPlan.corrupt_batch`,
which mangles a fraction of tuples (negative codes, out-of-range
actions, non-finite rewards) — exactly the malformed input the
shuffler's quarantine must absorb.

The env knob
------------

``REPRO_FAULTS`` activates a plan process-wide::

    REPRO_FAULTS="seed=7;corrupt=0.1;corrupt_frac=0.25"

Spec grammar (semicolon-separated ``key=value`` pairs):

``seed``
    Root of the deterministic hash (default 0).
``corrupt``
    Per-batch probability that a collected report batch is corrupted.
``corrupt_frac``
    Fraction of tuples mangled within a corrupted batch (default 0.2).

The step-fault keys of earlier releases (``raise``, ``crash``,
``delay``, ``delay_s``, ``at``) are refused with a
:class:`~repro.utils.exceptions.ConfigError` naming the key: shard
horizons are deterministic, so an exception inside one propagates
instead of being retried.

Randomness is *stateless*: each potential corruption hashes
``(seed, batch)`` through a ``SeedSequence`` to a uniform in ``[0, 1)``
and fires iff it lands under the configured probability.  No counters,
no RNG objects — the same plan string fires identically in any process.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

from ..utils.exceptions import ConfigError

__all__ = ["FaultPlan", "FAULTS_ENV_VAR", "active_plan"]

#: environment variable holding a process-wide fault-plan spec
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: spec keys of the retired step-fault injection
_RETIRED_KEYS = ("raise", "crash", "delay", "delay_s", "at")


def _hash01(seed: int, *keys) -> float:
    """Stateless uniform in ``[0, 1)`` from ``(seed, *keys)``.

    ``SeedSequence`` mixing is stable across processes and platforms —
    string keys digest through ``crc32``, never ``hash()``, whose
    per-process randomization would make a replay in a fresh
    interpreter disagree with the original run — which is what makes
    plans replayable without shipping RNG state.
    """
    entropy = [int(seed) & 0xFFFFFFFF]
    for key in keys:
        if isinstance(key, str):
            entropy.append(zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF)
        else:
            entropy.append(int(key) & 0xFFFFFFFF)
    state = np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint32)
    return float(state[0]) / float(2**32)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of corrupted report batches.

    Parameters
    ----------
    seed:
        Root of the stateless hash driving the corruption.
    p_corrupt:
        Per-batch probability that a collected report batch is
        corrupted by :meth:`corrupt_batch`.
    corrupt_frac:
        Fraction of tuples mangled within a corrupted batch.
    """

    seed: int = 0
    p_corrupt: float = 0.0
    corrupt_frac: float = 0.2

    def __post_init__(self) -> None:
        for name in ("p_corrupt", "corrupt_frac"):
            p = float(getattr(self, name))
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")
            object.__setattr__(self, name, p)
        object.__setattr__(self, "seed", int(self.seed))

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from the ``REPRO_FAULTS`` grammar (see module doc)."""
        kwargs: dict = {}
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ConfigError(
                    f"bad fault spec fragment {part!r} (expected key=value; "
                    f"full grammar in repro.sim.faults)"
                )
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if key in _RETIRED_KEYS:
                raise ConfigError(
                    f"fault spec key {key!r} is no longer supported: step "
                    "faults were removed, only report corruption remains "
                    "(keys seed, corrupt, corrupt_frac)"
                )
            try:
                if key == "seed":
                    kwargs["seed"] = int(value)
                elif key == "corrupt":
                    kwargs["p_corrupt"] = float(value)
                elif key == "corrupt_frac":
                    kwargs["corrupt_frac"] = float(value)
                else:
                    raise ValueError(f"unknown key {key!r}")
            except ValueError as exc:
                raise ConfigError(
                    f"bad fault spec fragment {part!r}: {exc} "
                    f"(full grammar in repro.sim.faults)"
                ) from None
        return cls(**kwargs)

    def corrupt_batch(
        self,
        batch_index: int,
        codes: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Deterministically mangle a report batch (maybe).

        Returns ``(codes, actions, rewards, n_corrupted)`` — copies
        when corruption fires, the originals untouched otherwise.  The
        mangled tuples rotate through the three malformations the
        quarantine must catch: negative codes, negative actions, and
        non-finite rewards.
        """
        n = int(np.asarray(codes).shape[0])
        if (
            n == 0
            or self.p_corrupt <= 0.0
            or _hash01(self.seed, "corrupt", batch_index) >= self.p_corrupt
        ):
            return codes, actions, rewards, 0
        n_bad = max(1, int(round(n * self.corrupt_frac)))
        # deterministic victim choice: an independent hash per slot
        order = np.argsort(
            [_hash01(self.seed, "victim", batch_index, i) for i in range(n)]
        )
        victims = order[:n_bad]
        codes = np.array(codes, dtype=np.intp, copy=True)
        actions = np.array(actions, dtype=np.intp, copy=True)
        rewards = np.array(rewards, dtype=np.float64, copy=True)
        for slot, j in enumerate(victims):
            mode = slot % 3
            if mode == 0:
                codes[j] = -1 - codes[j]
            elif mode == 1:
                actions[j] = -1
            else:
                rewards[j] = np.nan
        return codes, actions, rewards, n_bad


def active_plan() -> FaultPlan | None:
    """The process-wide plan from ``REPRO_FAULTS``, or ``None``.

    Re-read on every call (cheap: one ``os.environ`` lookup plus a
    cached parse) so tests can arm and disarm the knob freely.
    """
    spec = os.environ.get(FAULTS_ENV_VAR)
    if not spec:
        return None
    global _cached
    if _cached is None or _cached[0] != spec:
        _cached = (spec, FaultPlan.parse(spec))
    return _cached[1]


_cached: tuple[str, FaultPlan] | None = None
