"""Deterministic fault injection for the fleet engine (chaos harness).

Production fault tolerance is only trustworthy if failure paths are
*exercised*, and failure paths are only testable if failures are
reproducible.  A :class:`FaultPlan` injects faults into well-defined
points of the execution engine — a shard step raising or crashing, a
report batch being corrupted, a shard stalling past a timeout —
**deterministically**: the same plan injects the same faults
at the same (shard, round) coordinates on every run, so a chaos
failure found in CI replays locally from its spec string alone.

Injection points
----------------

* ``_Shard.step`` calls :meth:`FaultPlan.on_step` once per round when a
  plan is armed (``FleetRunner(fault_plan=...)`` or the env knob).  A
  matched spec raises :class:`InjectedFault` (kinds ``raise`` and
  ``crash``, which differ only in their hash stream and message) or
  sleeps (kind ``delay``).  ``crash`` stays a spec kind so plan
  strings recorded from older failures still replay.
* :meth:`~repro.core.system.P2BSystem.collect` (and the async variant)
  pass drained report columns through :meth:`FaultPlan.corrupt_batch`,
  which deterministically mangles a fraction of tuples (negative codes,
  out-of-range actions, non-finite rewards) — exactly the malformed
  input the shuffler's quarantine must absorb.

Faults fire on **attempt 0 only** (configurable per explicit spec): a
supervised retry re-runs the shard with ``attempt=1``, the plan stays
silent, and the retry succeeds — which is how the test suite proves
retried runs are bitwise equal to fault-free runs.

The env knob
------------

``REPRO_FAULTS`` activates a plan process-wide::

    REPRO_FAULTS="seed=7;raise=0.05;crash=0.02;corrupt=0.1"

Spec grammar (semicolon-separated ``key=value`` pairs):

``seed``
    Root of the deterministic hash (default 0).
``raise`` / ``crash`` / ``delay``
    Per-(shard, round) probabilities of each random fault kind.
``corrupt``
    Per-batch probability that a collected report batch is corrupted.
``corrupt_frac``
    Fraction of tuples mangled within a corrupted batch (default 0.2).
``delay_s``
    Sleep duration of a delay fault in seconds (default 0.05).
``at``
    An explicit fault: ``at=kind:shard:round`` or
    ``kind:shard:round:attempt`` (repeatable), e.g. ``at=crash:0:3``.

Randomness is *stateless*: each potential fault site hashes
``(seed, kind, shard, round)`` through a ``SeedSequence`` to a uniform
in ``[0, 1)`` and fires iff it lands under the configured probability.
No counters, no RNG objects — the same plan string fires identically
in any process, at any worker count, in any retry order.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass

import numpy as np

from ..utils.exceptions import ConfigError

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "FAULT_KINDS",
    "FAULTS_ENV_VAR",
    "active_plan",
]

#: environment variable holding a process-wide fault-plan spec
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: recognized step-fault kinds: ``raise`` throws :class:`InjectedFault`
#: inside the shard step, ``crash`` does too (under its own hash
#: stream, kept so old plan strings replay), ``delay`` sleeps the shard.
FAULT_KINDS = ("raise", "crash", "delay")


class InjectedFault(RuntimeError):
    """A fault deliberately raised by an armed :class:`FaultPlan`.

    Deliberately *not* a :class:`~repro.utils.exceptions.ReproError`:
    an injected fault models arbitrary third-party breakage, and the
    supervision layer must treat it exactly like one.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One explicit fault: ``kind`` at (``shard``, ``round``, ``attempt``)."""

    kind: str
    shard: int
    round: int
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )

    def spec_str(self) -> str:
        """The ``at=`` grammar form of this spec."""
        return f"{self.kind}:{self.shard}:{self.round}:{self.attempt}"


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


class FaultPlan:
    """A deterministic schedule of injected engine faults.

    Parameters
    ----------
    specs:
        Explicit :class:`FaultSpec` entries (fire exactly at their
        coordinates).
    seed:
        Root of the stateless hash driving the random rates.
    p_raise, p_crash, p_delay:
        Per-(shard, round) probabilities of each step-fault kind,
        evaluated independently (raise wins ties, then crash, then
        delay) and only on attempt 0.
    p_corrupt:
        Per-batch probability that a collected report batch is
        corrupted by :meth:`corrupt_batch`.
    corrupt_frac:
        Fraction of tuples mangled within a corrupted batch.
    delay_s:
        Sleep duration of a delay fault, in seconds.
    """

    def __init__(
        self,
        specs: "list[FaultSpec] | None" = None,
        *,
        seed: int = 0,
        p_raise: float = 0.0,
        p_crash: float = 0.0,
        p_delay: float = 0.0,
        p_corrupt: float = 0.0,
        corrupt_frac: float = 0.2,
        delay_s: float = 0.05,
    ) -> None:
        for name, p in (
            ("p_raise", p_raise),
            ("p_crash", p_crash),
            ("p_delay", p_delay),
            ("p_corrupt", p_corrupt),
            ("corrupt_frac", corrupt_frac),
        ):
            if not 0.0 <= float(p) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {p}")
        if delay_s < 0:
            raise ConfigError(f"delay_s must be >= 0, got {delay_s}")
        self.specs = tuple(specs or ())
        self.seed = int(seed)
        self.p_raise = float(p_raise)
        self.p_crash = float(p_crash)
        self.p_delay = float(p_delay)
        self.p_corrupt = float(p_corrupt)
        self.corrupt_frac = float(corrupt_frac)
        self.delay_s = float(delay_s)

    # ------------------------------------------------------------------ #
    # spec round-trip
    def to_spec(self) -> str:
        """The plan as a ``REPRO_FAULTS`` string (parse → to_spec is stable)."""
        parts = [f"seed={self.seed}"]
        for key, value, default in (
            ("raise", self.p_raise, 0.0),
            ("crash", self.p_crash, 0.0),
            ("delay", self.p_delay, 0.0),
            ("corrupt", self.p_corrupt, 0.0),
            ("corrupt_frac", self.corrupt_frac, 0.2),
            ("delay_s", self.delay_s, 0.05),
        ):
            if value != default:
                parts.append(f"{key}={value:g}")
        parts.extend(f"at={s.spec_str()}" for s in self.specs)
        return ";".join(parts)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from the ``REPRO_FAULTS`` grammar (see module doc)."""
        kwargs: dict = {}
        specs: list[FaultSpec] = []
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
            try:
                if key == "seed":
                    kwargs["seed"] = int(value)
                elif key in ("raise", "crash", "delay", "corrupt"):
                    kwargs[f"p_{key}"] = float(value)
                elif key in ("corrupt_frac", "delay_s"):
                    kwargs[key] = float(value)
                elif key == "at":
                    fields = value.split(":")
                    if len(fields) not in (3, 4):
                        raise ValueError("expected kind:shard:round[:attempt]")
                    kind = fields[0]
                    nums = [int(f) for f in fields[1:]]
                    specs.append(FaultSpec(kind, *nums))
                else:
                    raise ValueError(f"unknown key {key!r}")
            except (ValueError, TypeError) as exc:
                raise ConfigError(
                    f"bad fault spec fragment {part!r}: {exc} "
                    f"(full grammar in repro.sim.faults)"
                ) from None
        return cls(specs, **kwargs)

    # ------------------------------------------------------------------ #
    # injection points
    def step_fault(self, shard: int, t: int, attempt: int) -> str | None:
        """The fault kind armed at ``(shard, round t, attempt)``, if any.

        Pure — consults explicit specs first, then the stateless hash
        for each random rate.  Random faults arm on attempt 0 only, so
        one retry always clears them.
        """
        for s in self.specs:
            if s.shard == shard and s.round == t and s.attempt == attempt:
                return s.kind
        if attempt == 0:
            for kind, p in (
                ("raise", self.p_raise),
                ("crash", self.p_crash),
                ("delay", self.p_delay),
            ):
                if p > 0.0 and _hash01(self.seed, kind, shard, t) < p:
                    return kind
        return None

    def on_step(self, shard: int, t: int, attempt: int) -> None:
        """Fire whatever fault is armed at this step (the engine hook)."""
        kind = self.step_fault(shard, t, attempt)
        if kind is None:
            return
        if kind == "delay":
            time.sleep(self.delay_s)
            return
        raise InjectedFault(
            f"injected {kind} fault in shard {shard} at round {t} "
            f"(attempt {attempt})"
        )

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({self.to_spec()!r})"


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
