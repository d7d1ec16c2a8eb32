"""Versioned on-disk fleet snapshots (crash/resume support).

A checkpoint is the :func:`~repro.utils.serialization.state_to_bytes`
encoding of one :class:`FleetCheckpoint`, written atomically (temp file
+ ``os.replace``) so an interrupted write can never clobber the last
good snapshot.  The payload carries everything a bit-identical restart
needs:

* the **population pickle** — every agent with its policy state, RNG
  streams (generators, keys and draw counters), participation state
  (counters and the open window's one held item) and report store
  handle (the log holding its pending rows), and every session with
  its walk cursors (pickle round-trips ``numpy`` ``Generator`` state
  exactly);
* the **partial result matrices** and the progress cursor
  (``completed`` of ``n_interactions`` rounds) of an in-flight run;
* the **engine knobs** the run was started with, so ``resume`` rebuilds
  an equivalently configured :class:`~repro.sim.fleet.FleetRunner`;
* an opaque **caller context** blob (``run_setting`` stores its
  collection-phase state there).

``CHECKPOINT_VERSION`` gates the format: :func:`load_checkpoint`
refuses files written by a different version (or by anything that is
not a fleet checkpoint at all) with a
:class:`~repro.utils.exceptions.CheckpointError` naming the mismatch.

The matrices stored here are ordinary owned arrays, and a
checkpointed run resumes bit-identically at any worker count
(``tests/sim/test_worker_invariance.py`` pins this).  Engine knobs
added after a snapshot was written restore to their defaults
(``resume`` reads them with ``.get``), and knobs a release no longer
has (the retired worker-backend choice, say) are ignored, so old
checkpoints stay loadable as the engine changes.  Version-2 files
written by releases that could degrade shards out of a run carry a
``dropped`` list: an empty one is ignored, a non-empty one belongs to a
degraded run this release cannot resume and is refused.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from ..utils.exceptions import CheckpointError
from ..utils.serialization import state_from_bytes, state_to_bytes

__all__ = [
    "FleetCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
]

#: format marker distinguishing fleet checkpoints from other npz blobs
CHECKPOINT_MAGIC = "repro-fleet-checkpoint"

#: bump on any incompatible change to the checkpoint layout (the pickled
#: sessions included: 2 = synthetic sessions compute their means lazily;
#: 3 = policies and participation draw keyed, from a key and a counter;
#: 4 = synthetic sessions draw their reward noise keyed, too;
#: 5 = Thompson policies draw their posterior normals keyed and hold no
#: Cholesky cache; 6 = agents hold a report store handle, not an outbox
#: list; 7 = participation holds one item per window, not a buffer;
#: 8 = agents and their participation are rows of counter and
#: participation columns, the held item a payload, action and reward)
CHECKPOINT_VERSION = 8


@dataclass(frozen=True)
class FleetCheckpoint:
    """One restartable snapshot of a fleet run (see module docstring)."""

    completed: int  #: rounds already run (== columns in the matrices)
    n_interactions: int  #: total horizon of the checkpointed run
    track_expected: bool  #: whether the run tracks the expected channel
    rewards: np.ndarray  #: completed reward columns, (n_agents, completed)
    actions: np.ndarray  #: completed action columns, (n_agents, completed)
    expected: np.ndarray | None  #: completed expected columns, or None
    expected_ok: np.ndarray  #: per-agent expected-row validity so far
    population: bytes  #: pickle of ``(agents, sessions)``
    engine: dict  #: the runner's engine knobs (see ``_engine_dict``)
    checkpoint_every: int | None  #: cadence the run was snapshotting at
    context: bytes | None  #: opaque caller blob (e.g. collection state)


def save_checkpoint(path, ckpt: FleetCheckpoint) -> None:
    """Atomically write ``ckpt`` to ``path``.

    The temp file lands in the destination directory (``os.replace``
    must not cross filesystems), so a crash mid-write leaves either the
    old snapshot or none — never a torn file.
    """
    path = os.fspath(path)
    state = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "completed": int(ckpt.completed),
        "n_interactions": int(ckpt.n_interactions),
        "track_expected": bool(ckpt.track_expected),
        "has_expected": ckpt.expected is not None,
        "has_context": ckpt.context is not None,
        "rewards": np.asarray(ckpt.rewards, dtype=np.float64),
        "actions": np.asarray(ckpt.actions, dtype=np.intp),
        "expected_ok": np.asarray(ckpt.expected_ok, dtype=bool),
        "population": np.frombuffer(ckpt.population, dtype=np.uint8),
        "engine": json.loads(json.dumps(dict(ckpt.engine))),
        "checkpoint_every": ckpt.checkpoint_every,
    }
    if ckpt.expected is not None:
        state["expected"] = np.asarray(ckpt.expected, dtype=np.float64)
    if ckpt.context is not None:
        state["context"] = np.frombuffer(ckpt.context, dtype=np.uint8)
    blob = state_to_bytes(state)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(
            f"could not write checkpoint {path!r}: {exc}"
        ) from exc
    finally:
        if os.path.exists(tmp):  # pragma: no cover - crash-path cleanup
            try:
                os.remove(tmp)
            except OSError:
                pass


def load_checkpoint(path) -> FleetCheckpoint:
    """Read and validate the checkpoint at ``path``.

    Every failure mode — missing file, truncated/corrupt bytes, a blob
    that is not a fleet checkpoint, a version from a different library
    release — raises :class:`~repro.utils.exceptions.CheckpointError`
    with the reason, never a bare parsing exception.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"could not read checkpoint {path!r}: {exc}") from exc
    try:
        state = state_from_bytes(blob)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is corrupt or not a checkpoint: {exc}"
        ) from exc
    if state.get("magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"{path!r} is not a fleet checkpoint (missing format marker)"
        )
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has format version {version!r}; this "
            f"library reads version {CHECKPOINT_VERSION} — re-run the "
            "original job or upgrade/downgrade to match"
        )
    if state.get("dropped"):
        raise CheckpointError(
            f"checkpoint {path!r} records dropped shards: it was written by "
            "a degraded run, which this release cannot resume"
        )
    try:
        return FleetCheckpoint(
            completed=int(state["completed"]),
            n_interactions=int(state["n_interactions"]),
            track_expected=bool(state["track_expected"]),
            rewards=np.asarray(state["rewards"], dtype=np.float64),
            actions=np.asarray(state["actions"], dtype=np.intp),
            expected=(
                np.asarray(state["expected"], dtype=np.float64)
                if state.get("has_expected")
                else None
            ),
            expected_ok=np.asarray(state["expected_ok"], dtype=bool),
            population=state["population"].tobytes(),
            engine=dict(state["engine"]),
            checkpoint_every=(
                None
                if state.get("checkpoint_every") is None
                else int(state["checkpoint_every"])
            ),
            context=(
                state["context"].tobytes() if state.get("has_context") else None
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is missing or mistypes a field: {exc}"
        ) from exc
