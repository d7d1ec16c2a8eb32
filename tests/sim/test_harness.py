"""The fleet engine against the sequential spec, through one harness.

Each named case below is a population mix and a schedule of ops
(``_testkit``); every case runs on a held fleet at every worker count of
``WORKERS`` (``REPRO_PARALLEL_WORKERS``, default ``1,2``) and must
reproduce the sequential spec bitwise — fast-tier cases within the
``stat_equiv`` bands.  A hypothesis strategy over cases fuzzes the same
contract.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import re
import sys
import textwrap

import numpy as np
import pytest
from _testkit import (
    COLD,
    ENVIRONMENTS,
    FAST_KINDS,
    KINDS,
    MIXED,
    NONPRIVATE,
    PRIVATE,
    WORKERS,
    Case,
    Member,
    _Side,
    assert_equivalent,
    check,
    play,
    spec_outcome,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import payload, system
from repro.sim import EngineConfig, FleetRunner
from repro.sim.fleet import _Shard
from repro.sim.stacked import StackedLinUCB

M = Member
TRACED = ("multilabel", "multilabel_b")


def _runs(*sizes):
    return tuple(("run", n) for n in sizes)


def _alternate(members, sessions):
    """``members`` with their sessions taken in turn from ``sessions``."""
    return tuple(
        Member(m.kind, m.mode, sessions[i % len(sessions)], m.context, m.encoder)
        for i, m in enumerate(members)
    )


#: every dense kind in every mode and private context, plus CodeLinUCB
GRID = tuple(
    M(kind, mode, "synthetic", context)
    for kind in ("linucb", "epsilon_greedy", "ucb1", "thompson")
    for mode, context in (
        (COLD, "one-hot"), (NONPRIVATE, "one-hot"), (PRIVATE, "one-hot"), (PRIVATE, "centroid")
    )
) + (M("code_linucb", PRIVATE),)

#: the four replay settings: cold, raw reports, centroid and one-hot codes
REPLAY = (
    M("linucb"),
    M("linucb", NONPRIVATE),
    M("linucb", PRIVATE, context="centroid"),
    M("code_linucb", PRIVATE),
)

#: eight shards: four kinds, cold over stationary and two drift clocks,
#: warm over two replay tables
SHARDS = tuple(
    M(kind, COLD, ("synthetic", "drifting", "drifting_b")[k % 3])
    if i % 2 == 0
    else M(kind, NONPRIVATE, "multilabel_b" if i % 4 == 3 else "multilabel")
    for k, kind in enumerate(("linucb", "epsilon_greedy", "ucb1", "thompson") * 2)
    for i in (2 * k, 2 * k + 1)
)

THREE_KINDS = (M("linucb"), M("thompson"), M("epsilon_greedy"))
WARM_PAIR = (M("linucb"), M("linucb", NONPRIVATE))
PRIVATE_CODES = (M("code_linucb", PRIVATE),)
FAULTS = "seed=3;corrupt=1.0;corrupt_frac=0.3"

CASES = {
    # populations: every kind x mode x context, mixed shards, encoders
    "policy_mode_grid": Case(GRID * 2, _runs(7, 11) + (("collect",),), seed=99),
    "mixed_shards": Case(MIXED * 2, _runs(15) + (("collect",),), seed=42),
    "mixed_shards_reversed": Case((MIXED * 2)[::-1], _runs(8), seed=42),
    "private_logs": Case(
        MIXED, _runs(5) + (("collect",),) + _runs(4), shared_log=False, seed=3
    ),
    "encoders": Case(
        tuple(
            M(kind, PRIVATE, "synthetic", context, enc)
            for enc in ("lsh", "grid", "kmeans")
            for kind, context in (("code_linucb", "one-hot"), ("linucb", "centroid"))
        ) * 2,
        _runs(12) + (("collect",),),
        p=0.9,
        window=4,
        threshold=1,
    ),
    "twin_encoders": Case(
        tuple(
            M(kind, PRIVATE, session, context, enc)
            for session in ("synthetic", "drifting", "drifting_b")
            for kind, context in (
                ("code_linucb", "one-hot"), ("linucb", "one-hot"), ("linucb", "centroid")
            )
            for enc in ("kmeans", "twin")
        ),
        _runs(22, 2) + (("collect",),),
        max_reports=4,
    ),
    "lsh_centroid_replay": Case(
        (M("linucb", PRIVATE, "multilabel", "centroid", "lsh"),) * 6,
        _runs(20) + (("collect",),),
        max_reports=4,
        seed=9,
    ),
    # sessions: dataset replay, drift, mixed plan capabilities
    "multilabel_modes": Case(
        _alternate(REPLAY * 2, ("multilabel",)), _runs(16) + (("collect",),), seed=42
    ),
    "criteo_modes": Case(_alternate(REPLAY * 2, ("criteo",)), _runs(16), seed=42),
    "replay_refusals": Case(
        _alternate(PRIVATE_CODES * 12, ("multilabel",)), _runs(12) + (("collect",),), p=0.2, seed=7
    ),
    "replay_splits": Case(
        _alternate(PRIVATE_CODES * 9, ("multilabel",)), _runs(1, 5, 7, 3), seed=42
    ),
    "two_tables_splits": Case(
        _alternate(REPLAY * 3, TRACED), _runs(2, 2, 2, 2, 3) + (("collect",),), seed=13
    ),
    "criteo_and_multilabel_shard": Case(
        _alternate(PRIVATE_CODES * 6, ("multilabel", "criteo")), _runs(5, 7), seed=29
    ),
    "window_straddles_runs": Case(
        _alternate(PRIVATE_CODES * 8, ("multilabel", "criteo")),
        _runs(2, 2, 2, 2, 2, 2, 2, 2, 1) + (("collect",),),
        p=1.0,
        window=5,
        max_reports=3,
        seed=31,
    ),
    "window_never_fills": Case(
        _alternate(PRIVATE_CODES * 6, ("multilabel",)), _runs(3, 3, 3, 1),
        p=1.0, window=50, max_reports=1, seed=12,
    ),
    "raw_payloads_straddle": Case(
        _alternate((M("linucb", NONPRIVATE),) * 7, TRACED), _runs(3, 3, 3, 3, 1) + (("collect",),),
        p=1.0, window=4, max_reports=3, seed=23,
    ),
    "stationary_splits": Case((M("linucb"),) * 8, _runs(1, 4, 4), seed=4),
    "drift_splits": Case(
        _alternate((M("linucb"),) * 8, ("drifting", "drifting", "synthetic")),
        _runs(1, 3, 5, 6, 5),
        seed=17,
    ),
    "drift_reports": Case(
        _alternate(PRIVATE_CODES * 8, ("drifting", "synthetic", "drifting_b")),
        _runs(4, 7, 9) + (("collect",),),
        window=4,
        max_reports=50,
        threshold=1,
    ),
    "mixed_plan_capabilities": Case(
        _alternate((M("linucb"),) * 6, ("synthetic", "multilabel")), _runs(3, 5), seed=9
    ),
    "two_reward_models": Case(
        _alternate((M("linucb"),) * 6, ("synthetic", "synthetic_b")), _runs(3, 5), seed=5
    ),
    "worker_grid": Case(
        SHARDS, _runs(7) + (("crash", 12, 5, 2), ("collect",)), p=0.9, seed=5
    ),
    # churn, subsets and changes made outside the held runner
    "churn_cold": Case(
        (M("linucb"),) * 14,
        (
            ("run", 3), ("depart", (1, 4)), ("arrive", 2), ("run", 2), ("depart", (0,)),
            ("arrive", 3), ("run", 4), ("depart", (7,)), ("run", 1), ("arrive", 3),
            ("run", 3), ("depart", (1, 2, 4)), ("run", 2),
        ),
        n_initial=6,
        seed=31,
    ),
    "churn_private": Case(
        PRIVATE_CODES * 14,
        (
            ("run", 3), ("depart", (1, 4)), ("arrive", 2), ("run", 2), ("depart", (0,)),
            ("arrive", 3), ("run", 4), ("depart", (7,)), ("arrive", 3), ("run", 3),
            ("collect_async", (0, 2, 4)), ("depart", (1, 2, 4)), ("run", 2), ("collect",),
        ),
        n_initial=6,
        max_reports=50,
        seed=31,
    ),
    "empty_fleet": Case(
        (M("linucb"),) * 5, (("depart", (0, 1, 2)), ("run", 4), ("arrive", 2), ("run", 2)),
        n_initial=3,
    ),
    "outside_changes": Case(
        THREE_KINDS * 3,
        (
            ("run", 3), ("set_state", 3, 0), ("run", 3), ("scalar", (1,), 1), ("run", 3),
            ("other", 2), ("run", 3), ("subset", (0, 3), 2), ("run", 3),
            ("subset", (5, 2, 8), 2), ("new_policy", 4), ("run", 3),
        ),
        seed=5,
    ),
    "fleet_and_scalar_alternate": Case(
        _alternate(
            (M("code_linucb", PRIVATE), M("linucb", NONPRIVATE), M("linucb")) * 6, ("synthetic",)
        ),
        (
            ("run", 3), ("scalar", tuple(range(18)), 4), ("run", 6),
            ("scalar", tuple(range(0, 18, 2)), 2), ("other", 4), ("run", 2),
            ("subset", tuple(range(0, 18, 2)), 3), ("run", 4), ("collect",),
        ),
        window=5,
        max_reports=6,
        threshold=1,
    ),
    # warm starts
    "warm_held_stacks": Case(WARM_PAIR * 3, (("run", 4), ("run", 5, "central")), seed=3),
    "warm_after_set_state": Case(
        WARM_PAIR * 3, (("run", 3), ("set_state", 2, 0), ("run", 4, "central")), seed=5
    ),
    "warm_after_churn": Case(
        WARM_PAIR * 4,
        (("run", 3), ("arrive", 2), ("depart", (1,)), ("run", 4, "central")),
        n_initial=6,
        seed=7,
    ),
    "warm_start_op": Case(
        WARM_PAIR * 3, (("run", 3), ("warm_start", "central"), ("run", 3)), seed=9
    ),
    "warm_checkpointed": Case(
        WARM_PAIR * 3, (("run", 3), ("crash", 7, 3, 2, "central"), ("run", 2)), seed=13
    ),
    "warm_refused": Case(
        (M("linucb"), M("ucb1")) * 3,
        (("run", 3), ("run", 4, "central"), ("run", 4)),
        seed=15,
        refuses=1,
    ),
    "refresh_rounds": Case(
        PRIVATE_CODES * 26,
        (
            ("run", 5), ("collect",), ("arrive", 3), ("run", 5, "server"), ("collect",),
            ("run", 5, "server"), ("collect",), ("warm_start", "server"), ("run", 5),
            ("collect",),
        ),
        n_initial=20,
        p=0.7,
        max_reports=3,
        faults=FAULTS,
        seed=5,
    ),
    "refresh_rounds_centroid": Case(
        (M("linucb", PRIVATE, context="centroid"),) * 12,
        (("run", 8), ("collect",), ("run", 8, "server"), ("collect",), ("run", 8, "server")),
        p=0.9,
        window=4,
        max_reports=3,
        threshold=1,
        seed=11,
    ),
    # checkpoint and resume
    "crash_mid_horizon": Case(
        (M("linucb"), M("epsilon_greedy"), M("ucb1")) * 3, (("crash", 12, 4, 3),)
    ),
    "crash_traced_two_tables": Case(
        _alternate((M("linucb"), M("epsilon_greedy"), M("ucb1")) * 2, TRACED),
        _runs(2) + (("crash", 6, 2, 2),),
        seed=2,
    ),
    "finished_snapshot": Case(THREE_KINDS * 2, (("crash", 6, 3, 99), ("run", 2)), seed=1),
    "between_runs_checkpoint": Case(
        REPLAY * 2, (("run", 4), ("checkpoint",), ("run", 4), ("collect",)), seed=3
    ),
    "thompson_crash": Case((M("thompson"),) * 4, (("crash", 6, 3, 2),), seed=7),
    "open_windows_crash": Case(
        PRIVATE_CODES * 6,
        (
            ("scalar", (1, 5), 1), ("scalar", (2,), 2), ("scalar", (3,), 3),
            ("crash", 9, 5, 2), ("collect",),
        ),
        p=0.7,
        window=4,
        max_reports=3,
        seed=11,
    ),
    "churned_drift_checkpoint": Case(
        _alternate(PRIVATE_CODES * 10, ("drifting",)),
        (
            ("run", 3), ("depart", (0, 1)), ("arrive", 2), ("checkpoint",), ("run", 4),
            ("collect",),
        ),
        n_initial=8,
        seed=5,
    ),
    # collection rounds: modes, refusals, budgets, corruption
    "collect_modes": Case(
        (M("code_linucb", PRIVATE), M("linucb", NONPRIVATE), M("linucb")) * 10,
        _runs(12) + (("collect",),),
        p=0.7,
    ),
    "collect_centroid": Case(
        (M("linucb", PRIVATE, context="centroid"),) * 30, _runs(12) + (("collect",),), p=0.7
    ),
    "no_participation": Case(PRIVATE_CODES * 12, _runs(12) + (("collect",),), p=0.0),
    "budget_exhausted": Case(
        PRIVATE_CODES * 12, _runs(12) + (("collect",),), p=0.95, max_reports=1
    ),
    "window_beyond_horizon": Case(
        PRIVATE_CODES * 12, _runs(6, 6) + (("collect",),), p=0.9, window=40
    ),
    "two_runners_before_collect": Case(
        PRIVATE_CODES * 12, (("other", 7), ("other", 6), ("collect",)),
        window=5, max_reports=4, threshold=1,
    ),
    "scalar_rows_around_fleet_rows": Case(
        PRIVATE_CODES * 6,
        (("scalar", (0,), 4), ("run", 7), ("scalar", (0,), 5), ("collect",)),
        p=0.95,
        window=2,
        max_reports=20,
        threshold=1,
    ),
    "replay_collect": Case(
        _alternate(PRIVATE_CODES * 20, ("multilabel",)), _runs(10) + (("collect",),),
        threshold=1, seed=5,
    ),
    "corrupted_collect": Case(
        PRIVATE_CODES * 12, _runs(9) + (("collect",),), p=0.7, faults=FAULTS
    ),
    "corrupted_async": Case(
        PRIVATE_CODES * 10,
        _runs(9) + tuple(("collect_async", (i,)) for i in range(10)) + (("flush",),),
        p=0.7,
        faults="seed=6;corrupt=1.0;corrupt_frac=0.25",
        seed=1,
    ),
    "corrupted_worker_grid": Case(
        SHARDS + MIXED, _runs(12) + (("collect",),), p=0.9, faults=FAULTS
    ),
    # the fast tier: bands for kinds with a fast stacker, bitwise for the rest
    "fast_mixed": Case(
        (M("linucb"), M("code_linucb", PRIVATE), M("ucb1"), M("thompson", NONPRIVATE)) * 5,
        _runs(12) + (("collect",),) + _runs(12),
        exactness="fast",
    ),
    "fast_churn_and_crash": Case(
        (M("linucb"), M("epsilon_greedy")) * 8,
        (("run", 6), ("depart", (1, 2)), ("arrive", 4), ("run", 6), ("crash", 12, 5, 2)),
        n_initial=12,
        exactness="fast",
    ),
    "fast_worker_grid": Case(SHARDS, (("crash", 12, 5, 2),), exactness="fast", seed=5),
}


@pytest.mark.parametrize("n_workers", WORKERS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_case(name, n_workers):
    check(CASES[name], n_workers)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_exercises_its_collection(name):
    """A named case's collections are not vacuous in the spec: reports
    reach them unless participation is off or no window ever closes, and
    an armed plan quarantines."""
    case = CASES[name]
    outcome = spec_outcome(case)
    rounds = [r for op, records in outcome.ops if op.startswith("collect") for r in records]
    longest = max(m["counters"][0] for m in outcome.members)
    if rounds and case.p > 0 and longest >= case.window:
        assert sum(r.n_reports for r in rounds) > 0
    if case.faults is not None:
        assert outcome.systems[PRIVATE]["quarantined"] > 0


# ---------------------------------------------------------------------- #
# the table reaches every axis of the harness
def _reached(axis):
    members = [m for case in CASES.values() for m in case.members]
    private = [m for m in members if m.mode == PRIVATE]
    return {
        "op": {op[0] for case in CASES.values() for op in case.ops},
        "kind": {m.kind for m in members},
        "mode": {m.mode for m in members},
        "session": {m.session for m in members},
        "context": {m.context for m in private},
        "encoder": {m.encoder for m in private},
        "exactness": {case.exactness for case in CASES.values()},
    }[axis]


AXES = (
    [("op", name[3:]) for name in vars(_Side) if name.startswith("op_")]
    + [("kind", kind) for kind in KINDS]
    + [("mode", mode) for mode in (COLD, NONPRIVATE, PRIVATE)]
    + [("session", session) for session in ENVIRONMENTS]
    + [("context", context) for context in ("one-hot", "centroid")]
    + [("encoder", name) for name in ("kmeans", "twin", "small", "lsh", "grid")]
    + [("exactness", tier) for tier in ("bit", "fast")]
)


@pytest.mark.parametrize("axis,value", AXES, ids=[f"{a}-{v}" for a, v in AXES])
def test_table_reaches(axis, value):
    """Every op, policy kind, mode, session kind, private context,
    codebook and tier appears in some named case: the tier-1 table never
    leaves an axis to the fuzzer alone (encoders and contexts count on
    private members only, the ones that use them)."""
    assert value in _reached(axis)


# ---------------------------------------------------------------------- #
# the comparison sees every field of an outcome
#: one small case whose outcome fills every field: linear and Thompson
#: policies, a drifting session, reporting members with rows still pending,
#: a collection that releases and quarantines
SENSOR = Case(
    (M("code_linucb", PRIVATE), M("linucb", NONPRIVATE), M("thompson", PRIVATE),
     M("epsilon_greedy", COLD, "drifting")) * 2,
    _runs(8) + (("collect",),) + _runs(4),
    p=1.0,
    window=2,
    max_reports=6,
    threshold=1,
    faults=FAULTS,
    seed=4,
)

#: a field of ``Outcome`` (its path under ``assert_same``'s ``outcome``) and
#: the outcome position it lives at
FIELDS = {
    "ops[0][1].rewards": ("ops", 0, 1, "rewards"),
    "ops[0][1].actions": ("ops", 0, 1, "actions"),
    "ops[0][1].expected": ("ops", 0, 1, "expected"),
    "ops[0][1].mask": ("ops", 0, 1, "mask"),
    "ops[1][1]": ("ops", 1, 1),
    "members[0].policy": ("members", 0, "policy"),
    "members[1].theta": ("members", 1, "theta"),
    "members[2].draws": ("members", 2, "draws"),
    "members[3].policy_rng": ("members", 3, "policy_rng"),
    "members[3].session_rng": ("members", 3, "session_rng"),
    "members[3].session": ("members", 3, "session"),
    "members[0].counters": ("members", 0, "counters"),
    "members[0].participation": ("members", 0, "participation"),
    "members[0].rows": ("members", 0, "rows"),
    "members[1].rows": ("members", 1, "rows"),
    "systems.warm-private.released": ("systems", PRIVATE, "released"),
    "systems.warm-private.server": ("systems", PRIVATE, "server"),
    "systems.warm-private.ingested": ("systems", PRIVATE, "ingested"),
    "systems.warm-private.quarantined": ("systems", PRIVATE, "quarantined"),
    "systems.warm-private.privacy": ("systems", PRIVATE, "privacy"),
    "systems.warm-nonprivate.pending": ("systems", NONPRIVATE, "pending"),
}


def _nudged(x):
    """A copy of ``x`` with its first changeable leaf changed by the least
    step of its type, or ``None`` when it holds none."""
    if isinstance(x, np.ndarray):
        if x.size == 0 or x.dtype.kind not in "biuf":
            return None
        y = x.copy()
        flat = y.reshape(-1)
        if y.dtype.kind == "b":
            flat[0] = not flat[0]
        elif y.dtype.kind == "f":
            flat[0] = np.nextafter(flat[0], np.inf)
        else:
            flat[0] += 1
        return y
    if isinstance(x, (bool, np.bool_)):
        return type(x)(not x)
    if isinstance(x, (int, np.integer)):
        return type(x)(x + 1)
    if isinstance(x, (float, np.floating)):
        return type(x)(np.nextafter(x, np.inf))
    if isinstance(x, str):
        return x + "!"
    if isinstance(x, bytes):
        return x + b"!"
    if isinstance(x, dict):
        for key, value in x.items():
            if (new := _nudged(value)) is not None:
                return {**x, key: new}
    elif isinstance(x, (list, tuple)):
        for k, value in enumerate(x):
            if (new := _nudged(value)) is not None:
                return type(x)([*x[:k], new, *x[k + 1 :]])
    elif dataclasses.is_dataclass(x) and not isinstance(x, type):
        for field in dataclasses.fields(x):
            if (new := _nudged(getattr(x, field.name))) is not None:
                return dataclasses.replace(x, **{field.name: new})
    return None


def _replaced(node, where):
    """``node`` with the leaf at path ``where`` nudged (containers along
    the path are changed in place, tuples rebuilt)."""
    if not where:
        new = _nudged(node)
        assert new is not None, "the field holds nothing to compare"
        return new
    key, rest = where[0], where[1:]
    if isinstance(node, tuple):
        return tuple(_replaced(v, rest) if k == key else v for k, v in enumerate(node))
    node[key] = _replaced(node[key], rest)
    return node


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_assert_equivalent_sees(field):
    """Changing one field of the spec's outcome by its least step makes
    :func:`assert_equivalent` fail, naming that field: the comparison is
    bitwise on everything it promises to compare."""
    spec = spec_outcome(SENSOR)
    assert_equivalent(SENSOR, spec, copy.deepcopy(spec))
    with pytest.raises(AssertionError, match=re.escape(f"outcome.{field}")):
        got = copy.deepcopy(spec)
        where = FIELDS[field]
        setattr(got, where[0], _replaced(getattr(got, where[0]), where[1:]))
        assert_equivalent(SENSOR, spec, got)


# ---------------------------------------------------------------------- #
# the table catches a broken fleet
def _recompiled(func, old, new):
    """``func`` compiled from its source with the single occurrence of
    ``old`` replaced by ``new``, in its module's namespace."""
    func = inspect.unwrap(func)
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{func.__qualname__}: {old!r} is not in its source"
    namespace = dict(vars(sys.modules[func.__module__]))
    exec(compile(source.replace(old, new), inspect.getsourcefile(func), "exec"), namespace)
    return namespace[func.__name__]


MUTANTS = {
    # stacked LinUCB never counts an arm
    "arm_counts": (
        "between_runs_checkpoint", (StackedLinUCB, "update"),
        "self.arm_counts[np.arange(self.n), actions] += 1", "pass",
    ),
    # a held shard steps its stack after a second runner took its members
    # and a member's policy object was replaced
    "reuse": (
        "outside_changes", (FleetRunner, "_build_shard"),
        "reuse = shard.stacked.holds([a.policy for a in shard.agents])", "reuse = True",
    ),
    # subset rows come back in population, not subset, order
    "subset": (
        "outside_changes", (FleetRunner, "run_subset"),
        "enumerate(idx)", "enumerate(sorted(idx))",
    ),
    # a shard that loses members keeps its old report-log rows
    "churn": (
        "churn_private", (_Shard, "leave"),
        '"_log_of", "_log_rows")', '"_log_of")',
    ),
    # held stacks never load a warm-start state
    "warm_start": (
        "warm_held_stacks", (FleetRunner, "_warm_start"),
        "shard.stacked.load_state(state)", "pass",
    ),
    # a resumed run drops the rewards of the segments before the crash
    "resume": (
        "crash_mid_horizon", (FleetRunner, "_run_checkpointed"),
        "parts_r = [] if prefix is None else [prefix.rewards]", "parts_r = []",
    ),
    # drained report rows of one agent lose their order
    "corruption": (
        "corrupted_collect", (payload, "drain_report_batches"),
        'kind="stable"', 'kind="quicksort"', system,
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_table_catches(mutant, monkeypatch):
    """Each mutant of the fleet's paths (arm counting, shard reuse, subset
    order, churn, warm start, resume, report draining) makes its named
    case fail, while the same source recompiled unmutated passes: both
    sides play under the mutant, as a mutated checkout would."""
    name, (owner, attr), old, new, *importers = MUTANTS[mutant]
    case, engine, func = CASES[name], EngineConfig(n_workers=1), getattr(owner, attr)

    def patch(replacement):
        for target in (owner, *importers):  # a module-level function: where it is imported too
            monkeypatch.setattr(target, attr, _recompiled(func, old, replacement))

    patch(old)
    assert_equivalent(case, play(case), play(case, engine))
    patch(new)
    with pytest.raises(AssertionError):
        assert_equivalent(case, play(case), play(case, engine))


# ---------------------------------------------------------------------- #
# the same contract, fuzzed
@st.composite
def members(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    if kind == "code_linucb":  # needs one-hot codes
        mode, context = PRIVATE, "one-hot"
    else:
        mode = draw(st.sampled_from([COLD, NONPRIVATE, PRIVATE]))
        context = draw(st.sampled_from(["one-hot", "centroid"]))
    enc = draw(st.sampled_from(["kmeans", "twin", "small"]))
    return Member(kind, mode, draw(st.sampled_from(sorted(ENVIRONMENTS))), context, enc)


@st.composite
def cases(draw):
    """A random population mix and a random valid schedule over it."""
    population = tuple(draw(st.lists(members(), min_size=1, max_size=8)))
    n_initial = live = draw(st.integers(1, len(population)))
    waiting = len(population) - live
    steps = st.integers(1, 6)
    # a central model warm-starts every member only if they share its shape
    one_shape = len({(m.kind, m.dim) for m in population}) == 1
    ops = []
    for _ in range(draw(st.integers(1, 5))):
        names = ["run", "other", "scalar", "checkpoint", "crash", "collect", "flush"]
        names += ["subset", "collect_async", "depart", "new_policy"] if live else []
        names += ["arrive"] if waiting else []
        names += ["warm_run", "warm_start"] if one_shape and live else []
        name = draw(st.sampled_from(names))
        positions = st.lists(st.integers(0, max(live - 1, 0)), min_size=1, unique=True)
        if name in ("run", "other"):
            ops.append((name, draw(steps)))
        elif name == "warm_run":
            ops.append(("run", draw(steps), "central"))
        elif name == "warm_start":
            ops.append((name, "central"))
        elif name in ("subset", "scalar"):
            ops.append((name, tuple(draw(positions)) if live else (), draw(steps)))
        elif name == "crash":
            n = draw(steps)
            ops.append((name, n, draw(st.integers(1, n)), draw(st.integers(2, 4))))
        elif name == "collect_async":
            ops.append((name, tuple(draw(positions))))
        elif name == "depart":
            gone = tuple(draw(positions))
            ops.append((name, gone))
            live -= len(gone)
        elif name == "new_policy":
            ops.append((name, draw(st.integers(0, live - 1))))
        elif name == "arrive":
            k = draw(st.integers(1, waiting))
            ops.append((name, k))
            live, waiting = live + k, waiting - k
        else:
            ops.append((name,))
    # the fast tier is bitwise only for kinds without a fast stacker
    fast_ok = all(m.kind not in FAST_KINDS for m in population)
    return Case(
        population,
        tuple(ops),
        n_initial=n_initial,
        seed=draw(st.integers(0, 2**31 - 1)),
        p=draw(st.sampled_from([0.0, 0.6, 1.0])),
        window=draw(st.integers(1, 5)),
        threshold=draw(st.integers(1, 3)),
        exactness=draw(st.sampled_from(["bit", "fast"] if fast_ok else ["bit"])),
        shared_log=draw(st.booleans()),
        faults=draw(st.sampled_from([None, "seed=2;corrupt=0.5;corrupt_frac=0.5"])),
    )


@given(cases(), st.sampled_from(WORKERS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_case(case, n_workers):
    check(case, n_workers)
