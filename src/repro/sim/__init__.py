"""Fleet simulation engine: vectorized, sharded population stepping.

The paper's evaluation (§5) simulates *populations* of on-device
agents — including mixtures of configurations (warm/cold,
private/non-private, different policies).  The reference implementation
drives each agent through a per-interaction Python loop
(``_simulate_agent`` in :mod:`repro.experiments.runner`); this package
provides the scaled equivalent — :class:`~repro.sim.fleet.FleetRunner`
steps the whole population per round on stacked numpy state
(:mod:`repro.sim.stacked`), turning ``O(n_agents)`` Python/numpy call
overhead per interaction into a handful of batched kernel calls per
round.

The sequential-vs-fleet contract
--------------------------------

The sequential loop **is the specification**; the fleet engine is an
optimization that must be observationally identical.  Results are
guaranteed *bit-identical* — same action sequences, same rewards, same
final policy states, same pending report rows and released histograms —
whenever:

1. every agent's policy has ``supports_fleet = True`` (the policy
   routes all float math through :mod:`repro.bandits.kernels`, whose
   einsum contractions accumulate identically with or without a
   batched leading axis — the reason the scalar policies avoid BLAS
   ``@``) and therefore reports a non-``None``
   :meth:`~repro.bandits.base.BanditPolicy.fleet_key`;
2. randomness is per-agent.  Tie-breaks, exploration coins,
   participation coins and synthetic reward noise are *keyed* draws
   (:mod:`repro.bandits.keyed`): a stateless ``uint64`` hash of the
   agent's (or session's) key, drawn once from its generator (the
   ``spawn_seeds`` tree), a stream id and a draw counter, which
   advances once per ``select`` (per coin for participation, per
   realized reward for a synthetic session) on both engines.  Integer
   arithmetic does not depend on array shape, and neither do the numpy
   ufuncs that turn two uniforms into a normal, so the sequential loop
   evaluating a draw on a length-1 array and the fleet on a
   length-``n`` (or ``(n, T)``) array agree bitwise by construction.
   Thompson's posterior normals are keyed the same way, ``A`` per
   ``select`` (one per arm, at the select's counter).  Drift boundaries
   and dataset walks stay on per-agent generators, so stepping a shard
   round-major instead of agent-major consumes every stream in the same
   within-agent order.

Homogeneity is **not** a condition: heterogeneous populations are
partitioned into *shards* by :func:`~repro.sim.fleet.shard_key` —
(mode, private-context, codebook size, policy kind and
hyperparameters) — and each shard runs on its own stacked state.
Execution is shard-major: one function runs a shard's whole horizon,
mapped over the shards serially or on a thread pool.  Because condition 2 makes
agent order unobservable, shard order is too, and the mixed run stays
bit-identical to the sequential reference.  Thompson sampling draws
each arm's score from its posterior with one keyed normal per arm, so
:class:`~repro.sim.stacked.StackedThompson` evaluates the same scoring
expression on ``(n, A)`` arrays, with no per-agent loop.

Per-round *session* calls additionally vanish for shards whose
sessions advertise a plan capability (class flags on
:class:`~repro.data.environment.UserSession`): ``has_reward_plan``
sessions (synthetic, stationary or drifting) plan their whole run in
one :meth:`~repro.data.environment.Environment.plan_block` call per
environment — the ``(n, T)`` keyed reward noise in one array
expression, one segment per stationary stretch (a drifting session's
epoch boundaries walked inside the call), the means of every segment
computed in one batched call per environment — and warm-private shards
over them encode every new segment context in one row-exact
:meth:`Encoder.encode_batch` call per encoder (centroids through the
equally row-exact ``decode_batch``), and
``has_trace_plan`` sessions (dataset replay: multilabel, Criteo)
pre-materialize their walk of dataset rows — both by contract exact
stand-ins for the
sequential calls (same values, same generator consumption, session
left in the same state), so the fast paths stay inside the
bit-identity guarantee.  A shard mixing plan-capable and plan-less
sessions falls back to per-round session stepping, still
bit-identical.

Traced plans have one form, the **shared row table**: the shard keeps
one row-index walk per agent and gathers contexts, rewards and
plan-time encodings through the per-dataset
:class:`~repro.data.environment.TraceRowTable` its sessions share — or,
when they walk several datasets, through one shard-private
concatenation of those tables.  Traced-plan memory is A-fold below a
per-agent table, and each distinct row is encoded at most once per
encoder.  A run plans its whole horizon once (a drifting session as
one segment per epoch); slice-by-slice planning is exact by the plan
contract, so consecutive runs on one held fleet equal one longer
horizon bitwise.

The *reporting* pipeline is columnar on every shard: participation
advances through :class:`~repro.core.participation.StackedParticipation`
(vectorized window/budget masks, and the Bernoulli coin and
within-window pick as one keyed draw over every agent whose window
opens; a window holds one item — its code or context, action and
reward — in held-item columns), and reports land, one chunk per round,
in the agents' system's :class:`~repro.core.payload.ReportLog` — the
one store the sequential engine appends to row by row — with codes
from the batch encodings, never encoded one agent at a time.  Rows are
the only form a report takes.  Collection has one route for every
population: :meth:`~repro.core.system.P2BSystem.collect` takes the
agents' rows with one mask per log and one stable sort on agent
position — the order of concatenated one-agent
``drain_report_batches([agent])`` calls — and flows them through
``Shuffler.process_arrays`` into
``ingest_arrays``, so the released tuples, stats, audit and any armed
corruption tap are the same whichever engine recorded the reports.

Shards share no mutable state but their systems' report logs, and they
never synchronize, so ``EngineConfig(n_workers=k)`` runs each shard's
whole horizon as one concurrent task on a thread pool — again without
leaving the contract: shard order is unobservable, so parallel results
are identical to serial ones.  Pooled shards append to a shared log
without a lock: each agent's rows come from its one shard, in order,
each append is one ``list.append`` of a whole chunk, and the drain
sorts rows by agent.

Held policy state
-----------------

A :class:`~repro.sim.fleet.FleetRunner` holds each shard between runs.
On the bit tier its stacked arrays *are* the members' policy state:
each policy's arrays are views of its stack row, so a writeback hands
back only ``t``, the draw counter and epsilon.  Joins stack only the
newcomers, into spare rows that double when full; departures compact
the shard in place, in member order, encode cache and report-log slots
included.  No two agents' arrays share memory, ``get_state``,
``model_snapshot`` and checkpoints are copies, and a departed policy
gets its own copy before its row is reused (``tests/sim/test_aliasing.py``).
A run that raises leaves its members' arrays mid-run.  The fast tier
copies its float32/COO state out and restacks on any member change.

Held participation state
------------------------

A device's participation state (paper §3.1: its open window's fill
level, coin and pick, the held item as payload, action and reward, its
keyed draw counter and report budget) and an agent's lifetime counters
are one row each of :mod:`repro.core.columns` stores that the scalar
objects read and write.  A device outside any fleet holds a private
one-row store, as a hand-built agent holds a private one-row report
log.  A held shard binds its members' rows once, with its policy
stack's membership machinery: a join appends the newcomers' rows into
spare rows, a departure compacts in member order, re-points the members
that moved and gives each departed member its own copy of its row.  So
a run neither adopts nor writes back this state, and a scalar
``record_interaction`` between runs — the one-row form of the same
transition — writes the row the next run steps.  A member another shard
took since (a second runner, a partial-shard subset run) makes the held
shard gather every member's row afresh, a copy: no two agents share a
row (``tests/sim/test_aliasing.py``).

Exactness tiers
---------------

Bit-identity is the default **contract tier** (``exactness="bit"``),
not the only one.  ``EngineConfig(exactness="fast")`` opts into a
memory-lean tier for the million-agent regime: policy kinds with a
fast stacker — ``code_linucb`` via
:class:`~repro.sim.stacked.StackedCodeLinUCBFast` (float32 sparse
count/sum state: touched ``(agent, arm, code)`` cells only, densifying
per shard when occupancy crosses a threshold) and ``linucb`` via
:class:`~repro.sim.stacked.StackedLinUCBFast` (float32 dense
posteriors with incremental UCB) — hold memory-lean state, and
curve-only callers can stream per-round sums through a
:class:`~repro.experiments.results.ResultSink` instead of
materializing ``(n_agents, T)`` result matrices.  The fast tier's
guarantee is *statistical* equivalence (same math on the same touched
cells up to float32 rounding, which can flip near-exact tie-breaks):
``tests/sim/test_exactness.py`` pins fast-vs-bit curves within
tolerance bands across seeds.  Kinds without a fast stacker run their
bit stacker unchanged, so ``"fast"`` degenerates to ``"bit"`` —
bitwise — for them.

Every engine knob — the engine choice, ``n_workers``,
``exactness``, ``sink`` and ``sweep_workers`` — is a field of one frozen
:class:`~repro.sim.fleet.EngineConfig`, documented there and handed to
``FleetRunner(config=...)`` or to any experiment entry point.

When any condition fails — a policy without fleet support
(``RandomPolicy``) — ``engine="auto"`` callers fall back to the
sequential loop; ``engine="fleet"`` raises.

``tests/sim/`` enforces the contract with seeded equivalence suites
over every supported policy × encoder × mode combination plus mixed
populations (``test_sharding.py``), dataset-replay populations
(``test_replay_plans.py``) and parallel shard stepping
(``test_parallel.py``); ``tests/test_properties.py`` fuzzes it over
random seeds and random synthetic/replay population mixtures.
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    FleetCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from .faults import FAULTS_ENV_VAR, FaultPlan, active_plan
from .fleet import (
    ENGINES,
    EngineConfig,
    FleetResult,
    FleetRunner,
    aggregate_plan_nbytes,
    fleet_supported,
    shard_indices,
    shard_key,
)
from .stacked import (
    EXACTNESS_TIERS,
    StackedCodeLinUCB,
    StackedCodeLinUCBFast,
    StackedEpsilonGreedy,
    StackedLinUCB,
    StackedLinUCBFast,
    StackedPolicies,
    StackedThompson,
    StackedUCB1,
    policies_stackable,
    stack_policies,
)

__all__ = [
    "FleetRunner",
    "FleetResult",
    "EngineConfig",
    "ENGINES",
    "FaultPlan",
    "FleetCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
    "FAULTS_ENV_VAR",
    "active_plan",
    "fleet_supported",
    "shard_key",
    "shard_indices",
    "aggregate_plan_nbytes",
    "EXACTNESS_TIERS",
    "StackedPolicies",
    "StackedLinUCB",
    "StackedLinUCBFast",
    "StackedEpsilonGreedy",
    "StackedThompson",
    "StackedCodeLinUCB",
    "StackedCodeLinUCBFast",
    "StackedUCB1",
    "stack_policies",
    "policies_stackable",
]
