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
final policy states, same outbox reports and released histograms —
whenever:

1. every agent's policy has ``supports_fleet = True`` (the policy
   routes all float math through :mod:`repro.bandits.kernels`, whose
   einsum contractions accumulate identically with or without a
   batched leading axis — the reason the scalar policies avoid BLAS
   ``@``) and therefore reports a non-``None``
   :meth:`~repro.bandits.base.BanditPolicy.fleet_key`;
2. randomness is per-agent: each agent's policy / participation /
   session generators are independent streams (the ``spawn_seeds``
   tree), so stepping a shard round-major instead of agent-major
   consumes every stream in the same within-agent order.

Homogeneity is **not** a condition: heterogeneous populations are
partitioned into *shards* by :func:`~repro.sim.fleet.shard_key` —
(mode, private-context, codebook size, policy kind and
hyperparameters) — and each shard runs on its own stacked state.
Execution is shard-major: one function runs a shard's whole horizon,
mapped over the shards serially or on a thread pool.  Because condition 2 makes
agent order unobservable, shard order is too, and the mixed run stays
bit-identical to the sequential reference.  Policies whose selection *consumes* randomness join the
contract by defining their draw order — Thompson sampling draws
arm-major per selection, so :class:`~repro.sim.stacked.StackedThompson`
batches the O(d²) Cholesky/scoring math while drawing each agent's
posterior normals from that agent's own generator.

Per-round *session* calls additionally vanish for shards whose
sessions advertise a plan capability (class flags on
:class:`~repro.data.environment.UserSession`): ``has_reward_plan``
sessions (synthetic, stationary or drifting) plan their whole run in
one ``plan_rewards`` call each — pre-realized reward noise, one segment
per stationary stretch, the means of every segment computed in one
batched call per environment — and warm-private shards
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

The *reporting* pipeline is columnar on the same plan-capable shards:
participation advances through
:class:`~repro.core.participation.StackedParticipation` (vectorized
window/budget masks; the Bernoulli coin and within-window index still
drawn from each agent's own generator in the scalar ``offer`` order),
and reports land in a struct-of-arrays
:class:`~repro.core.payload.ReportLog` instead of per-report objects —
codes gathered from the plan-time batch encodings, never re-encoded.
Agent outboxes hold lightweight markers that materialize into the
exact scalar report objects on access, while
:meth:`~repro.core.system.P2BSystem.collect` flows the columns
straight through ``Shuffler.process_arrays`` into
``ingest_arrays`` — the same released tuples, stats and audit as the
object path, with no payload object ever built on the fast path.

Because shards share no mutable state and never synchronize,
``EngineConfig(n_workers=k)`` runs each shard's whole horizon as one
concurrent task on a thread pool — again without leaving the contract:
shard order is unobservable, so parallel results are identical to
serial ones.

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
``exactness``, ``sink``, ``fault_policy`` and
``sweep_workers`` — is a field of one frozen
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
from .faults import (
    FAULTS_ENV_VAR,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
)
from .fleet import (
    ENGINES,
    DroppedShard,
    EngineConfig,
    FaultPolicy,
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
    "FaultPolicy",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "DroppedShard",
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
