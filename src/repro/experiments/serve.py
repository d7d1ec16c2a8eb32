"""A hot serving loop over one held fleet (`repro-p2b serve`).

The paper's deployment (Fig. 1) is a long-running service, not a batch
job: devices come and go, preferences drift, and reports trickle in on
per-device clocks.  :class:`FleetService` packages that regime behind a
request-oriented API —

* the population lives on one :class:`~repro.sim.FleetRunner` whose
  stacked per-shard state stays warm between requests (no restack per
  batch; the runner's shard-reuse rule decides what is reused);
* :meth:`arrive` / :meth:`depart` churn the population with incremental
  re-sharding, preserving every surviving agent's RNG streams;
* :meth:`interact` answers one batch score/update request (each step
  scores a context and updates the local policy — the serving
  analogue of one fleet round);
* :meth:`collect` / :meth:`flush` run asynchronous collection through
  the shuffler's threshold-fill buffer
  (:meth:`~repro.core.system.P2BSystem.collect_async`);
* :meth:`refresh` redistributes the central model (the Fig. 1 "model
  update" arrow).

``benchmarks/bench_serve.py`` drives this loop end-to-end and records a
requests-per-second number in ``BENCH_serve.json``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass
from typing import Sequence

from ..core.agent import LocalAgent
from ..core.config import AgentMode, P2BConfig
from ..core.system import CollectionResult, P2BSystem
from ..data.environment import Environment
from ..sim import EngineConfig, FleetResult, FleetRunner
from ..utils.exceptions import ConfigError, ServiceError, ServiceTimeout
from ..utils.rng import spawn_seeds
from ..utils.validation import check_positive_int

__all__ = ["FleetService", "ServeStats"]


@dataclass(frozen=True)
class ServeStats:
    """Lifetime counters for one :class:`FleetService` (a snapshot)."""

    n_requests: int  #: interact() calls answered
    n_interactions: int  #: total agent-steps across all requests
    n_arrived: int  #: agents enrolled over the service lifetime
    n_departed: int  #: agents retired over the service lifetime
    n_agents: int  #: current population size
    n_reports: int  #: reports drained into collection
    n_released: int  #: tuples released to the server
    n_pending: int  #: tuples still buffered in the shuffler
    n_dropped_shards: int = 0  #: shards degraded out by skip_shard retries
    n_quarantined: int = 0  #: malformed tuples refused at the shuffler


class FleetService:
    """Keep a fleet hot and answer batch score/update requests.

    Parameters
    ----------
    config:
        Deployment parameters (:class:`~repro.core.config.P2BConfig`).
    env:
        Workload supplying user sessions — pass a
        :class:`~repro.data.DriftingSyntheticEnvironment` for
        non-stationary traffic.
    engine:
        Optional :class:`~repro.sim.EngineConfig` bundling the fleet
        knobs (its fields document them).
        ``engine="sequential"`` is rejected — the service *is* the hot
        fleet — and ``sink`` must be ``None`` (requests
        return their results directly).  ``sweep_workers`` is
        normalized to 1: there is no sweep here, just one held
        population (a process-wide default config with sweep
        parallelism stays valid for serving).  ``None`` uses the
        session default
        (:func:`~repro.experiments.runner.get_default_config`).
    mode:
        Agent wiring, one of :class:`~repro.core.config.AgentMode`
        (default warm-private, the paper's full pipeline).
    seed:
        Root seed; agent streams come from the system's own root, so a
        fixed arrival order reproduces bit-identically.
    request_timeout:
        Optional per-request wall-clock budget in seconds.  A request
        exceeding it raises
        :class:`~repro.utils.exceptions.ServiceTimeout` to the caller
        while the work drains on a background thread; until it
        finishes the service reports ``degraded`` (see :meth:`status`)
        and refuses new requests with
        :class:`~repro.utils.exceptions.ServiceError` — the population
        state is mid-request and a concurrent request would race it.
        ``None`` (default) runs requests inline with no budget.
    """

    def __init__(
        self,
        config: P2BConfig,
        env: Environment,
        *,
        engine: EngineConfig | None = None,
        mode: str = AgentMode.WARM_PRIVATE,
        seed=None,
        request_timeout: float | None = None,
    ) -> None:
        if engine is None:
            from .runner import get_default_config

            engine = get_default_config()
        if not isinstance(engine, EngineConfig):
            raise ConfigError(
                f"engine must be an EngineConfig or None, got {engine!r}"
            )
        if engine.engine == "sequential":
            raise ConfigError(
                "engine='sequential' is not servable: FleetService keeps a "
                "hot fleet (use run_setting for sequential runs)"
            )
        if engine.sink is not None:
            raise ConfigError(
                "EngineConfig.sink is not supported by FleetService; "
                "interact() returns its results directly"
            )
        if engine.sweep_workers != 1:
            engine = engine.replace(sweep_workers=1)
        if request_timeout is not None:
            request_timeout = float(request_timeout)
            if request_timeout <= 0:
                raise ConfigError(
                    f"request_timeout must be positive seconds or None, "
                    f"got {request_timeout}"
                )
        self.env = env
        self.engine = engine
        self.request_timeout = request_timeout
        sys_seed, self._session_root = spawn_seeds(seed, 2)
        self.system = P2BSystem(config, mode=mode, seed=sys_seed)
        # population starts empty: arrivals build it up request by request
        self.fleet = FleetRunner([], [], config=engine)
        self._n_requests = 0
        self._n_interactions = 0
        self._n_arrived = 0
        self._n_departed = 0
        self._n_reports = 0
        self._n_released = 0
        self._n_dropped_shards = 0
        self._inflight = 0  # timed-out requests still draining in background
        self._closed = False
        self._executor: ThreadPoolExecutor | None = None  # lazy, timeout only

    # ------------------------------------------------------------------ #
    @property
    def n_agents(self) -> int:
        """Current population size."""
        return len(self.fleet.agents)

    @property
    def stats(self) -> ServeStats:
        """Snapshot of the service's lifetime counters."""
        return ServeStats(
            n_requests=self._n_requests,
            n_interactions=self._n_interactions,
            n_arrived=self._n_arrived,
            n_departed=self._n_departed,
            n_agents=self.n_agents,
            n_reports=self._n_reports,
            n_released=self._n_released,
            n_pending=self.system.n_pending_reports,
            n_dropped_shards=self._n_dropped_shards,
            n_quarantined=self._n_quarantined(),
        )

    def _n_quarantined(self) -> int:
        shuffler = self.system.shuffler
        return 0 if shuffler is None else shuffler.total_quarantined

    # ------------------------------------------------------------------ #
    # health, timeouts, shutdown
    def status(self) -> dict:
        """One health snapshot (the serving analogue of a health endpoint).

        ``state`` is ``"ok"``; ``"degraded"`` when a timed-out request
        is still draining or shards have been dropped by a
        ``skip_shard`` fault policy (the service keeps answering, on
        partial capacity); or ``"closed"`` after :meth:`shutdown`.
        """
        if self._closed:
            state = "closed"
        elif self._inflight or self._n_dropped_shards:
            state = "degraded"
        else:
            state = "ok"
        return {
            "state": state,
            "n_agents": self.n_agents,
            "inflight": self._inflight,
            "n_pending_reports": self.system.n_pending_reports,
            "n_dropped_shards": self._n_dropped_shards,
            "n_quarantined": self._n_quarantined(),
        }

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError(
                "service is shut down: no further requests are accepted"
            )

    def _guarded(self, fn, *args, **kwargs):
        """Run one request body under the per-request timeout (if any).

        On timeout the work keeps draining on the background thread —
        aborting it mid-shard could tear population state — and the
        service refuses further requests until it completes.
        """
        if self.request_timeout is None:
            return fn(*args, **kwargs)
        if self._inflight:
            raise ServiceError(
                "service is degraded: a timed-out request is still draining "
                "(see status()); retry once it completes"
            )
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="fleet-serve"
            )
        self._inflight += 1
        future = self._executor.submit(fn, *args, **kwargs)
        future.add_done_callback(self._request_done)
        try:
            return future.result(timeout=self.request_timeout)
        except _FutureTimeout:
            raise ServiceTimeout(
                f"request exceeded the {self.request_timeout:g}s budget and "
                "is draining in the background; the service reports "
                "degraded until it finishes"
            ) from None

    def _request_done(self, _future) -> None:
        self._inflight -= 1

    def shutdown(self) -> CollectionResult:
        """Graceful shutdown: drain outboxes, flush the buffer, close.

        Every pending report is collected asynchronously and the
        shuffler's threshold-fill buffer is flushed (stragglers whose
        crowd never arrived are dropped), so nothing a device already
        handed over is silently lost.  Idempotent — repeated calls
        return an empty result.  After shutdown every request raises
        :class:`~repro.utils.exceptions.ServiceError`.
        """
        if self._closed:
            return CollectionResult(n_reports=0, n_released=0, shuffler_stats=None)
        self._closed = True
        if self._executor is not None:
            # a timed-out request may still be mutating population state:
            # join it before draining (graceful, not abrupt)
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        drained = self.system.collect_async(self.fleet.agents)
        flushed = self.system.flush_async()
        self._n_reports += drained.n_reports
        self._n_released += drained.n_released + flushed.n_released
        return CollectionResult(
            n_reports=drained.n_reports,
            n_released=drained.n_released + flushed.n_released,
            shuffler_stats=flushed.shuffler_stats or drained.shuffler_stats,
        )

    # ------------------------------------------------------------------ #
    # population churn
    def arrive(self, n: int = 1) -> list[LocalAgent]:
        """Enroll ``n`` fresh devices (warm-started when possible).

        Agent RNG streams come from the system's agent root and session
        streams from the service's session root — both in arrival
        order — so a fixed arrival schedule reproduces bit-identically
        regardless of what requests ran in between.
        """
        self._check_open()
        check_positive_int(n, name="n")
        snapshot = None
        if self.system.server is not None and self.system.server.n_tuples_ingested:
            snapshot = self.system.model_snapshot()
        arrivals: list[LocalAgent] = []
        sessions = []
        for session_seed in spawn_seeds(self._session_root, n):
            agent = self.system.new_agent()
            if snapshot is not None:
                agent.warm_start(snapshot)
            arrivals.append(agent)
            sessions.append(self.env.new_user(session_seed))
        self.fleet.add_agents(arrivals, sessions)
        self._n_arrived += n
        return arrivals

    def depart(self, agents: Sequence[LocalAgent | int]) -> CollectionResult:
        """Retire devices, collecting their last reports on the way out.

        A departing device's unsent reports are drained into the
        asynchronous buffer *before* removal, so tuples whose crowd has
        not yet filled keep waiting for crowd-mates that arrive after
        the reporter is gone.  ``agents`` holds what
        :meth:`~repro.sim.FleetRunner.member_indices` accepts, so an
        unknown, out-of-range or repeated member raises
        :class:`~repro.utils.exceptions.ConfigError` before anything is
        collected.  Returns that collection's result.
        """
        self._check_open()
        departing = [self.fleet.agents[i] for i in self.fleet.member_indices(agents)]
        outcome = self.system.collect_async(departing)
        self.fleet.remove_agents(departing)
        self._n_departed += len(departing)
        self._n_reports += outcome.n_reports
        self._n_released += outcome.n_released
        return outcome

    # ------------------------------------------------------------------ #
    # requests
    def interact(
        self,
        n_steps: int,
        subset: Sequence[LocalAgent | int] | None = None,
    ) -> FleetResult | None:
        """Answer one batch request: ``n_steps`` score/update rounds.

        The full population runs on the hot fleet.  A ``subset``
        (devices on their own clocks) runs through
        :meth:`~repro.sim.FleetRunner.run_subset` on the *same* fleet —
        full-cover shards reuse their warm stacked
        state instead of restacking per request (bit-identical to an
        ephemeral rebuild; ``tests/experiments/test_serve.py`` pins
        it) — so mixed full/subset request streams compose.  Returns
        the batch's :class:`~repro.sim.FleetResult` (empty shapes for
        an empty population).
        """
        self._check_open()
        self._n_requests += 1
        if subset is None:
            result = self._guarded(self.fleet.run, n_steps)
            self._n_interactions += self.n_agents * n_steps
        else:
            subset = list(subset)
            result = self._guarded(self.fleet.run_subset, subset, n_steps)
            self._n_interactions += len(subset) * n_steps
        if result is not None and result.dropped:
            self._n_dropped_shards += len(result.dropped)
        return result

    # ------------------------------------------------------------------ #
    # asynchronous collection and model distribution
    def collect(self) -> CollectionResult:
        """Drain every outbox into the async buffer; release what's ready."""
        self._check_open()
        outcome = self._guarded(self.system.collect_async, self.fleet.agents)
        self._n_reports += outcome.n_reports
        self._n_released += outcome.n_released
        return outcome

    def flush(self) -> CollectionResult:
        """End-of-deployment release: drop tuples whose crowd never came."""
        self._check_open()
        outcome = self.system.flush_async()
        self._n_released += outcome.n_released
        return outcome

    def refresh(self) -> None:
        """Push the current central model to every device (Fig. 1 arrow).

        ``warm_start`` replaces every policy's arrays, so by the
        :class:`~repro.sim.FleetRunner` shard-reuse rule the next request
        restacks the policy state (and keeps the encoding caches).
        """
        self._check_open()
        if self.system.server is None or not self.system.server.n_tuples_ingested:
            return
        snapshot = self.system.model_snapshot()
        for agent in self.fleet.agents:
            agent.warm_start(snapshot)
