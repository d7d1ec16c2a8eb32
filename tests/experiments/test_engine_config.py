"""EngineConfig: validation, defaults plumbing, and the one carrier path.

Every engine knob lives in one frozen :class:`~repro.sim.EngineConfig`
(re-exported as ``repro.experiments.runner.EngineConfig``).  These
tests pin the contract: construction validates every field, pickled
configs from older releases restore, ``use_config`` scopes the process
default, and — the load-bearing part — every entry point hands exactly
the config it was given to every :class:`~repro.sim.FleetRunner` it
builds.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.config import AgentMode, P2BConfig
from repro.core.rounds import DeploymentLoop
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.experiments import runner
from repro.experiments.results import CurveSink
from repro.experiments.runner import (
    EngineConfig,
    compare_settings,
    run_setting,
    use_config,
)
from repro.experiments.serve import FleetService
from repro.experiments.sweeps import (
    codebook_sweep,
    dimension_sweep,
    participation_sweep,
    population_sweep,
)
from repro.sim import FleetRunner
from repro.utils.exceptions import ConfigError


@pytest.fixture(autouse=True)
def _restore_default_config():
    """Every test leaves the process default as it found it."""
    previous = runner.get_default_config()
    yield
    runner.set_default_config(previous)


@pytest.fixture
def built_runners(monkeypatch):
    """Every FleetRunner constructed while the test runs, in order."""
    seen = []
    real = FleetRunner.__init__

    def recording(self, *args, **kwargs):
        real(self, *args, **kwargs)
        seen.append(self)

    monkeypatch.setattr(FleetRunner, "__init__", recording)
    return seen


def _engine_fields(obj):
    return (obj.n_workers, obj.exactness)


class TestConstruction:
    def test_defaults_reproduce_reference_behavior(self):
        cfg = EngineConfig()
        assert cfg.engine == "auto"
        assert cfg.n_workers == 1
        assert cfg.exactness == "bit"
        assert cfg.sink is None
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "engine",
            "n_workers",
            "exactness",
            "sink",
            "sweep_workers",
        ]

    def test_frozen(self):
        cfg = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.engine = "fleet"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"engine": "warp"},
            {"n_workers": 0},
            {"n_workers": -3},
            {"sweep_workers": 0},
            {"exactness": "approximate"},
        ],
    )
    def test_bad_fields_rejected_at_construction(self, kwargs):
        with pytest.raises((ConfigError, Exception)) as excinfo:
            EngineConfig(**kwargs)
        assert "must be" in str(excinfo.value)

    @pytest.mark.parametrize(
        ("retired_key", "retired_value"),
        [
            ("plan_form", "dense"),
            ("worker_backend", "process"),
            ("kernel_block_size", 7),
            ("plan_chunk_size", 4),
            ("fault_policy", None),
        ],
    )
    def test_pickle_round_trip_drops_retired_keys(self, retired_key, retired_value):
        """A context blob pickled by an older release carries keys of
        knobs that no longer exist; they must not come back as stray
        attributes, while missing newer fields take their defaults."""
        cfg = EngineConfig(engine="fleet", n_workers=3)
        state = dict(cfg.__dict__)
        del state["sweep_workers"]
        state[retired_key] = retired_value
        old = EngineConfig.__new__(EngineConfig)
        old.__setstate__(state)
        assert not hasattr(old, retired_key)
        assert old == cfg
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_blob_pickled_under_runner_path_restores(self):
        """Checkpoint context blobs written while EngineConfig lived in
        ``repro.experiments.runner`` name it by that module path."""
        cfg = EngineConfig(engine="fleet", exactness="fast")
        blob = pickle.dumps(cfg, protocol=0)
        assert b"repro.sim.fleet\nEngineConfig" in blob
        old_blob = blob.replace(b"repro.sim.fleet\n", b"repro.experiments.runner\n")
        assert pickle.loads(old_blob) == cfg

    def test_replace_validates(self):
        cfg = EngineConfig()
        assert cfg.replace(engine="fleet").engine == "fleet"
        with pytest.raises(Exception, match="must be"):
            cfg.replace(engine="warp")

    def test_set_default_config_rejects_non_config(self):
        with pytest.raises(ConfigError, match="EngineConfig"):
            runner.set_default_config({"engine": "fleet"})  # type: ignore[arg-type]

    def test_fleet_runner_rejects_non_config(self):
        with pytest.raises(ConfigError, match="EngineConfig"):
            FleetRunner([], [], config={"n_workers": 2})  # type: ignore[arg-type]


class TestUseConfig:
    def test_scopes_and_restores(self):
        before = runner.get_default_config()
        with use_config(engine="fleet", n_workers=3) as active:
            assert active.engine == "fleet"
            assert active.n_workers == 3
            assert runner.get_default_config() is active
        assert runner.get_default_config() is before

    def test_restores_on_error(self):
        before = runner.get_default_config()
        with pytest.raises(RuntimeError):
            with use_config(engine="sequential"):
                raise RuntimeError("boom")
        assert runner.get_default_config() is before

    def test_accepts_whole_config_plus_overrides(self):
        cfg = EngineConfig(engine="fleet", exactness="fast")
        with use_config(cfg, n_workers=2) as active:
            assert active.engine == "fleet"
            assert active.exactness == "fast"
            assert active.n_workers == 2


def _workload():
    env = SyntheticPreferenceEnvironment(n_actions=4, n_features=6, seed=11)
    config = P2BConfig(
        n_actions=4, n_features=6, n_codes=8, shuffler_threshold=2, window=4
    )
    return env, config


def _env_factory():
    return SyntheticPreferenceEnvironment(n_actions=4, n_features=6, seed=11)


def _make_config(d):
    return P2BConfig(n_actions=4, n_features=d, n_codes=8, shuffler_threshold=2, window=4)


def _run(engine_arg, **kwargs):
    env, config = _workload()
    return run_setting(
        env,
        config,
        AgentMode.WARM_PRIVATE,
        n_contributors=12,
        n_eval_agents=6,
        eval_interactions=8,
        seed=5,
        engine=engine_arg,
        **kwargs,
    )


class TestResolution:
    def test_use_config_equals_explicit_argument(self):
        cfg = EngineConfig(engine="fleet", n_workers=2)
        with use_config(cfg):
            scoped = _run(None)
        explicit = _run(cfg)
        np.testing.assert_array_equal(scoped.curve, explicit.curve)

    def test_engine_name_goes_onto_process_default(self, built_runners):
        with use_config(n_workers=2, exactness="fast"):
            _run("fleet")
        assert len(built_runners) == 2  # contributor + evaluation phase
        for built in built_runners:
            assert (built.n_workers, built.exactness) == (2, "fast")

    def test_compare_settings_accepts_config(self):
        _, config = _workload()
        kwargs = dict(
            n_contributors=10,
            n_eval_agents=5,
            eval_interactions=6,
            seed=5,
        )
        old = compare_settings(_env_factory, config, engine="fleet", **kwargs)
        new = compare_settings(
            _env_factory, config, engine=EngineConfig(engine="fleet"), **kwargs
        )
        for mode in old.results:
            np.testing.assert_array_equal(
                old.results[mode].curve, new.results[mode].curve
            )

    def test_sink_receives_only_the_evaluation_phase(self):
        """The contributor phase runs under the caller's config too, but
        must never stream its rewards into the caller's sink."""

        class CountingSink(CurveSink):
            def __init__(self):
                super().__init__()
                self.runs = []

            def begin(self, n_agents, n_interactions):
                self.runs.append((n_agents, n_interactions))
                super().begin(n_agents, n_interactions)

        plain = _run(EngineConfig(engine="fleet"))
        sink = CountingSink()
        streamed = _run(EngineConfig(engine="fleet", sink=sink))
        assert sink.runs == [(6, 8)]  # the evaluation phase alone
        np.testing.assert_allclose(streamed.curve, plain.curve, rtol=0, atol=1e-12)


# one non-default value for every field a FleetRunner reads
_NON_DEFAULT = EngineConfig(
    engine="fleet",
    n_workers=2,
    exactness="fast",
)
_SMALL = dict(n_eval_agents=3, eval_interactions=4, seed=1)


def _drive_loop(cfg):
    env, config = _workload()
    loop = DeploymentLoop(config, env, interactions_per_round=4, seed=1, engine=cfg)
    loop.run_round(new_users=5)
    loop.run_round(new_users=2)


def _drive_service(cfg):
    env, config = _workload()
    service = FleetService(config, env, engine=cfg, seed=1)
    service.arrive(5)
    service.interact(4)


_ENTRY_POINTS = {
    "run_setting": lambda cfg: _run(cfg),
    "compare_settings": lambda cfg: compare_settings(
        _env_factory, _workload()[1], n_contributors=6, engine=cfg, **_SMALL
    ),
    "population_sweep": lambda cfg: population_sweep(
        [6], _workload()[1], env_factory=_env_factory, engine=cfg, **_SMALL
    ),
    "dimension_sweep": lambda cfg: dimension_sweep(
        [6], n_actions=4, n_contributors=6, make_config=_make_config, env_seed=11,
        engine=cfg, **_SMALL,
    ),
    "codebook_sweep": lambda cfg: codebook_sweep(
        [8], _workload()[1], env_factory=_env_factory, n_contributors=6, engine=cfg,
        **_SMALL,
    ),
    "participation_sweep": lambda cfg: participation_sweep(
        [0.5], _workload()[1], env_factory=_env_factory, n_contributors=6,
        engine=cfg, **_SMALL,
    ),
    "DeploymentLoop": _drive_loop,
    "FleetService": _drive_service,
}


class TestEntryPoints:
    @pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
    def test_every_runner_sees_the_given_config(self, entry, built_runners):
        _ENTRY_POINTS[entry](_NON_DEFAULT)
        assert built_runners, f"{entry} built no FleetRunner"
        for built in built_runners:
            assert _engine_fields(built) == _engine_fields(_NON_DEFAULT)

    def test_resumed_run_setting_keeps_snapshot_knobs(
        self, built_runners, tmp_path, monkeypatch
    ):
        """Resume rebuilds the runner's config from the snapshot's engine
        dict."""
        cfg = _NON_DEFAULT.replace(exactness="bit")
        path = tmp_path / "run.ckpt"
        real = FleetRunner._run_thread
        calls = {"n": 0}

        def crash_on_second(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("simulated crash")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(FleetRunner, "_run_thread", crash_on_second)
        with pytest.raises(RuntimeError, match="simulated crash"):
            _run(cfg, checkpoint_every=2, checkpoint_path=path)
        monkeypatch.setattr(FleetRunner, "_run_thread", real)
        built_runners.clear()
        _run(cfg, resume_from=path)
        assert len(built_runners) == 2  # resumed contributor + evaluation phase
        for built in built_runners:
            assert _engine_fields(built) == _engine_fields(cfg)


class TestDeploymentLoopConfig:
    def test_loop_resolves_engine_to_config(self):
        env, config = _workload()
        with use_config(n_workers=2, exactness="fast"):
            # a name maps onto the field defaults, not the process default
            by_name = DeploymentLoop(
                config, env, interactions_per_round=6, seed=2, engine="fleet"
            )
        by_config = DeploymentLoop(
            config, env, interactions_per_round=6, seed=2,
            engine=EngineConfig(engine="fleet", n_workers=3),
        )
        assert by_name.engine == EngineConfig(engine="fleet")
        for loop in (by_name, by_config):
            loop.enroll(8)
            loop.run_round()
        assert by_name.rounds == by_config.rounds
        assert by_config.engine.n_workers == 3

    @pytest.mark.parametrize(
        ("engine", "message"),
        [("warp", "engine must be one of"), ({"engine": "fleet"}, "EngineConfig")],
        ids=["unknown-name", "not-a-config"],
    )
    def test_loop_rejects_bad_engine(self, engine, message):
        env, config = _workload()
        with pytest.raises(ConfigError, match=message):
            DeploymentLoop(config, env, engine=engine)

    def test_loop_rejects_sink(self):
        env, config = _workload()
        with pytest.raises(ConfigError, match="sink"):
            DeploymentLoop(config, env, engine=EngineConfig(sink=CurveSink()))
