"""EngineConfig: validation, defaults plumbing, and legacy-shim parity.

The API redesign consolidated the engine kwarg pile into one frozen
:class:`~repro.experiments.runner.EngineConfig`.  These tests pin the
contract: construction validates every field, ``use_config`` scopes the
process default, the deprecated ``set_default_*``/``get_default_*``
pairs still work (warning), and — the load-bearing part — runs
configured the old way and the new way are bit-identical.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.config import AgentMode, P2BConfig
from repro.data.synthetic import SyntheticPreferenceEnvironment
from repro.experiments import runner
from repro.experiments.runner import EngineConfig, run_setting, use_config
from repro.utils.exceptions import ConfigError


@pytest.fixture(autouse=True)
def _restore_default_config():
    """Every test leaves the process default as it found it."""
    previous = runner.get_default_config()
    yield
    runner.set_default_config(previous)


class TestConstruction:
    def test_defaults_reproduce_reference_behavior(self):
        cfg = EngineConfig()
        assert cfg.engine == "auto"
        assert cfg.n_workers == 1
        assert cfg.plan_chunk_size is None
        assert cfg.exactness == "bit"
        assert cfg.sink is None

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
            {"plan_chunk_size": 0},
            {"exactness": "approximate"},
        ],
    )
    def test_bad_fields_rejected_at_construction(self, kwargs):
        with pytest.raises((ConfigError, Exception)) as excinfo:
            EngineConfig(**kwargs)
        assert "must be" in str(excinfo.value)

    def test_pickle_round_trip_drops_retired_keys(self):
        """A context blob pickled by an older release carries keys of
        knobs that no longer exist; they must not come back as stray
        attributes, while missing newer fields take their defaults."""
        cfg = EngineConfig(engine="fleet", n_workers=3)
        state = dict(cfg.__dict__)
        del state["sweep_workers"]
        state.update(plan_form="dense", worker_backend="process")
        old = EngineConfig.__new__(EngineConfig)
        old.__setstate__(state)
        assert not hasattr(old, "plan_form")
        assert not hasattr(old, "worker_backend")
        assert old == cfg
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_replace_validates(self):
        cfg = EngineConfig()
        assert cfg.replace(engine="fleet").engine == "fleet"
        with pytest.raises(Exception, match="must be"):
            cfg.replace(engine="warp")

    def test_set_default_config_rejects_non_config(self):
        with pytest.raises(ConfigError, match="EngineConfig"):
            runner.set_default_config({"engine": "fleet"})  # type: ignore[arg-type]


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
        cfg = EngineConfig(engine="fleet", plan_chunk_size=7)
        with use_config(cfg, n_workers=2) as active:
            assert active.engine == "fleet"
            assert active.plan_chunk_size == 7
            assert active.n_workers == 2


class TestDeprecatedShims:
    @pytest.mark.parametrize(
        "setter, getter, value",
        [
            ("set_default_engine", "get_default_engine", "sequential"),
            ("set_default_n_workers", "get_default_n_workers", 4),
            ("set_default_plan_chunk_size", "get_default_plan_chunk_size", 16),
            ("set_default_exactness", "get_default_exactness", "fast"),
        ],
    )
    def test_setter_getter_roundtrip_with_warning(self, setter, getter, value):
        with pytest.warns(DeprecationWarning, match="deprecated"):
            getattr(runner, setter)(value)
        with pytest.warns(DeprecationWarning, match="deprecated"):
            assert getattr(runner, getter)() == value

    def test_setters_compose_onto_one_config(self):
        with pytest.warns(DeprecationWarning):
            runner.set_default_engine("fleet")
            runner.set_default_n_workers(2)
            runner.set_default_plan_chunk_size(5)
            runner.set_default_exactness("fast")
        cfg = runner.get_default_config()
        assert (cfg.engine, cfg.n_workers, cfg.plan_chunk_size, cfg.exactness) == (
            "fleet",
            2,
            5,
            "fast",
        )

    def test_setters_still_validate(self):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ConfigError):
                runner.set_default_engine("warp")
            with pytest.raises(ConfigError):
                runner.set_default_exactness("approximate")


def _workload():
    env = SyntheticPreferenceEnvironment(n_actions=4, n_features=6, seed=11)
    config = P2BConfig(
        n_actions=4, n_features=6, n_codes=8, shuffler_threshold=2, window=4
    )
    return env, config


def _run(engine_arg, **legacy):
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
        **legacy,
    )


class TestOldNewEquivalence:
    """Every legacy kwarg/setter spelling must match its EngineConfig form."""

    def test_legacy_kwargs_equal_engine_config(self):
        old = _run("fleet", n_workers=2, plan_chunk_size=3)
        new = _run(EngineConfig(engine="fleet", n_workers=2, plan_chunk_size=3))
        np.testing.assert_array_equal(old.curve, new.curve)
        assert old.mean_reward == new.mean_reward

    def test_legacy_setters_equal_engine_config_default(self):
        with pytest.warns(DeprecationWarning):
            runner.set_default_engine("fleet")
            runner.set_default_plan_chunk_size(3)
        old = _run(None)
        runner.set_default_config(EngineConfig(engine="fleet", plan_chunk_size=3))
        new = _run(None)
        np.testing.assert_array_equal(old.curve, new.curve)

    def test_use_config_equals_explicit_argument(self):
        cfg = EngineConfig(engine="fleet", plan_chunk_size=3)
        with use_config(cfg):
            scoped = _run(None)
        explicit = _run(cfg)
        np.testing.assert_array_equal(scoped.curve, explicit.curve)

    def test_mixing_config_and_kwargs_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            _run(EngineConfig(engine="fleet"), n_workers=2)
        with pytest.raises(ConfigError, match="not both"):
            _run(EngineConfig(), exactness="fast")

    def test_compare_settings_accepts_config(self):
        from repro.experiments.runner import compare_settings

        _, config = _workload()

        def env_factory():
            return SyntheticPreferenceEnvironment(n_actions=4, n_features=6, seed=11)

        kwargs = dict(
            n_contributors=10,
            n_eval_agents=5,
            eval_interactions=6,
            seed=5,
        )
        old = compare_settings(env_factory, config, engine="fleet", **kwargs)
        new = compare_settings(
            env_factory, config, engine=EngineConfig(engine="fleet"), **kwargs
        )
        for mode in old.results:
            np.testing.assert_array_equal(
                old.results[mode].curve, new.results[mode].curve
            )


class TestDeploymentLoopConfig:
    def test_loop_unpacks_engine_config(self):
        from repro.core.rounds import DeploymentLoop

        env, config = _workload()
        loop_old = DeploymentLoop(
            config, env, interactions_per_round=6, seed=2, engine="fleet",
            plan_chunk_size=3,
        )
        loop_new = DeploymentLoop(
            config, env, interactions_per_round=6, seed=2,
            engine=EngineConfig(engine="fleet", plan_chunk_size=3),
        )
        for loop in (loop_old, loop_new):
            loop.enroll(8)
            loop.run_round()
        assert loop_old.rounds == loop_new.rounds
        assert loop_new.engine == "fleet"
        assert loop_new.plan_chunk_size == 3

    def test_loop_rejects_config_plus_fields(self):
        from repro.core.rounds import DeploymentLoop

        env, config = _workload()
        with pytest.raises(ConfigError, match="not both"):
            DeploymentLoop(config, env, engine=EngineConfig(), n_workers=2)

    def test_loop_rejects_sink(self):
        from repro.core.rounds import DeploymentLoop
        from repro.experiments.results import CurveSink

        env, config = _workload()
        with pytest.raises(ConfigError, match="sink"):
            DeploymentLoop(config, env, engine=EngineConfig(sink=CurveSink()))
