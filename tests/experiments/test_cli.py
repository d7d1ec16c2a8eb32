"""Tests for the repro.cli command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "headline"):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_scale_and_seed_options(self):
        args = build_parser().parse_args(["fig3", "--scale", "0.5", "--seed", "7"])
        assert args.scale == 0.5 and args.seed == 7

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_fig3_runs(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "epsilon" in out
        assert "0.693" in out

    def test_fig2_runs(self, capsys):
        assert main(["fig2"]) == 0
        assert "cardinality_n" in capsys.readouterr().out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "fig3.txt"
        assert main(["fig3", "--out", str(target)]) == 0
        assert "epsilon" in target.read_text()


class TestEngineFlag:
    def test_engine_choices_registered(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["fig3", "--engine", "sequential"])
        assert args.engine == "sequential"
        args = parser.parse_args(["fig3", "--engine", "fleet"])
        assert args.engine == "fleet"
        args = parser.parse_args(["fig3"])
        assert args.engine == "auto"

    def test_invalid_engine_rejected(self):
        import pytest

        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--engine", "warp"])

    def test_engine_flag_sets_process_default(self, capsys):
        from repro.cli import main
        from repro.experiments import runner

        previous = runner.get_default_config()
        try:
            assert main(["fig3", "--engine", "sequential"]) == 0
            assert runner.get_default_config().engine == "sequential"
        finally:
            runner.set_default_config(previous)
        capsys.readouterr()


class TestExactnessFlag:
    def test_exactness_choices_registered(self):
        parser = build_parser()
        assert parser.parse_args(["fig3", "--exactness", "fast"]).exactness == "fast"
        assert parser.parse_args(["fig3", "--exactness", "bit"]).exactness == "bit"
        assert parser.parse_args(["fig3"]).exactness == "bit"

    def test_invalid_exactness_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--exactness", "warp"])
        err = capsys.readouterr().err
        assert "invalid choice" in err and "warp" in err

    def test_exactness_flag_sets_process_default(self, capsys):
        from repro.experiments import runner

        previous = runner.get_default_config()
        try:
            assert main(["fig3", "--exactness", "fast"]) == 0
            assert runner.get_default_config().exactness == "fast"
        finally:
            runner.set_default_config(previous)
        capsys.readouterr()


class TestFlagErrorPaths:
    """Bad numeric flag values die with one-line argparse usage errors,
    not tracebacks from deep inside the engine."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig3", "--workers", "0"],
            ["fig3", "--workers", "-2"],
            ["fig3", "--workers", "three"],
            ["fig3", "--sweep-workers", "0"],
            ["fig3", "--sweep-workers", "-1"],
            ["fig3", "--sweep-workers", "many"],
        ],
    )
    def test_bad_values_exit_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        # argparse prints usage + exactly one error line, no traceback
        assert "expected a positive integer" in err or "expected an integer" in err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith("repro-p2b")


class TestServeCommand:
    def test_serve_registered_with_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.serve_agents == 64
        assert args.serve_requests == 20
        assert args.serve_batch == 10
        assert args.serve_arrivals == 2
        assert args.serve_departures == 2
        assert args.serve_collect_every == 4
        assert args.serve_epoch_length == 20

    def test_serve_runs_end_to_end(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--serve-agents",
                    "12",
                    "--serve-requests",
                    "3",
                    "--serve-batch",
                    "4",
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "streaming deployment" in out
        assert "requests answered" in out

    def test_serve_zero_churn_allowed(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--serve-agents",
                    "8",
                    "--serve-requests",
                    "2",
                    "--serve-batch",
                    "3",
                    "--serve-arrivals",
                    "0",
                    "--serve-departures",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "final population" in out
        line = next(ln for ln in out.splitlines() if "final population" in ln)
        assert line.split(":")[1].strip() == "8"

    def test_serve_rejects_sequential_engine(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--engine", "sequential"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "hot fleet" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--serve-agents", "0"],
            ["serve", "--serve-requests", "-1"],
            ["serve", "--serve-batch", "many"],
            ["serve", "--serve-arrivals", "-2"],
            ["serve", "--serve-departures", "minus"],
            ["serve", "--serve-collect-every", "0"],
            ["serve", "--serve-epoch-length", "-5"],
        ],
    )
    def test_bad_serve_values_exit_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "expected a" in err and "integer" in err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith("repro-p2b")


class TestRunCommand:
    def test_run_registered_with_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.mode == "warm-private"
        assert args.contributors == 40
        assert args.eval_agents == 20
        assert args.eval_interactions == 30
        assert args.checkpoint_every is None
        assert args.checkpoint_path is None
        assert args.resume_from is None

    def test_run_end_to_end(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--contributors", "8",
                    "--eval-agents", "4",
                    "--eval-interactions", "6",
                    "--seed", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "setting run" in out
        assert "mean reward" in out
        assert "privacy" in out  # warm-private reports its epsilon

    def test_run_checkpoint_then_resume_replays_identically(
        self, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "run.ckpt")
        argv = [
            "run",
            "--contributors", "6",
            "--eval-agents", "4",
            "--eval-interactions", "6",
            "--seed", "2",
        ]
        assert main(argv + ["--checkpoint-every", "3", "--checkpoint-path", ckpt]) == 0
        first = capsys.readouterr().out
        assert main(["run", "--seed", "2", "--resume-from", ckpt]) == 0
        second = capsys.readouterr().out
        assert first == second  # byte-identical report

    def test_typed_errors_map_to_exit_2_one_liner(self, capsys):
        # cadence without a path is a ConfigError from the engine layer:
        # one actionable stderr line, no traceback
        code = main(
            [
                "run",
                "--contributors", "4",
                "--eval-agents", "2",
                "--eval-interactions", "2",
                "--checkpoint-every", "2",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-p2b: error:")
        assert "go together" in err
        assert "Traceback" not in err

    def test_resume_from_missing_snapshot_is_one_line(self, tmp_path, capsys):
        code = main(["run", "--resume-from", str(tmp_path / "nope.ckpt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-p2b: error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--contributors", "-1"],
            ["run", "--eval-agents", "0"],
            ["run", "--eval-interactions", "none"],
            ["run", "--checkpoint-every", "0"],
            ["run", "--mode", "lukewarm"],
        ],
    )
    def test_bad_run_values_exit_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
