"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.engine == "sim"
        assert args.threads == 3
        assert args.crossover == "tpx"

    def test_run_help_lists_engine_aliases(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # undo argparse wrapping
        assert "pacga-sim = sim" in out
        assert "pacga-threads = threads" in out
        assert "pacga-shm = shm" in out

    @pytest.mark.parametrize(
        "argv",
        [["solve"], ["run"], ["resume", "ck.json"], ["quality"]],
        ids=["solve", "run", "resume", "quality"],
    )
    @pytest.mark.parametrize("evals", ["0", "-5"])
    def test_non_positive_evals_is_usage_error(self, argv, evals, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--evals", evals])
        assert exc.value.code == 2
        assert "--evals: must be a positive integer" in capsys.readouterr().err


class TestInstances:
    def test_lists_all_twelve(self, capsys):
        assert main(["instances"]) == 0
        out = capsys.readouterr().out
        for name in ("u_c_hihi.0", "u_i_lolo.0", "u_s_lohi.0"):
            assert name in out


class TestHeuristics:
    def test_runs_all(self, capsys):
        assert main(["heuristics", "--instance", "u_i_hilo.0"]) == 0
        out = capsys.readouterr().out
        assert "min-min" in out
        assert "sufferage" in out

    def test_lp_bound_flag(self, capsys):
        assert main(["heuristics", "--instance", "u_i_hilo.0", "--lp-bound"]) == 0
        assert "LP lower bound" in capsys.readouterr().out


class TestSolve:
    def test_sim_engine(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "--instance",
                    "u_i_hilo.0",
                    "--evals",
                    "600",
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "best makespan" in out
        assert "evaluations   : 600" in out

    def test_async_engine_with_gantt(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "--engine",
                    "async",
                    "--instance",
                    "u_i_hilo.0",
                    "--evals",
                    "300",
                    "--gantt",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "m00" in out  # gantt rows

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        assert (
            main(
                [
                    "solve",
                    "--instance",
                    "u_i_hilo.0",
                    "--evals",
                    "300",
                    "--out",
                    str(path),
                ]
            )
            == 0
        )
        data = json.loads(path.read_text())
        assert data["evaluations"] == 300

    def test_deterministic_given_seed(self, capsys):
        main(["solve", "--instance", "u_i_hilo.0", "--evals", "400", "--seed", "9"])
        a = capsys.readouterr().out
        main(["solve", "--instance", "u_i_hilo.0", "--evals", "400", "--seed", "9"])
        b = capsys.readouterr().out
        assert a == b


class TestObsFlagValidation:
    """Obs flags configure the bundle, so without --obs-out they are an
    error, not silently ignored."""

    BASE = ["solve", "--instance", "u_i_hilo.0", "--evals", "100"]

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--obs-trace"], "--obs-trace"),
            (["--no-obs-trace"], "--obs-trace"),
            (["--obs-sample-every", "64"], "--obs-sample-every"),
            (["--obs-live", "0"], "--obs-live"),
            (["--obs-stall-deadline", "5"], "--obs-stall-deadline"),
            (["--no-obs-flight"], "--obs-flight"),
            (["--obs-flight"], "--obs-flight"),
            (["--no-obs-resources"], "--obs-resources"),
            (["--obs-stack-sample", "100"], "--obs-stack-sample"),
        ],
    )
    def test_obs_flag_without_obs_out_is_rejected(self, flags, named, capsys):
        assert main(self.BASE + flags) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "require --obs-out" in err

    def test_flight_and_resources_default_on_with_obs_out(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        rc = main(self.BASE + ["--engine", "async", "--obs-out", str(out)])
        assert rc == 0
        assert (out / "flight" / "main.bin").exists()
        assert (out / "resources.jsonl").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["resources"]["peak_rss_mb"] > 0

    def test_flight_and_resources_opt_out(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        rc = main(
            self.BASE
            + [
                "--engine",
                "async",
                "--obs-out",
                str(out),
                "--no-obs-flight",
                "--no-obs-resources",
            ]
        )
        assert rc == 0
        assert not (out / "flight").exists()
        assert not (out / "resources.jsonl").exists()

    def test_obs_stack_sample_writes_collapsed(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        rc = main(
            self.BASE
            + [
                "--engine",
                "async",
                "--evals",
                "3000",
                "--obs-out",
                str(out),
                "--obs-stack-sample",
                "500",
            ]
        )
        assert rc == 0
        assert (out / "samples.collapsed").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["n_stack_samples"] > 0

    def test_obs_postmortem_subcommand(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(self.BASE + ["--engine", "async", "--obs-out", str(out)]) == 0
        capsys.readouterr()
        assert main(["obs", "postmortem", str(out)]) == 0
        report = capsys.readouterr().out
        assert "postmortem:" in report
        assert "== flight ring main" in report
        assert main(["obs", "postmortem", str(tmp_path / "nope")]) == 1

    def test_obs_flags_accepted_with_obs_out(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        rc = main(
            self.BASE
            + [
                "--engine",
                "async",
                "--obs-out",
                str(out),
                "--obs-sample-every",
                "64",
                "--no-obs-trace",
            ]
        )
        assert rc == 0
        assert (out / "metrics.json").exists()
        assert not (out / "trace.json").exists()

    def test_obs_live_announces_endpoint(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        rc = main(
            self.BASE
            + ["--engine", "async", "--obs-out", str(out), "--obs-live", "0"]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert f"live telemetry : {out}/live.json" in stdout
        assert (out / "live.json").exists()


class TestGenerate:
    def test_writes_instance(self, tmp_path, capsys):
        path = tmp_path / "gen.etc"
        assert (
            main(
                [
                    "generate",
                    "--ntasks",
                    "24",
                    "--nmachines",
                    "4",
                    "--consistency",
                    "c",
                    "--out",
                    str(path),
                ]
            )
            == 0
        )
        from repro.etc import load_instance

        inst = load_instance(path)
        assert inst.ntasks == 24
        assert inst.is_consistent()


class TestHarnessCommands:
    def test_speedup(self, capsys):
        assert main(["speedup", "--vtime", "0.01", "--runs", "1"]) == 0
        out = capsys.readouterr().out
        assert "ls_iterations" in out

    def test_operators(self, capsys):
        assert (
            main(
                [
                    "operators",
                    "--instance",
                    "u_i_hilo.0",
                    "--vtime",
                    "0.005",
                    "--runs",
                    "2",
                ]
            )
            == 0
        )
        assert "tpx/10" in capsys.readouterr().out

    def test_comparison(self, capsys):
        assert (
            main(
                [
                    "comparison",
                    "--instance",
                    "u_i_hilo.0",
                    "--vtime",
                    "0.005",
                    "--runs",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pa-cga-90s" in out

    def test_convergence(self, capsys):
        assert (
            main(["convergence", "--vtime", "0.01", "--runs", "1"]) == 0
        )
        out = capsys.readouterr().out
        assert "best thread count" in out

    def test_quality(self, capsys):
        assert (
            main(["quality", "--instance", "u_i_hilo.0", "--evals", "400"]) == 0
        )
        out = capsys.readouterr().out
        assert "LP bound" in out
        assert "mean PA-CGA gap" in out

    def test_reproduce(self, tmp_path, capsys):
        assert (
            main(
                [
                    "reproduce",
                    "--out",
                    str(tmp_path / "repro_out"),
                    "--scale",
                    "0.01",
                    "--runs",
                    "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "campaign artifacts" in out
        assert (tmp_path / "repro_out" / "fig4.txt").exists()

    def test_calibrate(self, capsys):
        assert main(["calibrate", "--instance", "u_i_hilo.0", "--samples", "100"]) == 0
        out = capsys.readouterr().out
        assert "t_breed" in out
        assert "t_ls_iter" in out

    def test_solve_weighted_fitness(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "--instance",
                    "u_i_hilo.0",
                    "--evals",
                    "300",
                    "--fitness",
                    "makespan+flowtime",
                ]
            )
            == 0
        )
        assert "best makespan" in capsys.readouterr().out
