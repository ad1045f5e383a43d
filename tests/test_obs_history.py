"""Run history registry, diffs, and the regression gate."""

import json

import pytest

from repro.obs import history as hist


def make_row(**over):
    row = {
        "run_id": "runA",
        "engine": "threads",
        "instance": "u_c_hihi.0",
        "n_threads": 2,
        "seed": 0,
        "best_fitness": 100.0,
        "evaluations": 2560,
        "generations": 10,
        "elapsed_s": 2.0,
        "evals_per_s": 1280.0,
        "stalls": 0,
        "lock_wait_s": 0.01,
        "interrupted": False,
    }
    row.update(over)
    return row


@pytest.fixture
def bundle(tmp_path):
    """A minimal finished-bundle directory."""
    out = tmp_path / "bundle"
    out.mkdir()
    (out / "meta.json").write_text(
        json.dumps(
            {
                "engine": "threads",
                "instance": "tiny",
                "n_threads": 2,
                "seed": 7,
                "result": {
                    "best_fitness": 81.5,
                    "evaluations": 1000,
                    "generations": 8,
                    "elapsed_s": 0.5,
                },
            }
        )
    )
    (out / "metrics.json").write_text(
        json.dumps(
            {
                "merged": {
                    "counters": {
                        "watchdog.stalls": 2.0,
                        "lock.read_wait_s_total": 0.25,
                        "lock.write_wait_s_total": 0.05,
                    }
                }
            }
        )
    )
    return out


class TestSummarize:
    def test_summarize_bundle(self, bundle):
        row = hist.summarize_bundle(bundle)
        assert row["run_id"] == "bundle"
        assert row["engine"] == "threads"
        assert row["best_fitness"] == 81.5
        assert row["evals_per_s"] == 2000.0
        assert row["stalls"] == 2
        assert row["lock_wait_s"] == pytest.approx(0.30)
        assert row["interrupted"] is False

    def test_partial_bundle_needs_only_meta(self, tmp_path):
        out = tmp_path / "partial"
        out.mkdir()
        (out / "meta.json").write_text(
            json.dumps({"engine": "async", "interrupted": {"type": "KeyboardInterrupt"}})
        )
        row = hist.summarize_bundle(out)
        assert row["interrupted"] is True
        assert row["stalls"] == 0
        assert row["evals_per_s"] is None

    def test_summarize_source_json_and_jsonl(self, tmp_path, bundle):
        as_json = tmp_path / "row.json"
        as_json.write_text(json.dumps(make_row()))
        assert hist.summarize_source(as_json)["run_id"] == "runA"
        assert hist.summarize_source(bundle)["engine"] == "threads"
        reg = tmp_path / "hist.jsonl"
        hist.append_history(reg, make_row(run_id="first"))
        hist.append_history(reg, make_row(run_id="second"))
        assert hist.summarize_source(reg)["run_id"] == "second"
        with pytest.raises(ValueError):
            empty = tmp_path / "empty.jsonl"
            empty.write_text("")
            hist.summarize_source(empty)


class TestResourceSummary:
    def test_meta_peaks_preferred(self, bundle):
        meta = json.loads((bundle / "meta.json").read_text())
        meta["resources"] = {"peak_rss_mb": 120.5, "peak_fds": 33}
        (bundle / "meta.json").write_text(json.dumps(meta))
        row = hist.summarize_bundle(bundle)
        assert row["peak_rss_mb"] == 120.5
        assert row["peak_fds"] == 33

    def test_recomputed_from_rows_for_crash_partial_bundle(self, bundle):
        # no meta["resources"] (never finalized) but streamed rows exist
        (bundle / "resources.jsonl").write_text(
            json.dumps({"role": "main", "rss_mb": 40.0, "fds": 10}) + "\n"
            + json.dumps({"role": "main", "rss_mb": 62.5, "fds": 9}) + "\n"
        )
        row = hist.summarize_bundle(bundle)
        assert row["peak_rss_mb"] == 62.5
        assert row["peak_fds"] == 10

    def test_none_without_resource_sampling(self, bundle):
        row = hist.summarize_bundle(bundle)
        assert row["peak_rss_mb"] is None
        assert row["peak_fds"] is None

    def test_row_fields_include_peaks(self):
        assert "peak_rss_mb" in hist.ROW_FIELDS
        assert "peak_fds" in hist.ROW_FIELDS


class TestResourceGate:
    def test_no_flags_no_findings(self):
        assert hist.check_resources(make_row()) == []

    def test_under_ceiling_passes(self):
        row = make_row(peak_rss_mb=100.0, peak_fds=20)
        assert hist.check_resources(row, max_rss_mb=256.0, max_fds=64) == []

    def test_rss_over_ceiling_fails(self):
        row = make_row(peak_rss_mb=300.0, peak_fds=20)
        problems = hist.check_resources(row, max_rss_mb=256.0)
        assert len(problems) == 1
        assert "peak RSS 300MB > ceiling 256MB" in problems[0]

    def test_fds_over_ceiling_fails(self):
        row = make_row(peak_rss_mb=10.0, peak_fds=200)
        problems = hist.check_resources(row, max_fds=64)
        assert len(problems) == 1
        assert "peak fd count 200 > ceiling 64" in problems[0]

    def test_missing_data_fails_explicitly(self):
        problems = hist.check_resources(make_row(), max_rss_mb=256.0, max_fds=64)
        assert len(problems) == 2
        assert all("resource sampling off?" in p for p in problems)

    def test_cli_max_rss_gate_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        row = tmp_path / "row.json"
        row.write_text(json.dumps(make_row(peak_rss_mb=100.0, peak_fds=16)))
        base = tmp_path / "base.json"
        base.write_text(json.dumps(make_row()))
        ok = main(
            ["obs", "check", str(row), "--baseline", str(base), "--max-rss-mb", "256"]
        )
        assert ok == 0
        bad = main(
            ["obs", "check", str(row), "--baseline", str(base), "--max-rss-mb", "50"]
        )
        assert bad == 1
        assert "peak RSS 100MB > ceiling 50MB" in capsys.readouterr().err


class TestRegistry:
    def test_append_and_load(self, tmp_path):
        reg = tmp_path / "runs.jsonl"
        stored = hist.append_history(reg, make_row())
        assert stored["recorded_unix"] is not None
        rows = hist.load_history(reg)
        assert len(rows) == 1 and rows[0]["run_id"] == "runA"
        hist.append_history(reg, make_row(run_id="runB"))
        assert [r["run_id"] for r in hist.load_history(reg)] == ["runA", "runB"]

    def test_load_missing_is_empty(self, tmp_path):
        assert hist.load_history(tmp_path / "nope.jsonl") == []

    def test_render_history(self):
        text = hist.render_history([make_row(), make_row(run_id="runB")], limit=1)
        assert "runB" in text and "runA" not in text
        assert "makespan" in text
        assert hist.render_history([]) == "(history is empty)"


class TestDiff:
    def test_diff_directions(self):
        a = make_row()
        b = make_row(run_id="runB", best_fitness=90.0, evals_per_s=640.0)
        by_field = {d["field"]: d for d in hist.diff_rows(a, b)}
        assert by_field["best_fitness"]["better"] is True  # lower makespan
        assert by_field["evals_per_s"]["better"] is False  # lower throughput
        assert by_field["best_fitness"]["delta_pct"] == pytest.approx(-10.0)

    def test_render_diff_markers(self):
        a, b = make_row(), make_row(run_id="runB", best_fitness=120.0)
        text = hist.render_diff(a, b)
        assert "'+' = B better" in text
        assert "+20.0% !" in text


class TestCheckRow:
    def test_identical_passes(self):
        assert hist.check_row(make_row(), make_row()) == []

    def test_twenty_percent_makespan_regression_fails(self):
        """Acceptance scenario: a synthetic 20% quality regression must
        trip the default 10% gate."""
        cur = make_row(best_fitness=120.0)
        problems = hist.check_row(cur, make_row(), tolerance_pct=10.0)
        assert len(problems) == 1
        assert "makespan regression" in problems[0]

    def test_makespan_within_tolerance_passes(self):
        cur = make_row(best_fitness=109.0)
        assert hist.check_row(cur, make_row(), tolerance_pct=10.0) == []

    def test_throughput_floor(self):
        cur = make_row(evals_per_s=600.0)  # >50% drop vs 1280
        problems = hist.check_row(cur, make_row())
        assert any("throughput regression" in p for p in problems)
        # a looser throughput-specific tolerance lets it pass
        assert (
            hist.check_row(cur, make_row(), throughput_tolerance_pct=60.0) == []
        )

    def test_stalls_and_interrupt_fail_outright(self):
        assert any(
            "stall" in p for p in hist.check_row(make_row(stalls=3), make_row())
        )
        assert any(
            "interrupted" in p
            for p in hist.check_row(make_row(interrupted=True), make_row())
        )

    def test_missing_baseline_fields_skip(self):
        baseline = {"run_id": "sparse"}
        assert hist.check_row(make_row(best_fitness=999.0), baseline) == []


class TestBenchBaseline:
    def make_bench(self, tmp_path, **extra):
        data = {
            "instance": "u_c_hihi.0",
            "engines_evals_per_s": {"threads(2)": 1000.0, "simulated(4)": 9000.0},
        }
        data.update(extra)
        path = tmp_path / "BENCH_throughput.json"
        path.write_text(json.dumps(data))
        return path

    def test_engine_entry_selected(self, tmp_path):
        path = self.make_bench(tmp_path)
        base = hist.load_baseline(path, row=make_row())
        assert base["evals_per_s"] == 1000.0
        assert base["run_id"] == "baseline:threads(2)"
        assert base["best_fitness"] is None  # no quality entries committed

    def test_sim_alias(self, tmp_path):
        path = self.make_bench(tmp_path)
        base = hist.load_baseline(path, row=make_row(engine="sim", n_threads=4))
        assert base["evals_per_s"] == 9000.0

    def test_quality_entry_used_when_present(self, tmp_path):
        path = self.make_bench(tmp_path, quality_makespan={"threads(2)": 100.0})
        base = hist.load_baseline(path, row=make_row())
        assert base["best_fitness"] == 100.0
        assert hist.check_row(make_row(best_fitness=130.0), base) != []

    def test_unknown_engine_raises(self, tmp_path):
        path = self.make_bench(tmp_path)
        with pytest.raises(KeyError, match="threads\\(8\\)"):
            hist.load_baseline(path, row=make_row(n_threads=8))

    def test_committed_bench_file_gates_throughput(self, tmp_path):
        """The repo's committed BENCH_throughput.json works as a check
        baseline for a threads(2) run."""
        from pathlib import Path

        bench = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"
        row = make_row(evals_per_s=10**9)  # absurdly fast: must pass the floor
        base = hist.load_baseline(bench, row=row)
        assert base["evals_per_s"] > 0
        assert hist.check_row(row, base, throughput_tolerance_pct=50.0) == []


class TestParallelSpeedupGate:
    def test_all_ratios_above_floor_pass(self):
        payload = {"parallel_speedup": {"shm(2)/shm(1)": 1.4, "shm(4)/shm(1)": 2.1}}
        assert hist.check_parallel_speedup(payload, 1.0) == []

    def test_ratio_below_floor_fails(self):
        payload = {"parallel_speedup": {"shm(2)/shm(1)": 0.85}}
        problems = hist.check_parallel_speedup(payload, 1.0)
        assert len(problems) == 1
        assert "parallel speedup regression" in problems[0]
        assert "shm(2)/shm(1)" in problems[0]

    def test_missing_section_fails_outright(self):
        assert hist.check_parallel_speedup({}, 1.0) != []
        assert hist.check_parallel_speedup({"parallel_speedup": {}}, 1.0) != []

    def test_non_numeric_ratio_fails(self):
        payload = {"parallel_speedup": {"shm(2)/shm(1)": "fast"}}
        problems = hist.check_parallel_speedup(payload, 1.0)
        assert "not numeric" in problems[0]

    def test_cli_min_parallel_speedup_gates_bench_baseline(self, tmp_path, capsys):
        from repro.cli import main

        bench = tmp_path / "BENCH_throughput.json"
        run = tmp_path / "run.json"
        run.write_text(json.dumps(make_row(engine="shm", evals_per_s=1000.0)))

        bench.write_text(
            json.dumps(
                {
                    "instance": "u_c_hihi.0",
                    "engines_evals_per_s": {"shm(2)": 1000.0},
                    "parallel_speedup": {"shm(2)/shm(1)": 1.3},
                }
            )
        )
        args = ["obs", "check", str(run), "--baseline", str(bench)]
        assert main([*args, "--min-parallel-speedup", "1.0"]) == 0
        capsys.readouterr()

        bench.write_text(
            json.dumps(
                {
                    "instance": "u_c_hihi.0",
                    "engines_evals_per_s": {"shm(2)": 1000.0},
                    "parallel_speedup": {"shm(2)/shm(1)": 0.7},
                }
            )
        )
        assert main([*args, "--min-parallel-speedup", "1.0"]) == 1
        assert "parallel speedup regression" in capsys.readouterr().err
        # without the flag the same baseline passes (speedup not gated)
        assert main(args) == 0
        capsys.readouterr()

    def test_cli_flag_fails_when_no_section_anywhere(self, tmp_path, capsys):
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_row()))
        run = tmp_path / "run.json"
        run.write_text(json.dumps(make_row(run_id="runB")))
        rc = main(
            [
                "obs",
                "check",
                str(run),
                "--baseline",
                str(baseline),
                "--min-parallel-speedup",
                "1.0",
            ]
        )
        assert rc == 1
        assert "no parallel_speedup section" in capsys.readouterr().err


class TestDynamicsGate:
    def test_no_flags_no_findings(self):
        assert hist.check_dynamics(make_row()) == ([], [])

    def test_ls_rate_above_floor_passes(self):
        problems, _ = hist.check_dynamics(
            make_row(ls_success_rate=0.4), min_ls_success_rate=0.2
        )
        assert problems == []

    def test_ls_rate_below_floor_fails(self):
        problems, _ = hist.check_dynamics(
            make_row(ls_success_rate=0.05), min_ls_success_rate=0.2
        )
        assert len(problems) == 1
        assert "LS success rate regression" in problems[0]

    def test_missing_attribution_fails_the_gate_explicitly(self):
        """A pre-dynamics bundle (no op.ls.* counters) must not pass the
        gate silently."""
        problems, _ = hist.check_dynamics(make_row(), min_ls_success_rate=0.2)
        assert any("no LS attribution" in p for p in problems)

    def test_entropy_collapse_warns_but_does_not_fail(self):
        problems, warnings = hist.check_dynamics(make_row(final_entropy=0.01))
        assert problems == []
        assert len(warnings) == 1
        assert "entropy collapse" in warnings[0]
        assert hist.check_dynamics(make_row(final_entropy=0.5)) == ([], [])

    def test_summarize_bundle_extracts_dynamics_fields(self, tmp_path):
        out = tmp_path / "dynbundle"
        out.mkdir()
        (out / "meta.json").write_text(json.dumps({"engine": "async"}))
        (out / "metrics.json").write_text(
            json.dumps(
                {
                    "merged": {
                        "counters": {
                            "op.ls.attempts": 100.0,
                            "op.ls.successes": 25.0,
                        }
                    }
                }
            )
        )
        (out / "grid.jsonl").write_text(
            json.dumps({"fitness_entropy": 0.8})
            + "\n"
            + json.dumps({"fitness_entropy": 0.03})
            + "\n"
        )
        row = hist.summarize_bundle(out)
        assert row["ls_success_rate"] == 0.25
        assert row["final_entropy"] == 0.03

    def test_bundle_without_dynamics_yields_none_fields(self, bundle):
        row = hist.summarize_bundle(bundle)
        assert row["ls_success_rate"] is None
        assert row["final_entropy"] is None

    def test_cli_min_ls_success_rate_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_row()))
        run = tmp_path / "run.json"
        args = ["obs", "check", str(run), "--baseline", str(baseline)]

        run.write_text(json.dumps(make_row(ls_success_rate=0.4)))
        assert main([*args, "--min-ls-success-rate", "0.2"]) == 0
        capsys.readouterr()

        run.write_text(json.dumps(make_row(ls_success_rate=0.1)))
        assert main([*args, "--min-ls-success-rate", "0.2"]) == 1
        assert "LS success rate regression" in capsys.readouterr().err

        # without the flag the same run passes (rate not gated)
        assert main(args) == 0
        capsys.readouterr()

    def test_cli_entropy_collapse_warns_without_failing(self, tmp_path, capsys):
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_row()))
        run = tmp_path / "run.json"
        run.write_text(json.dumps(make_row(final_entropy=0.001)))
        assert (
            main(["obs", "check", str(run), "--baseline", str(baseline)]) == 0
        )
        captured = capsys.readouterr()
        assert "WARNING: entropy collapse" in captured.err
        assert "OK: within tolerance" in captured.out


class TestObsCli:
    def test_ingest_history_diff_check(self, tmp_path, bundle, capsys):
        from repro.cli import main

        reg = tmp_path / "runs.jsonl"
        assert main(["obs", "ingest", str(bundle), "--history", str(reg)]) == 0
        out = capsys.readouterr().out
        assert "recorded bundle" in out

        assert main(["obs", "history", str(reg)]) == 0
        assert "bundle" in capsys.readouterr().out

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(make_row()))
        b.write_text(json.dumps(make_row(run_id="runB", best_fitness=90.0)))
        assert main(["obs", "diff", str(a), str(b)]) == 0
        assert "best_fitness" in capsys.readouterr().out

    def test_check_exit_codes(self, tmp_path, capsys):
        """Acceptance: nonzero on a synthetic 20% makespan regression,
        zero against a matching baseline."""
        from repro.cli import main

        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(make_row()))

        good = tmp_path / "good.json"
        good.write_text(json.dumps(make_row(run_id="good")))
        assert main(["obs", "check", str(good), "--baseline", str(baseline)]) == 0
        assert "OK: within tolerance" in capsys.readouterr().out

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(make_row(run_id="bad", best_fitness=120.0)))
        rc = main(
            ["obs", "check", str(bad), "--baseline", str(baseline), "--tolerance", "10"]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "REGRESSION: makespan regression" in captured.err

    def test_check_against_bench_shape(self, tmp_path, capsys):
        from repro.cli import main

        bench = tmp_path / "BENCH_throughput.json"
        bench.write_text(
            json.dumps(
                {
                    "instance": "u_c_hihi.0",
                    "engines_evals_per_s": {"threads(2)": 1000.0},
                }
            )
        )
        run = tmp_path / "run.json"
        run.write_text(json.dumps(make_row(evals_per_s=950.0)))
        assert main(["obs", "check", str(run), "--baseline", str(bench)]) == 0
        run.write_text(json.dumps(make_row(evals_per_s=100.0)))
        assert main(["obs", "check", str(run), "--baseline", str(bench)]) == 1
        capsys.readouterr()
