"""Statistical sampling profiler: collapsed stacks + cProfile agreement."""

import cProfile
import pstats
import signal
import threading
import time
from collections import Counter

import pytest

from repro.obs.sample import (
    StackSampler,
    frame_label,
    func_label,
    hot_functions,
    load_merged_samples,
    merge_collapsed,
    parse_collapsed,
    profile_workload,
    render_collapsed,
)


# -- a deterministic two-peak synthetic workload ---------------------------

def _spin(n):
    total = 0
    for i in range(n):
        total += i * i
    return total


def busy_a():
    return _spin(20_000)


def busy_b():
    return _spin(5_000)


def workload():
    busy_a()
    busy_b()


class TestCollapsedFormat:
    def test_render_parse_roundtrip(self):
        counts = Counter({"a;b;c": 5, "a;d": 2})
        assert parse_collapsed(render_collapsed(counts)) == counts

    def test_render_skips_zero_counts(self):
        assert render_collapsed({"a;b": 0}) == ""
        assert render_collapsed({}) == ""

    def test_parse_tolerates_garbage(self):
        text = "a;b 3\n\nnot-a-count x\n   \nc 2\n"
        counts = parse_collapsed(text)
        assert counts == Counter({"a;b": 3, "c": 2})

    def test_merge_is_addition(self):
        a = render_collapsed({"x;y": 2, "x;z": 1})
        b = render_collapsed({"x;y": 3, "w": 4})
        merged = parse_collapsed(merge_collapsed([a, b]))
        assert merged == Counter({"x;y": 5, "x;z": 1, "w": 4})

    def test_hot_functions_cumulative_once_per_stack(self):
        # "x" appears in both stacks -> charged both counts; a frame
        # repeated within one stack (recursion) is charged once
        text = "x;y;x 3\nx;z 2\n"
        hot = dict(hot_functions(text))
        assert hot["x"] == 5
        assert hot["y"] == 3
        assert hot["z"] == 2


class TestStackSampler:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError, match="interval_s"):
            StackSampler(interval_s=0)

    def test_sample_once_sees_other_threads(self):
        stop = threading.Event()

        def pinned():
            while not stop.wait(0.005):
                pass

        t = threading.Thread(target=pinned, name="victim", daemon=True)
        t.start()
        try:
            sampler = StackSampler()
            recorded = sampler.sample_once()
            assert recorded >= 1
            assert any("pinned" in stack for stack in sampler.counts)
        finally:
            stop.set()
            t.join()

    def test_excludes_obs_threads_by_default(self):
        stop = threading.Event()

        def fake_obs():
            while not stop.wait(0.005):
                pass

        t = threading.Thread(target=fake_obs, name="obs-resources", daemon=True)
        t.start()
        try:
            sampler = StackSampler()
            sampler.sample_once()
            assert not any("fake_obs" in s for s in sampler.counts)
            inclusive = StackSampler(include_obs_threads=True)
            inclusive.sample_once()
            assert any("fake_obs" in s for s in inclusive.counts)
        finally:
            stop.set()
            t.join()

    def test_start_stop_writes_collapsed_file(self, tmp_path):
        out = tmp_path / "samples-w0.collapsed"
        sampler = StackSampler(interval_s=0.001, out_path=out).start()
        stop = threading.Event()
        t = threading.Thread(
            target=lambda: [workload() for _ in iter(lambda: stop.is_set(), True)],
            daemon=True,
        )
        t.start()
        time.sleep(0.15)
        stop.set()
        t.join()
        text = sampler.stop()
        assert out.read_text() == text
        assert sampler.n_samples > 0
        assert sum(parse_collapsed(text).values()) > 0

    def test_frame_label_matches_cprofile_label(self):
        import sys

        frame = sys._getframe()
        code = frame.f_code
        expected = func_label((code.co_filename, code.co_firstlineno, code.co_name))
        assert frame_label(frame) == expected
        assert expected.endswith("(test_frame_label_matches_cprofile_label)")


class TestTimerDrivenSampling:
    """On the main thread a SIGALRM timer drives the sampler, so samples
    land where the time goes, not where the GIL is next released."""

    def test_main_thread_sampler_arms_timer_and_restores_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        sampler = StackSampler(interval_s=0.001).start()
        try:
            assert signal.getitimer(signal.ITIMER_REAL)[1] == pytest.approx(0.001)
            assert not any(t.name == "obs-sampler" for t in threading.enumerate())
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.1:
                workload()
        finally:
            text = sampler.stop()
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) == before
        stacks = parse_collapsed(text)
        assert any("busy_a" in stack for stack in stacks)
        # the handler's own frames never reach the profile
        assert not any("_on_alarm" in stack for stack in stacks)

    def test_other_threads_fall_back_to_a_sampling_thread(self):
        started = []
        t = threading.Thread(
            target=lambda: started.append(StackSampler(interval_s=0.001).start())
        )
        t.start()
        t.join()
        try:
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            assert any(t.name == "obs-sampler" for t in threading.enumerate())
        finally:
            started[0].stop()

    def test_gil_releasing_calls_are_not_over_counted(self):
        import numpy as np

        small = np.random.default_rng(0).random(9)

        def sorter():  # every np.argsort call releases the GIL
            for _ in range(20):
                np.argsort(small, kind="stable")

        def spinner():
            _spin(3_000)

        def timed(fn, reps=500):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn()
            return time.perf_counter() - t0

        t_sorter, t_spinner = timed(sorter), timed(spinner)
        true_share = t_sorter / (t_sorter + t_spinner)
        hot = dict(
            hot_functions(
                profile_workload(lambda: (sorter(), spinner()), min_s=1.0),
                top=10_000,
            )
        )
        n_sorter = sum(n for label, n in hot.items() if "(sorter)" in label)
        n_spinner = sum(n for label, n in hot.items() if "(spinner)" in label)
        sampled_share = n_sorter / (n_sorter + n_spinner)
        # a sampling thread reads ~1.0 here: it gets the GIL inside argsort
        assert abs(sampled_share - true_share) < 0.15, (sampled_share, true_share)


class TestLoadMergedSamples:
    def test_prefers_finalized_file(self, tmp_path):
        (tmp_path / "samples.collapsed").write_text("a;b 3\n")
        flight = tmp_path / "flight"
        flight.mkdir()
        (flight / "samples-w0.collapsed").write_text("c 1\n")
        assert load_merged_samples(tmp_path) == "a;b 3\n"

    def test_merges_worker_files(self, tmp_path):
        flight = tmp_path / "flight"
        flight.mkdir()
        (flight / "samples-w0.collapsed").write_text("a;b 1\n")
        (flight / "samples-w1.collapsed").write_text("a;b 2\n")
        assert parse_collapsed(load_merged_samples(tmp_path)) == Counter({"a;b": 3})

    def test_none_when_absent(self, tmp_path):
        assert load_merged_samples(tmp_path) is None


class TestCProfileAgreement:
    """Acceptance criterion: on a single-process run, the sampler's hot
    functions agree with cProfile's on the same workload."""

    def test_top_functions_agree(self):
        modname = __file__.split("/")[-1]
        collapsed = profile_workload(workload, interval_s=0.001, min_s=0.4)
        # the full ranking is dominated by the test harness's own call
        # stack (present in every sample); compare on this module only
        sampled_hot = [
            label
            for label, _ in hot_functions(collapsed, top=10_000)
            if modname in label
        ][:5]
        assert any("busy_a" in label for label in sampled_hot)
        assert any("_spin" in label for label in sampled_hot)

        profiler = cProfile.Profile()
        profiler.enable()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.4:
            workload()
        profiler.disable()
        stats = pstats.Stats(profiler)
        by_cumtime = sorted(
            stats.stats.items(), key=lambda kv: kv[1][3], reverse=True
        )
        cprofile_hot = [
            func_label(func)
            for func, _ in by_cumtime
            if modname in str(func[0])  # this module's functions
        ][:5]
        assert cprofile_hot, "cProfile saw none of the workload functions"
        # cProfile's top-5 hot functions of this module must all appear
        # in the sampler's top-5 under the *identical* label scheme
        missing = set(cprofile_hot) - set(sampled_hot)
        assert not missing, (
            f"sampler hot {sampled_hot} missing cProfile hot {missing}"
        )

    def test_sampler_and_cprofile_rank_spin_hottest(self):
        collapsed = profile_workload(workload, interval_s=0.001, min_s=0.4)
        own = [
            (label, n)
            for label, n in hot_functions(collapsed, top=10_000)
            if "test_obs_sample" in label
        ]
        assert own, "sampler recorded no frames from this module"
        # _spin is where the work happens; it must be the hottest leaf-ish
        # frame among this module's functions after the harness wrappers
        labels = [label for label, _ in own]
        spin_rank = next(i for i, lb in enumerate(labels) if "_spin" in lb)
        busy_b_rank = next(
            (i for i, lb in enumerate(labels) if "busy_b" in lb), len(labels)
        )
        assert spin_rank < busy_b_rank

    @pytest.mark.parametrize("engine", ["async", "vectorized"])
    def test_sampler_finds_cprofile_hot_repro_functions(self, engine):
        """The sampler stands in for cProfile on a real solve: the
        ``golden_independent`` configuration, run repeatedly under each
        profiler, must rank cProfile's three hottest ``repro`` functions
        (by cumulative time) among the sampler's five hottest."""
        from pathlib import Path

        import repro
        from repro.cga import CGAConfig, StopCondition
        from repro.etc import make_instance
        from repro.runtime import create_engine

        inst = make_instance(64, 8, consistency="i", seed=1)
        cfg = CGAConfig(grid_rows=8, grid_cols=8, ls_iterations=5)
        stop = StopCondition(max_evaluations=1280)

        def solve():
            create_engine(engine, inst, cfg, seed=1).run(stop)

        profiler = cProfile.Profile()
        profiler.enable()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.8:
            solve()
        profiler.disable()
        package = str(Path(repro.__file__).parent)
        repro_stats = sorted(
            (
                (func, row[3])
                for func, row in pstats.Stats(profiler).stats.items()
                if str(func[0]).startswith(package)
            ),
            key=lambda kv: kv[1],
            reverse=True,
        )
        repro_labels = {func_label(func) for func, _ in repro_stats}
        cprofile_top = [func_label(func) for func, _ in repro_stats[:3]]

        collapsed = profile_workload(solve, interval_s=0.001, min_s=0.8)
        sampled_top = [
            label
            for label, _ in hot_functions(collapsed, top=10_000)
            if label in repro_labels
        ][:5]
        missing = set(cprofile_top) - set(sampled_top)
        assert not missing, (
            f"sampler top-5 {sampled_top} misses cProfile top-3 {missing}"
        )
