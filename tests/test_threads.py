"""Tests for the thread-parallel PA-CGA engine.

These run real OS threads: the point is correctness under genuine
concurrency — the per-individual RW locks must keep every (S, CT,
fitness) triple internally consistent no matter how sweeps interleave.
"""

import json
import sys

import numpy as np
import pytest

from repro.cga import CGAConfig, StopCondition
from repro.obs import Observer
from repro.parallel import ThreadedPACGA


CFG = CGAConfig(grid_rows=6, grid_cols=6, ls_iterations=2, seed_with_minmin=False)


class TestThreadedPACGA:
    def test_single_thread_runs(self, tiny_instance):
        eng = ThreadedPACGA(tiny_instance, CFG.with_(n_threads=1), seed=0)
        res = eng.run(StopCondition(max_generations=3))
        assert res.generations == 3
        assert res.evaluations == 3 * 36

    @pytest.mark.parametrize("n_threads", [2, 3, 4])
    def test_population_consistent_after_parallel_run(self, tiny_instance, n_threads):
        eng = ThreadedPACGA(tiny_instance, CFG.with_(n_threads=n_threads), seed=1)
        eng.run(StopCondition(max_generations=4))
        eng.pop.check_invariants()  # no torn reads/writes leaked through

    def test_improves_over_initial(self, tiny_instance):
        eng = ThreadedPACGA(tiny_instance, CFG.with_(n_threads=2), seed=2)
        initial = eng.pop.best()[1]
        res = eng.run(StopCondition(max_generations=6))
        assert res.best_fitness <= initial

    def test_eval_budget_split_across_threads(self, tiny_instance):
        eng = ThreadedPACGA(tiny_instance, CFG.with_(n_threads=3), seed=0)
        res = eng.run(StopCondition(max_evaluations=360))
        per = res.extra["per_thread_evaluations"]
        assert len(per) == 3
        assert sum(per) >= 3 * (360 // 3)  # block-granular overshoot allowed

    def test_blocks_partition_population(self, tiny_instance):
        eng = ThreadedPACGA(tiny_instance, CFG.with_(n_threads=3), seed=0)
        joined = np.concatenate(eng.blocks)
        assert np.array_equal(np.sort(joined), np.arange(36))

    def test_wall_time_stop(self, tiny_instance):
        eng = ThreadedPACGA(tiny_instance, CFG.with_(n_threads=2), seed=0)
        res = eng.run(StopCondition(wall_time_s=0.2))
        assert res.elapsed_s >= 0.2
        assert res.evaluations > 0

    def test_extra_metadata(self, tiny_instance):
        eng = ThreadedPACGA(tiny_instance, CFG.with_(n_threads=2), seed=0)
        res = eng.run(StopCondition(max_generations=2))
        assert res.extra["n_threads"] == 2
        assert len(res.extra["per_thread_generations"]) == 2

    def test_best_assignment_valid(self, tiny_instance):
        from repro.scheduling import validate_assignment

        eng = ThreadedPACGA(tiny_instance, CFG.with_(n_threads=4), seed=3)
        res = eng.run(StopCondition(max_generations=3))
        validate_assignment(tiny_instance, res.best_assignment)

    def test_stress_many_generations(self, tiny_instance):
        # longer run to give interleavings a chance to corrupt state
        eng = ThreadedPACGA(tiny_instance, CFG.with_(n_threads=4), seed=4)
        eng.run(StopCondition(max_generations=25))
        eng.pop.check_invariants()


    def test_supervision_sees_every_generation_under_fast_switching(
        self, tiny_instance
    ):
        # more workers than cores and a short switch interval: the parent
        # reads the workers' counters while they write them, and must
        # still fire the generation hook once per completed generation
        eng = ThreadedPACGA(tiny_instance, CFG.with_(n_threads=4), seed=5)
        seen = []
        eng.hooks.on_generation = lambda e, generation, evals: seen.append(generation)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            res = eng.run(StopCondition(max_generations=12))
        finally:
            sys.setswitchinterval(old)
        assert res.extra["per_thread_generations"] == [12] * 4
        assert seen == list(range(1, 13))
        eng.pop.check_invariants()


class TestWorkerFailure:
    def test_failing_worker_fails_the_run_and_names_itself(
        self, tiny_instance, tmp_path
    ):
        """A worker that raises must fail the run loudly, not let it
        return a partial budget as a success."""
        out = tmp_path / "bundle"
        obs = Observer(out=out, sample_every_evals=10**9)
        eng = ThreadedPACGA(tiny_instance, CFG.with_(n_threads=2), seed=0, obs=obs)
        step, sweeps = eng._step_block, []

        def flaky(tid, rng, rec=None):
            if tid == 1:
                sweeps.append(tid)
                if len(sweeps) == 2:
                    raise ValueError("worker 1 broke")
            step(tid, rng, rec)

        eng._step_block = flaky
        with pytest.raises(RuntimeError, match="w1") as info:
            with obs:
                eng.run(StopCondition(max_evaluations=2048))
        assert isinstance(info.value.__cause__, ValueError)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["interrupted_by"]["role"] == "w1"
        assert meta["interrupted_by"]["exitcode"] == 1
