"""Shared-memory block-parallel engine: lifecycle, seqlock, invariants.

The acceptance contract for :mod:`repro.parallel.shm`: the named
``/dev/shm`` segments exist exactly while the engine needs them —
gone after a normal run, after a worker exception, after a stall-kill,
and after the engine is garbage collected without ever running — and
the seqlock boundary protocol never lets a reader see a torn row.
"""

import gc
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cga import CGAConfig, StopCondition
from repro.parallel import ShmBlockPACGA
from repro.runtime.context import partition_ownership

CFG = CGAConfig(grid_rows=4, grid_cols=4, ls_iterations=2, seed_with_minmin=False)


def shm_paths(engine) -> list[Path]:
    """The /dev/shm file backing each of the engine's segments."""
    return [
        Path("/dev/shm") / seg.name for seg in engine._arena.segments.values()
    ]


@pytest.fixture
def make_engine(tiny_instance):
    """Engine factory that always unlinks at test teardown."""
    engines = []

    def build(**over):
        kw = {"seed": 0, "lockstep": False}
        kw.update(over)
        n = kw.pop("n_threads", 2)
        rows = kw.pop("grid_rows", CFG.grid_rows)
        cols = kw.pop("grid_cols", CFG.grid_cols)
        cfg = CFG.with_(n_threads=n, grid_rows=rows, grid_cols=cols)
        eng = ShmBlockPACGA(tiny_instance, cfg, **kw)
        engines.append(eng)
        return eng

    yield build
    for eng in engines:
        eng._arena.unlink()


class TestLifecycle:
    def test_segments_exist_while_engine_lives(self, make_engine):
        eng = make_engine()
        paths = shm_paths(eng)
        assert len(paths) == 4  # s, ct, fitness, seq
        assert all(p.exists() for p in paths)

    def test_unlinked_after_normal_lockstep_run(self, make_engine):
        eng = make_engine(lockstep=True)
        paths = shm_paths(eng)
        eng.run(StopCondition(max_generations=2))
        assert not any(p.exists() for p in paths)

    def test_unlinked_after_normal_free_run(self, make_engine):
        eng = make_engine()
        paths = shm_paths(eng)
        eng.run(StopCondition(max_generations=2))
        assert not any(p.exists() for p in paths)

    def test_unlinked_after_lockstep_exception(self, make_engine):
        eng = make_engine(lockstep=True)
        paths = shm_paths(eng)

        def boom(tid, rng, rec=None):
            raise RuntimeError("sweep failed")

        eng._step_block = boom
        with pytest.raises(RuntimeError, match="sweep failed"):
            eng.run(StopCondition(max_generations=2))
        assert not any(p.exists() for p in paths)

    def test_unlinked_after_worker_crash(self, make_engine):
        """A forked worker dying nonzero fails the run loudly — and the
        segments are still gone."""
        eng = make_engine()
        paths = shm_paths(eng)

        def die(tid, rng, rec=None):
            raise SystemExit(3)  # child exits nonzero, no traceback spam

        eng._step_block = die  # inherited by the forked children
        with pytest.raises(RuntimeError, match="shm workers failed"):
            eng.run(StopCondition(max_generations=2))
        assert not any(p.exists() for p in paths)

    def test_stall_kill_terminates_group_and_unlinks(self, make_engine):
        eng = make_engine(stall_kill_s=0.3)
        paths = shm_paths(eng)

        def hang(tid, rng, rec=None):
            time.sleep(60)
            return 0, 0

        eng._step_block = hang
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="stalled"):
            eng.run(StopCondition(max_evaluations=10_000))
        assert time.monotonic() - t0 < 10  # killed, not waited out
        assert not any(p.exists() for p in paths)

    def test_finalizer_backstop_for_never_run_engine(self, tiny_instance):
        eng = ShmBlockPACGA(tiny_instance, CFG.with_(n_threads=2), seed=0)
        paths = shm_paths(eng)
        assert all(p.exists() for p in paths)
        del eng
        gc.collect()
        assert not any(p.exists() for p in paths)

    def test_mappings_survive_unlink_for_repeat_runs(self, make_engine):
        """unlink removes the name only; a second run() still works on
        the same arrays."""
        eng = make_engine(lockstep=True)
        r1 = eng.run(StopCondition(max_generations=2))
        assert not any(p.exists() for p in shm_paths(eng))
        r2 = eng.run(StopCondition(max_generations=2))
        assert r2.evaluations == r1.evaluations
        eng.pop.check_invariants()


class TestFreeRunning:
    def test_population_consistent_after_run(self, make_engine):
        eng = make_engine(n_threads=2, seed=3)
        res = eng.run(StopCondition(max_generations=4))
        eng.pop.check_invariants()
        assert res.evaluations == sum(res.extra["per_thread_evaluations"])
        assert res.extra["n_threads"] == 2
        assert res.extra["lockstep"] is False
        assert res.extra["boundary_cells"] > 0

    def test_parent_sees_children_writes(self, make_engine):
        eng = make_engine(n_threads=2, seed=1)
        initial = eng.pop.fitness.copy()
        eng.run(StopCondition(max_generations=3))
        assert not np.array_equal(eng.pop.fitness, initial)

    def test_best_fitness_reflects_shared_state(self, make_engine):
        eng = make_engine(n_threads=2, seed=5)
        res = eng.run(StopCondition(max_generations=3))
        assert res.best_fitness == pytest.approx(eng.pop.fitness.min())

    def test_improves_over_initial(self, make_engine):
        eng = make_engine(n_threads=2, seed=2)
        initial = eng.pop.fitness.min()
        res = eng.run(StopCondition(max_generations=10))
        assert res.best_fitness <= initial

    def test_free_running_rejects_checkpoint_arming(self, make_engine):
        eng = make_engine()
        with pytest.raises(ValueError, match="lockstep"):
            eng.arm_checkpoint(1, lambda e: None)


class TestWorkerCollapse:
    """Oversubscribed workers fuse into ``min(n, cores)`` processes."""

    def test_collapsed_run_keeps_per_worker_accounting(self, make_engine):
        eng = make_engine(n_threads=4, seed=7)
        res = eng.run(StopCondition(max_generations=4))
        eng.pop.check_invariants()
        expected = min(4, os.cpu_count() or 1)
        assert res.extra["worker_processes"] == expected
        assert res.extra["n_threads"] == 4
        # every logical worker's counters advanced even when fused
        assert all(e > 0 for e in res.extra["per_thread_evaluations"])
        assert res.evaluations == sum(res.extra["per_thread_evaluations"])

    def test_oversubscribe_forces_full_fanout(self, make_engine):
        eng = make_engine(n_threads=2, seed=7, oversubscribe=True)
        res = eng.run(StopCondition(max_generations=2))
        assert res.extra["worker_processes"] == 2

    @pytest.mark.parametrize("cores", [1, 2])
    def test_collapse_fuses_blocks_on_any_host(self, make_engine, monkeypatch, cores):
        # the core count is pinned so the fused path runs on every host
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        monkeypatch.delenv("REPRO_SHM_OVERSUBSCRIBE", raising=False)
        eng = make_engine(n_threads=4, seed=7)
        res = eng.run(StopCondition(max_generations=4))
        assert res.extra["worker_processes"] == cores
        per_thread = res.extra["per_thread_evaluations"]
        assert all(e > 0 for e in per_thread)
        assert res.evaluations == sum(per_thread)
        eng.pop.check_invariants()
        assert (eng._seq % 2 == 0).all()  # every stamped row was finished
        if cores == 1:
            assert not eng._seq.any()  # one group: no row is seqlock-shared

    def test_fused_plan_structures(self, make_engine):
        eng = make_engine(n_threads=4)
        groups = [[0, 1], [2, 3]]
        for gid, unit in enumerate(eng._sweep_units(groups)):
            assert unit.gid == gid
            # fused cells are the member blocks, in order
            expected = np.concatenate([eng.blocks[t] for t in groups[gid]])
            assert np.array_equal(unit.cells, expected)
            assert np.array_equal(unit.nb, eng.neighbors[expected])
            # group ownership covers both member blocks
            assert (unit.owner[expected] == gid).all()
        # a single fused group reads nothing across processes
        (single,) = eng._sweep_units([[0, 1, 2, 3]])
        assert not single.shared.any()
        assert single.boundary == 0

    @pytest.mark.parametrize("side", [4, 8])
    @pytest.mark.parametrize("n_threads", [1, 2, 3, 4])
    def test_singleton_units_reproduce_block_ownership(
        self, make_engine, n_threads, side
    ):
        # lockstep and full fan-out breed these units; bit-exactness
        # rests on them matching the per-block partition
        eng = make_engine(n_threads=n_threads, grid_rows=side, grid_cols=side)
        block_id, shared = partition_ownership(
            eng.neighbors, eng.blocks, eng.grid.size
        )
        assert len(eng._units) == n_threads
        for t, unit in enumerate(eng._units):
            assert unit.gid == t
            assert np.array_equal(unit.cells, eng.blocks[t])
            assert np.array_equal(unit.owner, block_id)
            assert np.array_equal(unit.shared, shared)
            assert unit.boundary == eng._boundary_per_sweep[t]


class TestSeqlock:
    def test_publish_stamps_boundary_rows_only(self, make_engine):
        # 8x8 grid: a 2-block row-band split leaves interior rows whose
        # cells no foreign block reads (a 4x4 torus has none)
        eng = make_engine(lockstep=True, grid_rows=8, grid_cols=8)
        block, mask = eng.blocks[0], eng._units[0].shared
        shared = block[mask[block]]
        private = block[~mask[block]]
        assert shared.size and private.size
        rows = np.array([int(shared[0]), int(private[0])])
        seq_before = eng._seq.copy()
        s_rows = eng.pop.s[rows] ^ 0  # copies
        ct_rows = eng.pop.ct[rows] + 1.0
        fit_rows = eng.pop.fitness[rows] + 1.0
        eng._publish(rows, s_rows, ct_rows, fit_rows, mask)
        assert eng._seq[rows[0]] == seq_before[rows[0]] + 2  # stamped
        assert eng._seq[rows[0]] % 2 == 0  # consistent again
        assert eng._seq[rows[1]] == seq_before[rows[1]]  # plain store
        assert np.array_equal(eng.pop.ct[rows], ct_rows)
        assert np.array_equal(eng.pop.fitness[rows], fit_rows)

    def test_gather_returns_copies(self, make_engine):
        eng = make_engine(lockstep=True)
        ids = eng.blocks[1][:3]
        s, ct = eng._gather_rows(eng._units[0], ids)
        assert np.array_equal(s, eng.pop.s[ids])
        assert np.array_equal(ct, eng.pop.ct[ids])
        s[...] = -1  # mutating the copy must not touch the population
        assert (eng.pop.s[ids] >= 0).all()

    def test_seq_gather_retries_until_row_is_even(self, make_engine):
        """A reader landing mid-write (odd counter) spins until the
        writer finishes and then returns the *final* row."""
        eng = make_engine(lockstep=True)
        c = int(eng.blocks[1][0])
        eng._seq[c] += 1  # odd: row is mid-write

        def writer():
            time.sleep(0.05)
            eng.pop.s[c] = 0
            eng.pop.ct[c] += 7.0
            eng._seq[c] += 1  # even: consistent

        t = threading.Thread(target=writer)
        t.start()
        s, ct = eng._gather_rows(eng._units[0], np.array([c]))  # c is foreign
        t.join()
        assert (s[0] == 0).all()
        assert np.array_equal(ct[0], eng.pop.ct[c])


class TestPartitionOwnership:
    @pytest.mark.parametrize("n_blocks", [1, 2, 4])
    def test_shared_read_matches_naive_definition(self, tiny_instance, n_blocks):
        eng = ShmBlockPACGA(
            tiny_instance, CFG.with_(n_threads=n_blocks), seed=0
        )
        try:
            block_id, shared = partition_ownership(
                eng.neighbors, eng.blocks, eng.grid.size
            )
            naive = np.zeros(eng.grid.size, dtype=bool)
            for d in range(eng.grid.size):
                for c in eng.neighbors[d]:
                    if block_id[int(c)] != block_id[d]:
                        naive[int(c)] = True
            assert np.array_equal(shared, naive)
            if n_blocks == 1:
                assert not shared.any()
        finally:
            eng._arena.unlink()
