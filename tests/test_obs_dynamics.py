"""Search-dynamics layer: grid snapshots, timelines, operator attribution."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cga.engine import EvolutionOps, evolve_individual
from repro.cga.replacement import replace_if_better
from repro.obs import GridDynamics, attribution_summary, record_batch_attribution
from repro.obs.dynamics import (
    StepTally,
    entropy_timeline,
    estimate_takeover_generation,
    fitness_entropy,
    load_grid_rows,
    selection_pressure_timeline,
    takeover_curve,
    takeover_fraction,
)
from repro.obs.metrics import MetricRecorder


class TestTakeoverFraction:
    def test_half_grid_at_best(self):
        assert takeover_fraction(np.array([1.0, 1.0, 2.0, 3.0])) == 0.5

    def test_converged_grid_is_one(self):
        assert takeover_fraction(np.full(9, 5.0)) == 1.0

    def test_empty_is_zero(self):
        assert takeover_fraction(np.array([])) == 0.0

    def test_rel_tol_absorbs_float_noise(self):
        best = 1e9
        fit = np.array([best, best * (1 + 1e-14), best * 1.5])
        assert takeover_fraction(fit) == pytest.approx(2 / 3)


class TestFitnessEntropy:
    def test_converged_grid_is_zero(self):
        assert fitness_entropy(np.full(16, 3.0)) == 0.0

    def test_empty_is_zero(self):
        assert fitness_entropy(np.array([])) == 0.0

    def test_two_even_buckets(self):
        # half the cells at each extreme: 2 of 16 bins occupied evenly
        # -> H = ln 2 / ln 16 = 0.25 exactly
        fit = np.array([1.0] * 8 + [2.0] * 8)
        assert fitness_entropy(fit) == pytest.approx(0.25)

    def test_sub_ulp_range_counts_as_converged(self):
        # a spread too small for 16 finite-sized histogram bins must not
        # crash the sampler (seen live on zero-copy threaded reads)
        fit = np.full(16, 7.5e6)
        fit[0] = np.nextafter(7.5e6, np.inf)
        assert fitness_entropy(fit) == 0.0

    def test_transient_nonfinite_cells_are_tolerated(self):
        fit = np.array([1.0, 2.0, np.inf, np.nan])
        assert 0.0 <= fitness_entropy(fit) <= 1.0
        assert fitness_entropy(np.array([np.inf, np.nan])) == 0.0

    def test_normalized_to_unit_interval(self):
        rng = np.random.default_rng(0)
        fit = rng.random(256)
        assert 0.0 < fitness_entropy(fit) <= 1.0


class TestGridDynamics:
    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            GridDynamics(0, 4)
        with pytest.raises(ValueError):
            GridDynamics(4, 4, keep_rows=1)

    def test_rejects_mismatched_fitness(self):
        dyn = GridDynamics(2, 3)
        with pytest.raises(ValueError, match="grid is 2x3"):
            dyn.snapshot(np.zeros(5), generation=0, t_s=0.0)

    def test_snapshot_schema(self):
        dyn = GridDynamics(2, 2)
        row = dyn.snapshot(np.array([4.0, 3.0, 2.0, 1.0]), generation=7, t_s=1.5)
        assert set(row) == {
            "t_s",
            "generation",
            "shape",
            "best",
            "mean",
            "takeover_fraction",
            "fitness_entropy",
            "fitness",
            "age",
            "improvements",
        }
        assert row["shape"] == [2, 2]
        assert row["generation"] == 7
        assert row["best"] == 1.0
        assert row["mean"] == 2.5
        assert len(row["fitness"]) == len(row["age"]) == len(row["improvements"]) == 4
        assert dyn.latest is row

    def test_age_and_improvement_tracking(self):
        dyn = GridDynamics(1, 3)
        dyn.snapshot(np.array([5.0, 5.0, 5.0]), generation=0, t_s=0.0)
        # cell 0 improves, cell 1 worsens (changed, not improved), cell 2 idle
        row = dyn.snapshot(np.array([4.0, 6.0, 5.0]), generation=1, t_s=1.0)
        assert row["improvements"] == [1, 0, 0]
        assert row["age"] == [0, 0, 2]
        row = dyn.snapshot(np.array([4.0, 6.0, 5.0]), generation=2, t_s=2.0)
        assert row["improvements"] == [1, 0, 0]
        assert row["age"] == [1, 1, 3]

    def test_keep_rows_retains_baseline_and_tail(self):
        dyn = GridDynamics(1, 2, keep_rows=3)
        for g in range(6):
            dyn.snapshot(np.array([6.0 - g, 6.0]), generation=g, t_s=float(g))
        assert dyn.n_total == 6
        assert len(dyn.rows) == 3
        assert dyn.rows[0]["generation"] == 0  # baseline survives eviction
        assert [r["generation"] for r in dyn.rows[1:]] == [4, 5]

    def test_streaming_keeps_every_row(self, tmp_path):
        path = tmp_path / "bundle" / "grid.jsonl"
        dyn = GridDynamics(1, 2, stream_to=path, keep_rows=2)
        for g in range(5):
            dyn.snapshot(np.array([5.0 - g, 5.0]), generation=g, t_s=float(g))
        dyn.close()
        dyn.close()  # idempotent
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["generation"] for r in rows] == [0, 1, 2, 3, 4]
        assert load_grid_rows(tmp_path / "bundle") == rows

    def test_load_grid_rows_missing_bundle(self, tmp_path):
        assert load_grid_rows(tmp_path) == []


class TestTimelines:
    def rows(self):
        return [
            {"t_s": 0.0, "generation": 0, "takeover_fraction": 0.1, "fitness_entropy": 0.9},
            {"t_s": 1.0, "generation": 4, "takeover_fraction": 0.3, "fitness_entropy": 0.6},
            {"t_s": 2.0, "generation": 9, "takeover_fraction": 0.7, "fitness_entropy": 0.2},
        ]

    def test_takeover_curve(self):
        assert takeover_curve(self.rows()) == [(0.0, 0.1), (1.0, 0.3), (2.0, 0.7)]

    def test_estimate_takeover_generation(self):
        assert estimate_takeover_generation(self.rows()) == 9
        assert estimate_takeover_generation(self.rows(), threshold=0.25) == 4
        assert estimate_takeover_generation(self.rows(), threshold=0.99) is None
        assert estimate_takeover_generation([]) is None

    def test_selection_pressure_timeline(self):
        timeline = selection_pressure_timeline(self.rows())
        assert [t["growth"] for t in timeline] == [
            pytest.approx(0.2),
            pytest.approx(0.4),
        ]
        assert timeline[0]["generation"] == 4

    def test_entropy_timeline(self):
        assert entropy_timeline(self.rows()) == [(0.0, 0.9), (1.0, 0.6), (2.0, 0.2)]


class TestAttributionSummary:
    def test_skips_silent_phases_and_orders_by_breeding(self):
        counters = {
            "op.ls.attempts": 10.0,
            "op.ls.successes": 4.0,
            "op.ls.delta": 12.5,
            "op.crossover.attempts": 20.0,
            "op.crossover.successes": 5.0,
            "op.crossover.delta": 9.0,
        }
        rows = attribution_summary(counters)
        assert [r["phase"] for r in rows] == ["crossover", "ls"]
        assert rows[0]["success_rate"] == 0.25
        assert rows[1] == {
            "phase": "ls",
            "attempts": 10,
            "successes": 4,
            "success_rate": 0.4,
            "delta": 12.5,
        }

    def test_empty_counters(self):
        assert attribution_summary({}) == []


@dataclass
class FakePop:
    """The slice of a population that ``evolve_individual`` touches."""

    fitness: np.ndarray
    s: np.ndarray
    ct: np.ndarray
    instance: object = None

    def write_individual(self, idx, s, ct, fitness):
        self.fitness[idx] = fitness


class TestAttributionParity:
    """Acceptance: the scalar step's tally and a hand recount agree.

    Real ``evolve_individual`` steps, with stub operators and fractional
    ``p_comb``/``p_mut``/``p_ls``, report into a :class:`StepTally`
    flushed every 32 steps (a sweep).  The ``op.*``/``breeding.*``/
    ``ls.*`` counters it records through the batch recorder must equal
    a recount of the same steps from the operators' own logs: attempt
    and success counts exactly, deltas up to float summation order.
    """

    def test_scalar_vs_batch_counts_identical(self):
        n, sweep, iterations = 256, 32, 10
        data = np.random.default_rng(42)
        incumbent = data.random(n) * 100.0
        child = incumbent + data.normal(0.0, 10.0, n)
        moves = data.integers(0, 4, n)
        applied: dict[str, list[int]] = {"crossover": [], "mutation": [], "ls": []}
        step = 0

        def recombine(inst, p1_s, p1_ct, p2_s, crossover, rng):
            applied["crossover"].append(step)
            return p1_s, p1_ct

        def mutate(s, ct, inst, rng):
            applied["mutation"].append(step)

        def local_search(s, ct, inst, rng, iterations, n_candidates):
            applied["ls"].append(step)
            return int(moves[step])

        ops = EvolutionOps(
            fitness=lambda s, ct, inst: child[step],
            select=lambda fit, rng: (0, 1),
            crossover=None,
            p_comb=0.8,
            mutate=mutate,
            p_mut=0.3,
            local_search=local_search,
            p_ls=0.5,
            ls_iterations=iterations,
            ls_candidates=None,
            replace=replace_if_better,
            recombine=recombine,
        )
        pop = FakePop(incumbent.copy(), np.zeros((n, 1)), np.zeros((n, 1)))
        rec = MetricRecorder("scalar")
        tally = StepTally(rec, ops)
        rng = np.random.default_rng(7)
        replaced = []
        for step in range(n):
            neighbors = np.array([step, (step + 1) % n])
            replaced.append(evolve_individual(pop, step, neighbors, ops, rng, tally=tally))
            if (step + 1) % sweep == 0:
                tally.flush()

        accept = child < incumbent
        assert replaced == accept.tolist()
        delta = incumbent - child
        c = rec.counters
        for phase, steps in (*applied.items(), ("replacement", range(n))):
            hits = [i for i in steps if accept[i]]
            assert c[f"op.{phase}.attempts"] == len(steps), phase
            assert c[f"op.{phase}.successes"] == len(hits), phase
            assert c[f"op.{phase}.delta"] == pytest.approx(delta[hits].sum()), phase
        assert c["breeding.evaluations"] == c["breeding.steps"] == n
        assert c["breeding.replacements"] == accept.sum()
        assert c["ls.calls"] == len(applied["ls"])
        assert c["ls.moves_accepted"] == moves[applied["ls"]].sum()
        assert c["ls.moves_tried"] == len(applied["ls"]) * iterations
        # the steps exercised every phase, each with hits and misses
        for steps in applied.values():
            assert 0 < sum(accept[steps]) < len(steps) < n
        # one step in 8 was lapped in full
        assert rec.histograms["phase.ls_us"].count == n // 8

    def test_disabled_phase_emits_no_keys(self):
        batch: dict = {}
        record_batch_attribution(
            batch,
            np.array([True, False]),
            np.array([1.0, 5.0]),
            np.array([2.0, 4.0]),
            crossover=np.array([True, True]),
        )
        assert "op.mutation.attempts" not in batch
        assert "op.ls.attempts" not in batch
        assert batch["op.crossover.attempts"] == 2
        assert batch["op.crossover.successes"] == 1
        assert batch["op.crossover.delta"] == pytest.approx(1.0)
        assert batch["op.replacement.delta"] == pytest.approx(1.0)
