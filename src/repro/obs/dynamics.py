"""Search-dynamics observability: operator attribution + grid snapshots.

PRs 2–3 observe the *runtime* (phase latencies, locks, heartbeats);
this module observes the *algorithm* — the evidence layer the paper's
async-vs-sync comparison actually argues from:

* **Operator attribution** — per-operator attempt / success /
  fitness-delta counters under a shared ``op.<phase>.<metric>`` naming
  scheme, recorded once per sweep by :func:`record_breeding` together
  with the ``breeding.*`` and ``ls.*`` counters.  The batch breeding
  step :func:`repro.kernels.breed.breed` (vectorized engine, shm block
  workers) passes its whole-generation masks; the scalar step
  :func:`repro.cga.engine.evolve_individual` reports each step into a
  :class:`StepTally`, whose flush passes the sweep's reports as the
  same masks.  Attribution is therefore engine-uniform and the parity
  test can demand identical success counts in lockstep.
* **Grid dynamics** — :class:`GridDynamics` turns periodic per-cell
  fitness snapshots into a ``grid.jsonl`` stream (fitness / age /
  improvement-count arrays per row) plus derived takeover-fraction and
  fitness-entropy fields.
* **Timeline estimators** — :func:`takeover_curve`,
  :func:`estimate_takeover_generation` and
  :func:`selection_pressure_timeline` distill the grid rows into the
  takeover-front and selection-pressure curves the cellular-GA
  literature uses to compare update schemes.

Credit assignment follows the standard adaptive-operator-selection
rule: every operator that touched an accepted child shares the full
fitness improvement (no splitting), so a crossover-then-LS success
credits both operators.  Counters live in plain recorder dicts — the
same lock-free, merge-on-read discipline as the rest of ``repro.obs``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

__all__ = [
    "ATTRIBUTION_PHASES",
    "record_batch_attribution",
    "record_breeding",
    "StepTally",
    "attribution_summary",
    "GridDynamics",
    "takeover_fraction",
    "fitness_entropy",
    "takeover_curve",
    "estimate_takeover_generation",
    "selection_pressure_timeline",
    "entropy_timeline",
    "load_grid_rows",
]

#: attribution phases, in breeding order.  Keys are
#: ``op.<phase>.attempts`` / ``.successes`` / ``.delta``; the configured
#: operator *name* for each phase lives in the run's config/meta, not in
#: the key, so scalar and batch paths emit byte-identical key sets.
ATTRIBUTION_PHASES = ("crossover", "mutation", "ls", "replacement")


def _credit(counters: dict, phase: str, attempts: int, successes: int, delta: float) -> None:
    base = f"op.{phase}."
    counters[base + "attempts"] = counters.get(base + "attempts", 0.0) + attempts
    counters[base + "successes"] = counters.get(base + "successes", 0.0) + successes
    counters[base + "delta"] = counters.get(base + "delta", 0.0) + delta


def record_batch_attribution(
    counters: dict,
    accept: np.ndarray,
    child_fit: np.ndarray,
    incumbent_fit: np.ndarray,
    crossover: np.ndarray | None = None,
    mutation: np.ndarray | None = None,
    ls: np.ndarray | None = None,
) -> None:
    """Fold one batch generation's operator outcomes into ``counters``.

    ``accept`` is the replacement mask, ``child_fit`` /
    ``incumbent_fit`` the per-row fitness pair the replacement rule
    compared, and ``crossover`` / ``mutation`` / ``ls`` the boolean
    applied-masks of each variation phase (None = phase disabled this
    generation).  Must be called *before* the accepted children are
    written back, while ``incumbent_fit`` still holds the incumbents.

    Attempts = rows the operator touched, successes = touched rows
    whose child replaced the incumbent, delta = summed fitness
    improvement of those rows.
    """
    accept = np.asarray(accept, dtype=bool)
    delta = np.asarray(incumbent_fit, dtype=float) - np.asarray(child_fit, dtype=float)
    for phase, mask in (("crossover", crossover), ("mutation", mutation), ("ls", ls)):
        if mask is None:
            continue
        mask = np.asarray(mask, dtype=bool)
        hit = mask & accept
        _credit(
            counters,
            phase,
            int(mask.sum()),
            int(hit.sum()),
            float(delta[hit].sum()),
        )
    _credit(
        counters,
        "replacement",
        int(accept.size),
        int(accept.sum()),
        float(delta[accept].sum()),
    )


def record_breeding(
    rec, accept, child_fit, incumbent_fit, crossover, mutation,
    ls=None, ls_moves: int = 0, ls_iterations: int = 0,
) -> None:
    """Record one sweep of breeding steps into the recorder ``rec``.

    The one recorder of both breeding paths: the ``op.*`` attribution
    (:func:`record_batch_attribution`), ``breeding.{evaluations,steps,
    replacements}`` and, when an LS is configured (``ls`` is its
    applied-mask, None otherwise), ``ls.calls``, ``ls.moves_accepted``
    (``ls_moves``, the summed LS return values) and ``ls.moves_tried``
    (``ls.calls × ls_iterations``).
    """
    record_batch_attribution(
        rec.counters, accept, child_fit, incumbent_fit,
        crossover=crossover, mutation=mutation, ls=ls,
    )
    rec.inc("breeding.evaluations", accept.size)
    rec.inc("breeding.steps", accept.size)
    rec.inc("breeding.replacements", int(np.count_nonzero(accept)))
    if ls is not None:
        calls = int(np.count_nonzero(ls))
        rec.inc("ls.calls", calls)
        rec.inc("ls.moves_accepted", int(ls_moves))
        rec.inc("ls.moves_tried", calls * ls_iterations)


#: one scalar breeding step in ``STEP_SAMPLE_MASK + 1`` is observed in full
STEP_SAMPLE_MASK = 7
_PHASES = ("select", "crossover", "mutate", "ls", "fitness")


class StepTally:
    """One worker's reports of its scalar breeding steps, recorded per sweep.

    :func:`repro.cga.engine.evolve_individual` calls :meth:`begin` at
    the start of every step and appends one report to :attr:`reports`
    at its end: ``(crossed, mutated, ls_moves, child_fit, incumbent_fit,
    replaced)``, with ``ls_moves`` the LS return value or -1 when no LS
    ran.  One step in eight is observed in full: :meth:`begin` hands it
    a lap list that the step stamps after each phase, and the step runs
    under the timed lock view ``locks`` (when given) instead of its
    plain locks.  The other seven run the plain operators and locks.

    :meth:`flush` records the sweep once: the counters through
    :func:`record_breeding`, the lapped ``phase.*_us`` timings, and the
    lock totals of ``locks`` scaled by steps / observed steps.  The
    tally belongs to one thread, like its recorder ``rec``.
    """

    __slots__ = (
        "rec", "locks", "reports", "_ls", "_ls_iterations", "_laps", "_steps",
        "_observed",
    )

    def __init__(self, rec, ops, locks=None):
        self.rec = rec
        self.locks = locks
        self.reports: list[tuple] = []
        self._ls = ops.local_search is not None
        self._ls_iterations = ops.ls_iterations
        self._laps: list[list[float]] = []
        self._steps = 0
        self._observed = 0

    def begin(self) -> list[float] | None:
        """Count one step; its lap list if it is the observed one, else None."""
        n = self._steps
        self._steps = n + 1
        if n & STEP_SAMPLE_MASK:
            return None
        self._observed += 1
        laps = [perf_counter()]
        self._laps.append(laps)
        return laps

    def flush(self) -> None:
        """Record the reports and laps gathered since the last flush."""
        reports, rec = self.reports, self.rec
        if not reports:
            return
        crossed, mutated, moves, child, incumbent, replaced = np.array(
            reports, dtype=float
        ).T
        record_breeding(
            rec, replaced != 0, child, incumbent, crossed != 0, mutated != 0,
            moves >= 0 if self._ls else None, moves.clip(0).sum(),
            self._ls_iterations,
        )
        if self._laps:
            lapped = np.diff(np.array(self._laps), axis=1) * 1e6
            for phase, column in zip(_PHASES, lapped.T):
                if phase != "ls" or self._ls:
                    observe = rec.hist(f"phase.{phase}_us").observe
                    for us in column.tolist():
                        observe(us)
        if self.locks is not None:
            self.locks.flush(self._steps / self._observed)
        reports.clear()
        self._laps.clear()


def attribution_summary(counters: dict) -> list[dict]:
    """The ``op.*`` counters as one row per phase (report/TUI shape).

    Rows appear in breeding order and only for phases that recorded at
    least one attempt; each carries ``phase``, ``attempts``,
    ``successes``, ``success_rate`` and ``delta`` (total fitness
    improvement credited to the phase).
    """
    rows = []
    for phase in ATTRIBUTION_PHASES:
        attempts = counters.get(f"op.{phase}.attempts", 0.0)
        if not attempts:
            continue
        successes = counters.get(f"op.{phase}.successes", 0.0)
        rows.append(
            {
                "phase": phase,
                "attempts": int(attempts),
                "successes": int(successes),
                "success_rate": successes / attempts,
                "delta": counters.get(f"op.{phase}.delta", 0.0),
            }
        )
    return rows


# -- grid snapshots --------------------------------------------------------

def takeover_fraction(fitness: np.ndarray, rel_tol: float = 1e-12) -> float:
    """Fraction of cells holding the current best fitness.

    The discrete takeover front of the takeover-time literature: how
    much of the grid the best solution class has conquered.  ``rel_tol``
    absorbs float noise from incremental CT updates.
    """
    fitness = np.asarray(fitness, dtype=float)
    if fitness.size == 0:
        return 0.0
    best = float(fitness.min())
    return float((fitness <= best + abs(best) * rel_tol).sum() / fitness.size)


def fitness_entropy(fitness: np.ndarray, bins: int = 16) -> float:
    """Normalized Shannon entropy of the cell-fitness distribution.

    1.0 = cells spread evenly over the observed fitness range, 0.0 =
    every cell in one bucket (a converged/collapsed grid).  Uses the
    snapshot's own min–max range, so the measure tracks *relative*
    diversity as the population improves.
    """
    fitness = np.asarray(fitness, dtype=float)
    if fitness.size == 0:
        return 0.0
    if not np.isfinite(fitness).all():
        # engines are sampled zero-copy mid-run; tolerate transient
        # not-yet-evaluated cells rather than crash the sampler
        fitness = fitness[np.isfinite(fitness)]
        if fitness.size == 0:
            return 0.0
    lo, hi = float(fitness.min()), float(fitness.max())
    span = hi - lo
    # a span within a few ulps cannot be split into `bins` finite-sized
    # histogram bins — the grid is numerically converged
    if span <= max(abs(lo), abs(hi), 1.0) * bins * np.finfo(np.float64).eps:
        return 0.0
    counts, _ = np.histogram(fitness, bins=bins, range=(lo, hi))
    p = counts[counts > 0] / fitness.size
    return float(-(p * np.log(p)).sum() / math.log(bins))


class GridDynamics:
    """Per-cell search-dynamics tracker fed by periodic fitness snapshots.

    Each :meth:`snapshot` call diffs the population fitness vector
    against the previous snapshot to maintain per-cell improvement
    counts and ages, then emits one JSON-ready row (streamed to
    ``grid.jsonl`` when ``stream_to`` is given, retained in memory up
    to ``keep_rows`` either way).  Diff-based tracking costs the engine
    hot path nothing and works identically for every engine family —
    including forked shm workers, whose population the parent reads
    zero-copy.

    ``age`` counts *snapshots* since a cell's fitness last changed (not
    generations: the parallel engines sample at evaluation cadence
    where a global generation number is ill-defined).
    """

    def __init__(self, rows: int, cols: int, stream_to=None, keep_rows: int = 512):
        if rows < 1 or cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {rows}x{cols}")
        if keep_rows < 2:
            raise ValueError(f"keep_rows must be >= 2, got {keep_rows}")
        self.shape = (int(rows), int(cols))
        n = rows * cols
        self.improvements = np.zeros(n, dtype=np.int64)
        self._age = np.zeros(n, dtype=np.int64)
        self._prev: np.ndarray | None = None
        self.rows: list[dict] = []
        self.keep_rows = keep_rows
        self.n_total = 0
        self.stream_path = Path(stream_to) if stream_to is not None else None
        self._sink = None

    @property
    def latest(self) -> dict | None:
        """The newest emitted row (None before the first snapshot)."""
        return self.rows[-1] if self.rows else None

    def snapshot(self, fitness: np.ndarray, generation: int, t_s: float) -> dict:
        """Diff ``fitness`` against the last snapshot and emit one row."""
        # always copy: shm engines hand over a live view of the shared
        # fitness arena, and every statistic below must see one
        # consistent read (np.histogram re-reads its input after range
        # checking — a concurrent worker write in between turns into
        # negative bin indices and a crash)
        fitness = np.array(fitness, dtype=float)
        if fitness.size != self.shape[0] * self.shape[1]:
            raise ValueError(
                f"fitness has {fitness.size} cells, grid is {self.shape[0]}x{self.shape[1]}"
            )
        if self._prev is None:
            changed = np.zeros(fitness.size, dtype=bool)
            improved = changed
        else:
            changed = fitness != self._prev
            improved = fitness < self._prev
        self.improvements[improved] += 1
        self._age += 1
        self._age[changed] = 0
        self._prev = fitness.copy()
        row = {
            "t_s": float(t_s),
            "generation": int(generation),
            "shape": list(self.shape),
            "best": float(fitness.min()),
            "mean": float(fitness.mean()),
            "takeover_fraction": takeover_fraction(fitness),
            "fitness_entropy": fitness_entropy(fitness),
            "fitness": np.round(fitness, 4).tolist(),
            "age": self._age.tolist(),
            "improvements": self.improvements.tolist(),
        }
        if self.stream_path is not None:
            if self._sink is None:
                self.stream_path.parent.mkdir(parents=True, exist_ok=True)
                self._sink = open(self.stream_path, "w", encoding="utf-8")
            self._sink.write(json.dumps(row) + "\n")
            self._sink.flush()
        if len(self.rows) >= self.keep_rows:
            del self.rows[1]  # keep row 0 (the baseline) and the newest tail
        self.rows.append(row)
        self.n_total += 1
        return row

    def close(self) -> None:
        """Flush and close the streaming sink (idempotent)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None


# -- derived timelines -----------------------------------------------------

def takeover_curve(rows: list[dict]) -> list[tuple[float, float]]:
    """``(t_s, takeover_fraction)`` per grid row — the takeover front."""
    return [
        (row["t_s"], row["takeover_fraction"])
        for row in rows
        if "takeover_fraction" in row
    ]


def estimate_takeover_generation(rows: list[dict], threshold: float = 0.5) -> int | None:
    """First snapshot generation where the best class holds ``threshold``
    of the grid (None if the run never got there) — the discrete
    takeover-time estimator used to compare update schemes."""
    for row in rows:
        if row.get("takeover_fraction", 0.0) >= threshold:
            return int(row.get("generation", 0))
    return None


def selection_pressure_timeline(rows: list[dict]) -> list[dict]:
    """Takeover growth rate between consecutive snapshots.

    The classic selection-pressure proxy: faster takeover front growth
    = higher pressure (async sweeps should show a steeper early slope
    than sync — the paper's central dynamics claim).  Each entry maps a
    snapshot to ``d(takeover_fraction)/d(snapshot)``.
    """
    out = []
    prev = None
    for row in rows:
        frac = row.get("takeover_fraction")
        if frac is None:
            continue
        if prev is not None:
            out.append(
                {
                    "t_s": row["t_s"],
                    "generation": row.get("generation", 0),
                    "takeover_fraction": frac,
                    "growth": frac - prev,
                }
            )
        prev = frac
    return out


def entropy_timeline(rows: list[dict]) -> list[tuple[float, float]]:
    """``(t_s, fitness_entropy)`` per grid row — diversity decay curve."""
    return [
        (row["t_s"], row["fitness_entropy"]) for row in rows if "fitness_entropy" in row
    ]


def load_grid_rows(bundle_dir) -> list[dict]:
    """Reload the ``grid.jsonl`` rows of a bundle (empty list if absent)."""
    path = Path(bundle_dir) / "grid.jsonl"
    if not path.exists():
        return []
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
