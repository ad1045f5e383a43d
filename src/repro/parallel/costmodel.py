"""Virtual-time cost model of the paper's execution platform.

The paper's speedup study (Fig. 4) runs on a 4-core Intel Xeon E5440
with a shared 6 MB L2 cache.  That hardware is not available here, so
the simulator charges each breeding step a *modeled* duration composed
of the mechanisms the paper identifies in §4.2:

* **computation** — breeding (selection, crossover, mutation,
  evaluation) plus ``iter`` local-search passes; local search runs on
  the private offspring, outside any synchronization;
* **lock overhead** — every step acquires neighborhood read locks and
  one write lock even when uncontended;
* **boundary serialization** — when the neighborhood crosses a block
  boundary the RW lock may serialize with another thread; the charge
  grows with the number of *other* threads;
* **cache pressure** — all threads share the L2, so per-thread compute
  slows as threads are added, sharply beyond 3 (the paper: "increasing
  the number of threads with little data locality negatively impacts
  performance").

Calibration: the defaults in :data:`XEON_E5440` were fitted so that the
*expected* speedup ``S(n) = n · C(1) / C(n)`` reproduces the shape of
Fig. 4 — monotone slowdown for 0 LS iterations, ~flat for 1, positive
speedup peaking/plateauing at 3 threads for 5 and 10 iterations.  Units
are microseconds of virtual time; absolute values are irrelevant, only
ratios matter.

The simulator charges each step through one of the
:data:`CONTENTION_POLICIES` built on the model: ``meanfield`` or
``tracked`` (DESIGN.md A7 compares the two).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CostModel",
    "XEON_E5440",
    "MeanFieldContention",
    "TrackedContention",
    "CONTENTION_POLICIES",
]

#: µs → s conversion for the virtual clock.
_US = 1e-6


@dataclass(frozen=True)
class CostModel:
    """Per-step virtual cost parameters (µs)."""

    #: breeding cost: selection + crossover + mutation + evaluation.
    t_breed: float = 6.0
    #: one H2LL pass on the private offspring.
    t_ls_iter: float = 6.0
    #: uncontended lock traffic of one step (k reads + 1 write).
    t_lock: float = 8.0
    #: serialization charge when the neighborhood crosses a block
    #: boundary, scaled by sqrt(#other threads) (mean-field mode).
    t_boundary: float = 74.0
    #: tracked mode: virtual duration a read lock is held per neighbor.
    t_read_hold: float = 2.0
    #: tracked mode: virtual duration the replacement write lock is held.
    t_write_hold: float = 4.0
    #: tracked mode: cacheline-transfer charge per cross-block access
    #: (paid even without a lock conflict; scaled by sqrt(#other
    #: threads) in the simulator — invalidation traffic grows with the
    #: number of cores sharing the lines).
    t_cacheline: float = 64.0
    #: linear L2-sharing slowdown per extra thread.
    cache_alpha: float = 0.03
    #: additional slowdown per thread beyond 3 (L2 saturation).
    cache_beta: float = 0.3
    #: lognormal jitter sigma on each step (0 disables jitter).
    jitter_sigma: float = 0.05

    def __post_init__(self) -> None:
        for name in (
            "t_breed",
            "t_ls_iter",
            "t_lock",
            "t_boundary",
            "t_read_hold",
            "t_write_hold",
            "t_cacheline",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")

    # ------------------------------------------------------------------
    def cache_factor(self, n_threads: int) -> float:
        """Compute-slowdown multiplier from L2 sharing."""
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        return 1.0 + self.cache_alpha * (n_threads - 1) + self.cache_beta * max(0, n_threads - 3)

    def compute_cost(self, ls_iterations: float) -> float:
        """Pure computation of one step at a given LS depth (µs, 1 thread)."""
        if ls_iterations < 0:
            raise ValueError("ls_iterations must be >= 0")
        return self.t_breed + ls_iterations * self.t_ls_iter

    def step_cost(
        self,
        n_threads: int,
        ls_iterations: float,
        crosses_boundary: bool,
        rng: np.random.Generator | None = None,
    ) -> float:
        """Virtual duration of one breeding step (µs).

        ``crosses_boundary`` is the precomputed per-individual flag (its
        neighborhood reaches into another block).  ``rng`` adds
        multiplicative lognormal jitter so logical threads do not march
        in lockstep.
        """
        cost = self.expected_step_cost(n_threads, ls_iterations, float(crosses_boundary))
        if rng is not None and self.jitter_sigma > 0:
            cost *= float(rng.lognormal(mean=0.0, sigma=self.jitter_sigma))
        return cost

    # ------------------------------------------------------------------
    # closed-form expectations (used for calibration tests and quick
    # what-if analyses without running the simulator)
    # ------------------------------------------------------------------
    def expected_step_cost(
        self, n_threads: int, ls_iterations: float, boundary_fraction: float
    ) -> float:
        """Mean step cost when ``boundary_fraction`` of cells cross blocks."""
        if not 0.0 <= boundary_fraction <= 1.0:
            raise ValueError("boundary_fraction must be in [0, 1]")
        base = self.compute_cost(ls_iterations) * self.cache_factor(n_threads) + self.t_lock
        if n_threads > 1:
            base += boundary_fraction * self.t_boundary * math.sqrt(n_threads - 1)
        return base

    def predicted_speedup(
        self, n_threads: int, ls_iterations: float, boundary_fraction: float
    ) -> float:
        """Expected Fig.-4 speedup ``#evaluations(n) / #evaluations(1)``.

        With a fixed virtual wall-time ``T`` every thread performs
        ``T / C(n)`` steps, so the ratio is ``n · C(1) / C(n)``
        (eq. 5 of the paper with time replaced by modeled time).
        """
        c1 = self.expected_step_cost(1, ls_iterations, 0.0)
        cn = self.expected_step_cost(n_threads, ls_iterations, boundary_fraction)
        return n_threads * c1 / cn


#: Default model calibrated against Fig. 4 (see module docstring).
XEON_E5440 = CostModel()


class MeanFieldContention:
    """``meanfield`` policy: every step costs :meth:`CostModel.step_cost`,
    whose boundary surcharge stands in for the lock waits (Fig. 4's
    calibrated model).  Built per run from the model, ``n_threads`` at
    LS depth ``ls_depth``, the cells' ``crosses`` flags and ``neighbors``,
    the per-thread jitter streams and, on resume, the checkpoint
    ``progress`` holding the policy's :meth:`state`."""

    def __init__(self, model, n_threads, ls_depth, crosses, neighbors, jitter_rngs,
                 progress=None):
        self.model, self.n_threads, self.ls_depth = model, n_threads, ls_depth
        self.crosses, self.neighbors, self.jitter_rngs = crosses, neighbors, jitter_rngs

    def charge(self, tid: int, idx: int, clock: float) -> float:
        """Thread ``tid``'s clock (s) after breeding cell ``idx`` from ``clock``."""
        cost = self.model.step_cost(
            self.n_threads, self.ls_depth, bool(self.crosses[idx]), self.jitter_rngs[tid]
        )
        return clock + cost * _US

    def state(self) -> dict:
        """The policy's keys of a checkpoint ``progress``."""
        return {}

    def extra(self) -> dict:
        """The policy's ``RunResult.extra`` entries."""
        return {}

    def flush(self, tid: int, rec) -> None:
        """Record thread ``tid``'s contention telemetry since its last flush."""


class TrackedContention(MeanFieldContention):
    """``tracked`` policy: lock bookkeeping in virtual time.  Each cell
    carries the release times of its read and write locks; reads queue
    behind in-flight writes, the replacement write behind readers and
    writers, and a boundary step pays a cacheline-transfer charge
    growing with ``sqrt(n−1)`` (MESI traffic), so contention emerges
    from the interleaving.  Each wait is one ``lock.conflicts``."""

    def __init__(self, model, n_threads, ls_depth, crosses, neighbors, jitter_rngs,
                 progress=None):
        super().__init__(model, n_threads, ls_depth, crosses, neighbors, jitter_rngs)
        #: uncontended step cost (µs): cache pressure plus lock traffic
        self.base = model.compute_cost(ls_depth) * model.cache_factor(n_threads) + model.t_lock
        self.cacheline = model.t_cacheline * math.sqrt(n_threads - 1) * _US
        progress = progress or {}
        zeros = np.zeros(len(crosses))
        self.write_until = np.array(progress.get("write_until", zeros), dtype=np.float64)
        self.read_until = np.array(progress.get("read_until", zeros), dtype=np.float64)
        self.conflict_wait_s = float(progress.get("conflict_wait_s", 0.0))
        self.conflicts = int(progress.get("conflicts", 0))
        #: per thread: [read wait s, write wait s, conflicts] not yet flushed
        self._unflushed = [[0.0, 0.0, 0] for _ in range(n_threads)]

    def charge(self, tid: int, idx: int, clock: float) -> float:
        base = self.base
        if self.model.jitter_sigma > 0:
            base *= float(self.jitter_rngs[tid].lognormal(0.0, self.model.jitter_sigma))
        row, write_until, read_until = self.neighbors[idx], self.write_until, self.read_until
        # read locks queue behind in-flight writes on the targets
        read_wait = max(0.0, float((write_until[row] - clock).max()))
        reads_done = clock + read_wait + self.model.t_read_hold * _US
        read_until[row] = np.maximum(read_until[row], reads_done)
        # the replacement write (after the step's computation and, across
        # blocks, its cacheline transfers) queues behind readers and writers
        extra = self.cacheline if self.crosses[idx] else 0.0
        write_start = clock + read_wait + base * _US + extra
        blocked_until = max(read_until[idx], write_until[idx])
        write_wait = max(0.0, blocked_until - write_start)
        if write_wait > 0:
            write_start = blocked_until
        for slot, wait in enumerate((read_wait, write_wait)):
            if wait > 0:
                self.conflict_wait_s += wait
                self.conflicts += 1
                self._unflushed[tid][slot] += wait
                self._unflushed[tid][2] += 1
        write_until[idx] = end = write_start + self.model.t_write_hold * _US
        return end

    def state(self) -> dict:
        return {
            "write_until": self.write_until.tolist(),
            "read_until": self.read_until.tolist(),
            "conflict_wait_s": self.conflict_wait_s,
            "conflicts": self.conflicts,
        }

    def extra(self) -> dict:
        return {"lock_conflicts": self.conflicts, "conflict_wait_s": self.conflict_wait_s}

    def flush(self, tid: int, rec) -> None:
        read_wait, write_wait, conflicts = self._unflushed[tid]
        if conflicts:
            rec.inc("lock.read_wait_s_total", read_wait)
            rec.inc("lock.write_wait_s_total", write_wait)
            rec.inc("lock.conflicts", conflicts)
            self._unflushed[tid] = [0.0, 0.0, 0]


#: the simulator's ``contention=`` choices
CONTENTION_POLICIES = {"meanfield": MeanFieldContention, "tracked": TrackedContention}
