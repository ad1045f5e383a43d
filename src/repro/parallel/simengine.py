"""Deterministic virtual-time simulation of PA-CGA.

A discrete-event scheduler interleaves ``n_threads`` *logical* threads:
each holds a block of the population, sweeps it in fixed line order and
is charged a modeled duration per breeding step
(:class:`repro.parallel.costmodel.CostModel`).  The logical thread with
the smallest virtual clock always acts next, so the execution is a
fully deterministic function of the seed — yet the *interleaving* of
block updates, the cross-boundary information flow and the
time-budgeted evaluation counts behave like the paper's real threads.

Fidelity notes (matching §3.2/§4.2):

* threads check the stop condition only after a *full block sweep*, so
  they overrun the budget by up to one sweep, exactly like the paper's
  "we accept this approximation";
* neighborhoods cross block boundaries, so a logical thread sees
  offspring written by others mid-sweep (asynchronous model);
* with ``n_threads=1`` the simulation replays the canonical
  asynchronous CGA, sweep for sweep.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.cga.config import CGAConfig, StopCondition
from repro.cga.engine import RunResult, evolve_individual
from repro.cga.hooks import as_hooks
from repro.parallel.costmodel import XEON_E5440, CostModel
from repro.parallel.partitioned import fire_generations
from repro.runtime.context import build_context, finish_run

__all__ = ["SimulatedPACGA"]

#: µs → s conversion for the virtual clock.
_US = 1e-6


class SimulatedPACGA:
    """PA-CGA under a virtual-time discrete-event scheduler.

    Parameters
    ----------
    instance:
        ETC instance to schedule.
    config:
        Algorithm parameterization (``n_threads`` = logical threads).
    seed:
        Seed-tree root; spawns one init stream plus two per logical
        thread (genetics, cost jitter) so changing the cost model never
        perturbs the genetic stream.
    cost_model:
        Virtual platform (default: the calibrated Xeon E5440 model).
    history_stride:
        Record a history row every this many block completions
        (1 = every completion; raise it for long runs).
    contention:
        How cross-thread synchronization is charged:

        * ``"meanfield"`` (default) — a deterministic surcharge on every
          boundary-crossing step (``t_boundary · sqrt(n−1)``), the
          calibrated model behind Fig. 4;
        * ``"tracked"`` — true lock bookkeeping in virtual time: each
          individual carries read/write lock-release times, steps queue
          behind actual conflicts, and cross-block accesses pay a
          cacheline-transfer charge.  Contention then *emerges* from
          the interleaving instead of being parameterized — the
          validation ablation compares both (DESIGN.md A7).
    obs:
        Optional :class:`repro.obs.Observer`.  The simulator records per
        logical-thread metrics and stamps trace spans with *virtual*
        clocks, so the exported timeline shows modeled time; in
        ``tracked`` mode the emergent lock waits land in the
        ``lock.*_wait_s_total`` counters.
    """

    engine_name = "sim"

    def __init__(
        self,
        instance,
        config: CGAConfig | None = None,
        seed: int | None = 0,
        cost_model: CostModel = XEON_E5440,
        history_stride: int = 1,
        contention: str = "meanfield",
        obs=None,
    ):
        if history_stride < 1:
            raise ValueError(f"history_stride must be >= 1, got {history_stride}")
        if contention not in ("meanfield", "tracked"):
            raise ValueError(
                f"contention must be 'meanfield' or 'tracked', got {contention!r}"
            )
        self.contention = contention
        self.cost_model = cost_model
        self.history_stride = history_stride
        ctx = build_context(
            instance,
            config,
            seed=seed,
            workers=(config or CGAConfig()).n_threads,
            jitter=True,
            obs=obs,
        )
        self.instance = instance
        self.config = ctx.config
        self.hooks = as_hooks(None)
        self.grid = ctx.grid
        self.neighbors = ctx.neighbors
        self.blocks = ctx.blocks
        self.orders = ctx.orders
        self.ops = ctx.ops
        #: per-individual flag: does the neighborhood leave the block?
        self.crosses = ctx.crosses
        self.boundary_fraction = ctx.boundary_fraction
        self._init_rng = ctx.init_rng
        self._gene_rngs = ctx.worker_rngs
        self._jitter_rngs = ctx.jitter_rngs
        self.pop = ctx.pop
        self._resume: dict | None = None
        self._ckpt = None
        self.obs = ctx.obs

    # ------------------------------------------------------------------
    # checkpoint protocol (runtime.checkpoint)
    # ------------------------------------------------------------------
    def arm_checkpoint(self, every, saver) -> None:
        """Install (or clear) a sweep-completion checkpoint callback."""
        self._ckpt = None if saver is None else (every, saver)

    def capture_state(self) -> dict:
        """RNG streams plus, mid-run, the full virtual-time scheduler.

        The simulator's clocks re-zero at every ``run`` start, so a
        resumable snapshot must carry the whole discrete-event state:
        per-thread clocks, sweep positions, counters, the event heap and
        (in ``tracked`` mode) the per-individual lock-release times.
        """
        sched = getattr(self, "_sched", None)
        progress = None
        if sched is not None:
            progress = {
                "contention": self.contention,
                "clocks": list(sched["clocks"]),
                "positions": list(sched["positions"]),
                "gens": list(sched["gens"]),
                "evals": list(sched["evals"]),
                "completions": sched["completions"](),
                "total_evals": sched["total_evals"](),
                "heap": [[c, t] for c, t in sched["heap"]],
                "history": [list(row) for row in sched["history"]],
            }
            if sched.get("write_until") is not None:
                progress["write_until"] = sched["write_until"].tolist()
                progress["read_until"] = sched["read_until"].tolist()
                progress["conflict_wait_s"] = sched["conflict_wait_s"]()
                progress["conflicts"] = sched["conflicts"]()
        return {
            "rng_streams": {
                "gene": [r.bit_generator.state for r in self._gene_rngs],
                "jitter": [r.bit_generator.state for r in self._jitter_rngs],
            },
            "progress": progress,
            "engine_options": {
                "history_stride": self.history_stride,
                "contention": self.contention,
            },
        }

    def restore_state(self, payload: dict) -> None:
        """Adopt a :meth:`capture_state` payload; next ``run`` resumes it."""
        streams = payload["rng_streams"]
        if len(streams["gene"]) != len(self._gene_rngs):
            raise ValueError(
                f"checkpoint has {len(streams['gene'])} logical threads, "
                f"engine has {len(self._gene_rngs)}"
            )
        for rng, state in zip(self._gene_rngs, streams["gene"]):
            rng.bit_generator.state = state
        for rng, state in zip(self._jitter_rngs, streams["jitter"]):
            rng.bit_generator.state = state
        progress = payload.get("progress")
        if progress is not None and progress.get("contention") != self.contention:
            raise ValueError(
                f"checkpoint was taken with contention="
                f"{progress.get('contention')!r}, engine has {self.contention!r}"
            )
        self._resume = progress

    # ------------------------------------------------------------------
    def run(self, stop: StopCondition) -> RunResult:
        """Simulate until the virtual budget or evaluation cap is hit.

        ``stop.virtual_time`` bounds every logical thread's clock (the
        paper's 90 s wall-clock criterion, in modeled seconds);
        ``stop.max_evaluations`` caps total evaluations;
        ``stop.max_generations`` caps the slowest thread's sweep count.
        At least one of the three must be set.
        """
        if stop.virtual_time is None and stop.max_evaluations is None and stop.max_generations is None:
            raise ValueError(
                "SimulatedPACGA needs virtual_time, max_evaluations or max_generations"
            )
        n = self.config.n_threads
        budget = stop.virtual_time
        pop, ops, neighbors, model = self.pop, self.ops, self.neighbors, self.cost_model
        ls_depth = (
            self.config.ls_iterations * self.config.p_ls if self.config.local_search else 0.0
        )

        resume, self._resume = self._resume, None
        if resume is None:
            clocks = [0.0] * n
            positions = [0] * n
            gens = [0] * n
            evals = [0] * n
            completions = 0
        else:
            clocks = [float(c) for c in resume["clocks"]]
            positions = [int(p) for p in resume["positions"]]
            gens = [int(g) for g in resume["gens"]]
            evals = [int(e) for e in resume["evals"]]
            completions = int(resume["completions"])
        obs = self.obs
        recs = None
        if obs is not None:
            # one recorder and trace lane per *logical* thread; spans are
            # stamped with virtual clocks, so the exported timeline shows
            # modeled time, not wall time
            recs = [obs.recorder(tid) for tid in range(n)]
            tracers = [obs.thread_tracer(tid, f"sim-{tid}") for tid in range(n)]
            sweep_starts = [0.0] * n
        tracked = self.contention == "tracked" and n > 1
        write_until = read_until = None
        if tracked:
            # virtual release times of each individual's locks (seconds)
            if resume is None:
                write_until = np.zeros(self.grid.size)
                read_until = np.zeros(self.grid.size)
                conflict_wait_total = 0.0
                conflicts = 0
            else:
                write_until = np.asarray(resume["write_until"], dtype=np.float64)
                read_until = np.asarray(resume["read_until"], dtype=np.float64)
                conflict_wait_total = float(resume["conflict_wait_s"])
                conflicts = int(resume["conflicts"])
            read_hold = model.t_read_hold * _US
            write_hold = model.t_write_hold * _US
            # cacheline ping-pong grows with the number of other cores
            # sharing the lines (MESI invalidation traffic)
            import math as _math

            cacheline = model.t_cacheline * _math.sqrt(n - 1) * _US
        history: list[tuple[float, int, float, float]] = []
        if resume is None:
            _, best0 = pop.best()
            history.append((0.0, 0, best0, pop.mean_fitness()))
            # (clock, tid) heap; tid breaks ties deterministically
            heap: list[tuple[float, int]] = [(0.0, tid) for tid in range(n)]
            total_evals = 0
        else:
            history.extend(tuple(row) for row in resume["history"])
            heap = [(float(c), int(tid)) for c, tid in resume["heap"]]
            total_evals = int(resume["total_evals"])
            # threads that hit the old run's stop were dropped from the
            # heap; re-seed them at their frozen clocks so a resume with
            # a larger budget lets them evolve again
            pending = {tid for _, tid in heap}
            heap.extend(
                (float(clocks[tid]), tid) for tid in range(n) if tid not in pending
            )
        heapq.heapify(heap)
        fired = min(gens)

        # live scheduler state, readable by capture_state at the sweep
        # boundaries where the checkpoint callback fires
        self._sched = {
            "clocks": clocks,
            "positions": positions,
            "gens": gens,
            "evals": evals,
            "heap": heap,
            "history": history,
            "completions": lambda: completions,
            "total_evals": lambda: total_evals,
            "write_until": write_until,
            "read_until": read_until,
            "conflict_wait_s": (lambda: conflict_wait_total) if tracked else None,
            "conflicts": (lambda: conflicts) if tracked else None,
        }
        while heap:
            clock, tid = heapq.heappop(heap)
            block = self.orders[tid]
            pos = positions[tid]
            if pos == 0:
                # stop checks happen only at sweep boundaries (§3.2)
                if budget is not None and clock >= budget:
                    continue
                if stop.max_generations is not None and gens[tid] >= stop.max_generations:
                    continue
            if stop.max_evaluations is not None and total_evals >= stop.max_evaluations:
                continue

            if recs is not None and pos == 0:
                sweep_starts[tid] = clock

            idx = int(block[pos])
            evolve_individual(pop, idx, neighbors[idx], ops, self._gene_rngs[tid])
            if tracked:
                # base computation (cache pressure + uncontended lock ops)
                base = (
                    model.compute_cost(ls_depth) * model.cache_factor(n) + model.t_lock
                )
                if model.jitter_sigma > 0:
                    base *= float(
                        self._jitter_rngs[tid].lognormal(0.0, model.jitter_sigma)
                    )
                base_s = base * _US
                row = neighbors[idx]
                # cacheline transfers for cross-block neighbor traffic
                extra = cacheline if self.crosses[idx] else 0.0
                # read locks queue behind in-flight writes on the targets
                read_wait = 0.0
                for r in row:
                    wait = write_until[r] - clock
                    if wait > read_wait:
                        read_wait = wait
                if read_wait > 0:
                    conflict_wait_total += read_wait
                    conflicts += 1
                else:
                    read_wait = 0.0
                reads_done = clock + read_wait + read_hold
                for r in row:
                    if read_until[r] < reads_done:
                        read_until[r] = reads_done
                # the replacement write queues behind readers and writers
                write_start = clock + read_wait + base_s + extra
                blocked_until = max(read_until[idx], write_until[idx])
                write_wait = blocked_until - write_start
                if write_wait > 0:
                    conflict_wait_total += write_wait
                    conflicts += 1
                    write_start = blocked_until
                write_until[idx] = write_start + write_hold
                clock = write_start + write_hold
                if recs is not None:
                    r = recs[tid]
                    if read_wait > 0:
                        r.inc("lock.read_wait_s_total", read_wait)
                        r.inc("lock.conflicts")
                    if write_wait > 0:
                        r.inc("lock.write_wait_s_total", write_wait)
                        r.inc("lock.conflicts")
            else:
                cost = model.step_cost(
                    n, ls_depth, bool(self.crosses[idx]), self._jitter_rngs[tid]
                )
                clock += cost * _US
            clocks[tid] = clock
            evals[tid] += 1
            total_evals += 1
            if recs is not None:
                rec = recs[tid]
                rec.inc("breeding.evaluations")
                rec.inc("breeding.steps")
                if self.crosses[idx]:
                    rec.inc("boundary_evals")

            pos += 1
            completed = pos == len(block)
            if completed:
                pos = 0
                gens[tid] += 1
                completions += 1
                if completions % self.history_stride == 0:
                    _, best = pop.best()
                    history.append(
                        (total_evals / pop.size, total_evals, best, pop.mean_fitness())
                    )
                if recs is not None:
                    rec = recs[tid]
                    dur = clock - sweep_starts[tid]
                    rec.inc("sweeps")
                    rec.observe("sweep_us", dur / _US)
                    if tracers[tid] is not None:
                        tracers[tid].complete(
                            "sweep", sweep_starts[tid], dur, {"generation": gens[tid]}
                        )
                    obs.maybe_sample(
                        total_evals,
                        lambda: {
                            **obs.engine_row(self, min(gens), total_evals),
                            "virtual_t_s": clock,
                        },
                        t_s=clock,
                    )
            positions[tid] = pos
            heapq.heappush(heap, (clock, tid))
            if completed and gens[tid] == fired + 1:
                # this sweep may have advanced the slowest logical thread
                fired = fire_generations(self, fired, min(gens), total_evals)
            if completed and self._ckpt is not None and completions % self._ckpt[0] == 0:
                # the heap now holds every pending event again, so the
                # snapshot is a consistent scheduler state
                self._ckpt[1](self)

        best_idx, best_fit = pop.best()
        result = RunResult(
            best_fitness=best_fit,
            best_assignment=pop.s[best_idx].copy(),
            evaluations=total_evals,
            generations=min(gens) if gens else 0,
            elapsed_s=max(clocks) if clocks else 0.0,
            history=history,
            extra={
                "per_thread_evaluations": evals,
                "per_thread_generations": gens,
                "per_thread_clocks": clocks,
                "n_threads": n,
                "boundary_fraction": self.boundary_fraction,
                "virtual_time": budget,
                "contention": self.contention,
                **(
                    {
                        "lock_conflicts": conflicts,
                        "conflict_wait_s": conflict_wait_total,
                    }
                    if tracked
                    else {}
                ),
            },
        )
        return finish_run(
            self,
            result,
            engine_name=self.engine_name,
            meta={"n_threads": n, "contention": self.contention},
            t_s=(max(clocks) if clocks else 0.0) if obs is not None else None,
        )
