"""Data-parallel synchronous CGA: one generation = ~a dozen array ops.

:class:`VectorizedSyncCGA` breeds the *whole* population at once with
one call of the batch breeding step :func:`repro.kernels.breed.breed`
per generation instead of calling ``evolve_individual`` ``pop_size``
times per generation.  Semantically
it is :class:`repro.cga.engine.SyncCGA` — every child is bred against
the frozen parent generation and the population swaps once per
generation — but all randomness is drawn in per-generation blocks, so
a run is statistically (not bitwise) equivalent to the scalar engine
with the same seed.  The run loop itself is the sequential skeleton
:meth:`repro.cga.engine._EngineBase.run`; this module supplies only the
batch generation (``breed``, ``copyto``, ``spend``).

Because a generation is a single batch, stop conditions are checked at
generation granularity: an evaluation budget that is not a multiple of
the population size is overshot by at most ``pop_size - 1``
evaluations (the scalar engines stop mid-sweep instead).

Not every scalar operator has a batch kernel; configurations using one
that does not (e.g. ``rank`` selection or the ``random-move`` local
search) raise ``ValueError`` at construction, never silently fall back
to a slow path.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cga.config import CGAConfig
from repro.cga.engine import _EngineBase
from repro.cga.hooks import EngineHooks
from repro.kernels import resolve_batch_ops
from repro.kernels.breed import breed
from repro.runtime.budget import Budget

__all__ = ["VectorizedSyncCGA"]


class VectorizedSyncCGA(_EngineBase):
    """Synchronous CGA over whole-population NumPy kernels.

    Accepts the same construction arguments as the scalar engines; the
    operator *names* in the config are resolved against the batch
    registries in :mod:`repro.kernels` (raising ``ValueError`` for
    operators without a batch kernel).
    """

    engine_name = "vectorized"

    def __init__(
        self,
        instance,
        config: CGAConfig | None = None,
        rng: np.random.Generator | int | None = None,
        record_history: bool = True,
        hooks: EngineHooks | None = None,
        obs=None,
    ):
        super().__init__(instance, config, rng, record_history, hooks, obs)
        self._ops = resolve_batch_ops(self.config, problem=self.pop.problem)
        self._cells = np.arange(self.pop.size)
        # phase timings and counters are recorded by breed(); both stay
        # None on the uninstrumented path
        obs = self.obs
        self._rec = obs.recorder("main") if obs is not None else None
        self._tracer = obs.thread_tracer(0, "vectorized") if obs is not None else None

    def _generation(self, budget: Budget) -> None:
        """Breed the whole population in one batch, then swap it in."""
        pop, rec, tracer = self.pop, self._rec, self._tracer
        gen_start = time.perf_counter()
        # parents are gathered by fancy indexing, which copies the rows
        child_s, child_ct, child_fit, accept = breed(
            self._ops, self.config, self.instance, self.rng, self._cells,
            self.neighbors, pop.fitness,
            lambda ids: (pop.s[ids], pop.ct[ids]),
            lambda ids: pop.s[ids],
            rec,
        )
        np.copyto(pop.s, child_s, where=accept[:, None])
        np.copyto(pop.ct, child_ct, where=accept[:, None])
        np.copyto(pop.fitness, child_fit, where=accept)
        budget.spend(pop.size)
        if tracer is not None:
            tracer.complete(
                "generation",
                gen_start - self.obs.epoch,
                time.perf_counter() - gen_start,
                {"generation": budget.generations + 1},
            )
