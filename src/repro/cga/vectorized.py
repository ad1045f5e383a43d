"""Data-parallel synchronous CGA: one generation = ~a dozen array ops.

:class:`VectorizedSyncCGA` breeds the *whole* population at once with
one call of the batch breeding step :func:`repro.kernels.breed.breed`
per generation instead of calling ``evolve_individual`` ``pop_size``
times per generation.  Semantically
it is :class:`repro.cga.engine.SyncCGA` — every child is bred against
the frozen parent generation and the population swaps once per
generation — but all randomness is drawn in per-generation blocks, so
a run is statistically (not bitwise) equivalent to the scalar engine
with the same seed.  Like the scalar engines it is a one-block
:class:`~repro.parallel.partitioned.PartitionedEngine` run by the
skeleton's lockstep loop; this module supplies only the batch
generation (``breed``, then ``copyto``).

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

import numpy as np

from repro.cga.config import CGAConfig
from repro.cga.engine import _OneBlock
from repro.cga.hooks import EngineHooks
from repro.kernels import resolve_batch_ops
from repro.kernels.breed import breed

__all__ = ["VectorizedSyncCGA"]


class VectorizedSyncCGA(_OneBlock):
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

    def _step_block(self, steps: int, rng, rec=None) -> int:
        """Breed the whole population in one batch, then swap it in: a
        generation is never cut, so it overshoots a ``steps`` below the
        population size.  ``breed`` records the telemetry into ``rec``."""
        pop = self.pop
        # parents are gathered by fancy indexing, which copies the rows
        child_s, child_ct, child_fit, accept = breed(
            self._ops, self.config, self.instance, rng, self.blocks[0],
            self.neighbors, pop.fitness,
            lambda ids: (pop.s[ids], pop.ct[ids]),
            lambda ids: pop.s[ids],
            rec,
        )
        np.copyto(pop.s, child_s, where=accept[:, None])
        np.copyto(pop.ct, child_ct, where=accept[:, None])
        np.copyto(pop.fitness, child_fit, where=accept)
        return pop.size
