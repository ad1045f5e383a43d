"""Parallel execution engines for PA-CGA (paper §3.2).

Three engines implement the paper's parallel asynchronous CGA:

* :class:`ThreadedPACGA` — real OS threads with per-individual
  readers-writer locks, the faithful port of the paper's design (in
  CPython the GIL serializes the pure-Python parts, so this engine is
  about *correctness under concurrency*, not wall-clock speedup);
* :class:`ShmBlockPACGA` — forked workers breeding whole blocks at
  once with the batch kernels over named ``multiprocessing.shared_memory``
  segments, boundary rows exchanged via seqlock version stamps (the
  performance engine);
* :class:`SimulatedPACGA` — a deterministic discrete-event simulator
  that interleaves logical threads under a calibrated cost model of the
  paper's 4-core Xeon E5440; it regenerates the speedup and convergence
  figures reproducibly on any host (DESIGN.md §4.2).
"""

from repro.parallel.rwlock import LockManager, RWLock, TimedLocks
from repro.parallel.threads import ThreadedPACGA
from repro.parallel.shm import ShmBlockPACGA
from repro.parallel.costmodel import CostModel, XEON_E5440
from repro.parallel.simengine import SimulatedPACGA
from repro.parallel.calibrate import measure_cost_model, time_breeding_step

__all__ = [
    "RWLock",
    "LockManager",
    "TimedLocks",
    "ThreadedPACGA",
    "ShmBlockPACGA",
    "CostModel",
    "XEON_E5440",
    "SimulatedPACGA",
    "measure_cost_model",
    "time_breeding_step",
]
