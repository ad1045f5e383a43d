"""repro — Parallel Asynchronous Cellular Genetic Algorithm for grid scheduling.

A from-scratch reproduction of Pinel, Dorronsoro & Bouvry,
"A New Parallel Asynchronous Cellular Genetic Algorithm for Scheduling
in Grids" (2010): the PA-CGA metaheuristic, the H2LL local search, the
ETC benchmark substrate, literature baselines, and harnesses that
regenerate every table and figure of the paper's evaluation.

Quickstart::

    from repro import load_benchmark, CGAConfig, StopCondition, SimulatedPACGA

    instance = load_benchmark("u_i_hihi.0")
    engine = SimulatedPACGA(instance, CGAConfig(n_threads=3), seed=42)
    result = engine.run(StopCondition(virtual_time=0.05))
    print(result.best_fitness)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.etc import (
    Consistency,
    ETCMatrix,
    instance_names,
    load_benchmark,
    make_instance,
)
from repro.scheduling import Schedule, flowtime, makespan
from repro.heuristics import HEURISTICS, min_min
from repro.cga import AsyncCGA, CGAConfig, RunResult, StopCondition, SyncCGA, VectorizedSyncCGA
from repro.parallel import (
    CostModel,
    ShmBlockPACGA,
    SimulatedPACGA,
    ThreadedPACGA,
    XEON_E5440,
)
from repro.baselines import CMALTH, StruggleGA
from repro.cga.hooks import EngineHooks
from repro.obs import Observer

__version__ = "1.0.0"

__all__ = [
    "Consistency",
    "ETCMatrix",
    "instance_names",
    "load_benchmark",
    "make_instance",
    "Schedule",
    "makespan",
    "flowtime",
    "HEURISTICS",
    "min_min",
    "CGAConfig",
    "StopCondition",
    "AsyncCGA",
    "SyncCGA",
    "VectorizedSyncCGA",
    "RunResult",
    "ThreadedPACGA",
    "ShmBlockPACGA",
    "SimulatedPACGA",
    "CostModel",
    "XEON_E5440",
    "StruggleGA",
    "CMALTH",
    "EngineHooks",
    "Observer",
    "__version__",
]
