"""Unified engine runtime: lifecycle, registry, budget, checkpointing.

Every engine in the library — sequential, vectorized, threaded,
process-based and simulated — runs the same lifecycle:

1. **setup** — resolve the :class:`~repro.cga.config.CGAConfig` into
   concrete operators, build the neighbor table and sweep orders,
   initialize the population (Min-min seeding included) and derive the
   per-stream RNGs from the seed tree;
2. **accounting** — spend an evaluation/generation budget until the
   :class:`~repro.cga.config.StopCondition` triggers;
3. **observability** — attach the optional telemetry observer, live
   publisher and worker watchdog;
4. **finalization** — assemble a :class:`~repro.cga.engine.RunResult`,
   fire the lifecycle hooks and flush the telemetry bundle.

Historically each engine re-implemented all four stages by hand; this
package centralizes them so a cross-cutting feature (telemetry,
heartbeats, checkpointing) is wired once, not six times:

* :mod:`repro.runtime.budget` — :class:`Budget`, the single stop
  accounting object;
* :mod:`repro.runtime.context` — :class:`RunContext` setup, runtime
  attachment and result finalization helpers;
* :mod:`repro.runtime.registry` — the :class:`EngineSpec` registry,
  the single source of truth for engine names, aliases, constructors
  and parallelism class (hence :func:`check_stop`'s enforced bounds),
  consumed by the CLI, the experiment harnesses and the takeover study;
* :mod:`repro.runtime.checkpoint` — universal checkpoint/resume
  (format v3): generation/sweep-boundary snapshots with per-stream RNG
  state for every registered engine.
"""

from repro.runtime.budget import Budget
from repro.runtime.context import (
    RunContext,
    attach_runtime,
    boundary_crossings,
    build_context,
    detach_runtime,
    finish_run,
    init_population,
)
from repro.runtime.registry import (
    ENGINE_SPECS,
    EngineSpec,
    check_stop,
    create_engine,
    engine_aliases,
    engine_names,
    resolve_engine,
    sequential_engines,
)
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    capture_state,
    config_from_dict,
    config_to_dict,
    load_state,
    restore_state,
    resume_engine,
    run_with_checkpoints,
    save_checkpoint,
)

__all__ = [
    "Budget",
    "RunContext",
    "build_context",
    "init_population",
    "boundary_crossings",
    "attach_runtime",
    "detach_runtime",
    "finish_run",
    "EngineSpec",
    "ENGINE_SPECS",
    "engine_names",
    "engine_aliases",
    "resolve_engine",
    "create_engine",
    "sequential_engines",
    "check_stop",
    "CHECKPOINT_VERSION",
    "capture_state",
    "restore_state",
    "save_checkpoint",
    "load_state",
    "resume_engine",
    "run_with_checkpoints",
    "config_to_dict",
    "config_from_dict",
]
