"""Run setup, observability attachment and result finalization.

:func:`build_context` performs the setup stage every engine used to
duplicate: operator resolution, neighbor table, block partitioning and
sweep orders, RNG stream derivation from the seed tree, population
initialization with the problem's heuristic seeding (the paper's
Min-min for the independent workload, NEH for flow shop), and observer
resolution.  This module is the **single** engine-side seeding call
site — a new engine gets seeding, telemetry and heartbeat support by
building a context, not by copying twenty lines of constructor code.

The RNG topologies are exactly the ones the engines always used, so a
refactored engine replays bit-identical streams:

* single-stream (async/sync/vectorized): one block (the whole grid)
  and one generator, which drives both population init and evolution;
* ``workers=n`` (threads/shm): ``spawn_rngs(seed, n + 1)`` —
  stream 0 initializes the population, streams 1..n drive the workers;
* ``workers=n, jitter=True`` (simulated): ``spawn_rngs(seed, 1+2n)`` —
  init, then n genetic streams, then n cost-jitter streams, so the
  cost model never perturbs the genetics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.cga.config import CGAConfig
from repro.cga.neighborhood import neighbor_table
from repro.cga.population import Population
from repro.cga.sweep import sweep_order
from repro.rng import make_rng, spawn_rngs

__all__ = [
    "RunContext",
    "build_context",
    "init_population",
    "boundary_crossings",
    "partition_ownership",
    "attach_runtime",
    "detach_runtime",
    "finish_run",
    "enable_seed_cache",
    "disable_seed_cache",
    "seed_cache_stats",
]

# ---------------------------------------------------------------------------
# optional seed-schedule cache (opt-in; used by the solve service workers)
# ---------------------------------------------------------------------------
#: process-global LRU over (problem, instance, seeding-config) -> schedules.
#: None (the default) means every init_population re-runs the heuristic,
#: exactly as before — the cache changes amortization, never trajectories,
#: because the seeding heuristics are deterministic in (instance, config).
_SEED_CACHE = None


def enable_seed_cache(capacity: int = 16):
    """Memoize :meth:`SchedulingProblem.seed_schedules` across runs.

    Long-lived processes that set up many populations on few instances
    (the ``repro serve`` engine workers) pay Min-min/NEH once per
    instance instead of once per job.  Cached schedules are returned as
    copies, so an engine mutating its population can never corrupt the
    cache.  Returns the cache (its ``stats()`` feed service metrics).
    """
    global _SEED_CACHE
    from repro.serve.cache import LRUCache  # deliberately tiny; no cycles

    if _SEED_CACHE is None or _SEED_CACHE.capacity != capacity:
        _SEED_CACHE = LRUCache(capacity)
    return _SEED_CACHE


def disable_seed_cache() -> None:
    """Drop the cache; seeding returns to compute-per-init."""
    global _SEED_CACHE
    _SEED_CACHE = None


def seed_cache_stats() -> dict | None:
    """Hit/miss counters of the active cache (None when disabled)."""
    return None if _SEED_CACHE is None else _SEED_CACHE.stats()


def _seed_schedules_for(pop: Population, instance, config: CGAConfig):
    """The problem's seed schedules, through the cache when enabled."""
    if _SEED_CACHE is None:
        return pop.problem.seed_schedules(instance, config)
    # the instance object itself is the key: both built-in instance
    # types define content-based __eq__ (full array comparison), so two
    # instances sharing a header name but differing in data can never
    # collide, and the cache's strong reference rules out id() reuse.
    # Header names are NOT content-unique and object ids recycle after
    # GC — neither is a safe key in a layer promising bit-exactness.
    key = (pop.problem.name, instance, config.seed_with_minmin)
    try:
        seeds = _SEED_CACHE.get_or_load(
            key, lambda: pop.problem.seed_schedules(instance, config)
        )
    except TypeError:  # unhashable custom instance type: compute uncached
        return pop.problem.seed_schedules(instance, config)
    if seeds is None:
        return None
    import copy

    return [copy.deepcopy(s) for s in seeds]


@dataclass
class RunContext:
    """Everything an engine's ``run`` loop needs, set up once.

    ``blocks`` / ``orders`` / ``worker_rngs`` hold one entry per worker
    (a single-stream context has one); the RNG fields mirror the three
    stream topologies (see module docstring).
    """

    instance: object
    config: CGAConfig
    grid: object
    neighbors: np.ndarray
    ops: object
    pop: Population
    obs: object | None = None
    #: per-worker blocks, sweep orders and streams
    blocks: list[np.ndarray] = field(default_factory=list)
    orders: list[np.ndarray] = field(default_factory=list)
    worker_rngs: list[np.random.Generator] = field(default_factory=list)
    jitter_rngs: list[np.random.Generator] = field(default_factory=list)
    #: per-cell flag: does the neighborhood leave its own block?
    crosses: np.ndarray | None = None

    @property
    def boundary_fraction(self) -> float:
        """Fraction of cells whose neighborhood crosses a block edge."""
        if self.crosses is None or len(self.blocks) < 2:
            return 0.0
        return float(self.crosses.mean())


def init_population(
    instance,
    grid,
    config: CGAConfig,
    rng: np.random.Generator,
    fitness_fn: Callable,
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> Population:
    """Create and initialize a population (§4.1 heuristic seeding).

    ``arrays`` supplies pre-allocated backing buffers (the process
    engine passes shared memory).  This is the only place any engine
    plants the problem's constructive-heuristic individuals (Min-min
    for the independent workload, NEH for flow shop).
    """
    if arrays is None:
        pop = Population(instance, grid)
    else:
        pop = Population(instance, grid, s=arrays[0], ct=arrays[1], fitness=arrays[2])
    seeds = _seed_schedules_for(pop, instance, config)
    pop.init_random(rng, seed_schedules=seeds, fitness_fn=fitness_fn)
    return pop


def boundary_crossings(
    neighbors: np.ndarray, blocks: Sequence[np.ndarray], size: int
) -> np.ndarray:
    """Per-cell boolean: does cell's neighborhood leave its block?"""
    block_id = np.empty(size, dtype=np.int64)
    for bid, block in enumerate(blocks):
        block_id[block] = bid
    return (block_id[neighbors] != block_id[:, None]).any(axis=1)


def partition_ownership(
    neighbors: np.ndarray, blocks: Sequence[np.ndarray], size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell block ownership and cross-block visibility.

    Returns ``(block_id, shared_read)``: ``block_id[c]`` is the block
    that owns cell ``c``; ``shared_read[c]`` is True iff some cell of a
    *different* block has ``c`` in its neighborhood — i.e. writes to
    ``c`` are observable across a block boundary and must be published
    with whatever protocol the engine uses (locks for the process
    engine, seqlock stamps for the shm engine).  Cells with
    ``shared_read`` False are private to their block and can be read
    and written with plain array ops.
    """
    block_id = np.empty(size, dtype=np.int64)
    for bid, block in enumerate(blocks):
        block_id[block] = bid
    shared_read = np.zeros(size, dtype=bool)
    foreign = block_id[neighbors] != block_id[:, None]
    shared_read[np.unique(neighbors[foreign])] = True
    return block_id, shared_read


def build_context(
    instance,
    config: CGAConfig | None = None,
    *,
    rng=None,
    seed=None,
    workers: int = 0,
    jitter: bool = False,
    pop_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    obs=None,
) -> RunContext:
    """Set up one engine run (see module docstring for the modes).

    ``workers=0`` builds a single-stream context from ``rng``: one
    block covering the grid, bred by the generator that seeded it;
    ``workers=n`` builds a partitioned context from the ``seed`` tree.
    The observer is resolved *after* population init so the initial
    evaluations stay out of the breeding-phase metrics.
    """
    from repro.problems import problem_of  # lazy: problems import operators

    config = config or CGAConfig()
    # the instance decides the workload: a default config on a flow-shop
    # instance must resolve flow-shop operators, not ETC ones (and a
    # config naming operators the instance's problem lacks fails with
    # the problem-aware validation error, not an AttributeError deep in
    # the ETC crossover).  Population makes the same inference.
    prob = problem_of(instance)
    if config.problem != prob.name:
        config = config.with_(problem=prob.name)
    grid = config.grid
    neighbors = neighbor_table(grid, config.neighborhood)
    ops = config.resolve()
    ctx = RunContext(
        instance=instance,
        config=config,
        grid=grid,
        neighbors=neighbors,
        ops=ops,
        pop=None,  # type: ignore[arg-type]  (assigned below)
    )
    if workers == 0:
        ctx.blocks = [np.arange(grid.size)]
        ctx.worker_rngs = [make_rng(rng)]
        init_rng = ctx.worker_rngs[0]
    else:
        ctx.blocks = grid.partition_scheme(workers, config.partition)
        streams = spawn_rngs(seed, 1 + workers * (2 if jitter else 1))
        init_rng = streams[0]
        ctx.worker_rngs = streams[1 : 1 + workers]
        ctx.jitter_rngs = streams[1 + workers :]
    ctx.orders = [
        sweep_order(block, config.sweep, block_id=i)
        for i, block in enumerate(ctx.blocks)
    ]
    ctx.crosses = boundary_crossings(neighbors, ctx.blocks, grid.size)
    ctx.pop = init_population(
        instance, grid, config, init_rng, ops.fitness, arrays=pop_arrays
    )
    ctx.obs = obs
    return ctx


# ---------------------------------------------------------------------------
# live runtime (heartbeat board + watchdog + publisher)
# ---------------------------------------------------------------------------
def attach_runtime(engine, board, counts: Callable[[], tuple[int, int]]) -> None:
    """Attach the observer's live publisher/watchdog for one run.

    ``board`` is the workers' heartbeat board (for forked workers it is
    backed by fork-shared RawArrays); ``counts`` is a lock-free provider
    of ``(generation, evaluations)`` progress.  A no-op when the
    observer requests no runtime attachment (the run loop then stays
    untouched).
    """
    obs = engine.obs
    if obs is None or not obs.runtime_wanted:
        return

    def progress() -> dict:
        # lock-free snapshot, approximate by design (same rule as the
        # time-series sampler)
        _, best = engine.pop.best()
        generation, evaluations = counts()
        return {
            "generation": generation,
            "evaluations": evaluations,
            "best": best,
            "heartbeats": board.read(),
            "workers_done": [bool(d) for d in board.done],
        }

    def fire_stall(event) -> None:
        if engine.hooks.on_stall is not None:
            engine.hooks.on_stall(engine, event)

    obs.start_runtime(board, progress, on_stall=fire_stall)


def detach_runtime(engine) -> None:
    """Stop the watchdog/publisher."""
    if engine.obs is not None:
        engine.obs.stop_runtime()


# ---------------------------------------------------------------------------
# result finalization
# ---------------------------------------------------------------------------
def finish_run(
    engine,
    result,
    engine_name: str,
    meta: dict | None = None,
    t_s: float | None = None,
):
    """Common run epilogue: final sample, bundle metadata, hooks.

    Samples the final time-series row (``t_s`` stamps virtual time for
    the simulator), records the result into the bundle metadata, fills
    engine/instance identity via ``setdefault`` (caller-provided meta,
    e.g. the CLI's, wins) and fires ``on_stop`` last — by then the
    telemetry bundle, if auto-finalizing, is on disk.
    """
    obs = engine.obs
    if obs is not None:
        obs.maybe_sample(
            result.evaluations,
            lambda: obs.engine_row(engine, result.generations, result.evaluations),
            t_s=t_s,
            force=True,
        )
        obs.record_result(result)
        obs.meta.setdefault("engine", engine_name)
        obs.meta.setdefault("instance", getattr(engine.instance, "name", None))
        obs.meta.setdefault("problem", getattr(engine.config, "problem", "independent"))
        for key, value in (meta or {}).items():
            obs.meta.setdefault(key, value)
        if obs.auto_finalize:
            obs.finalize()
    if engine.hooks.on_stop is not None:
        engine.hooks.on_stop(engine, result)
    return result
