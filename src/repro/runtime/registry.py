"""The engine registry: one source of truth for every dispatch site.

Each engine is described by an :class:`EngineSpec` (canonical name,
aliases, lazily-imported class, parallelism class, seeding
convention).  Every registered engine supports checkpoint/resume
(:mod:`repro.runtime.checkpoint`).  The CLI's ``--engine`` choices, the
experiment harnesses, ``SEQUENTIAL_ENGINES`` and the takeover study all
resolve engines *through this module*, so adding an engine is one
:func:`register_engine` call — not an if/elif ladder in six files.

Classes are imported lazily (``EngineSpec.load``), so importing the
registry costs nothing and no import cycle forms between
``repro.runtime`` and the engine packages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from importlib import import_module
from typing import Any

__all__ = [
    "EngineSpec",
    "ENGINE_SPECS",
    "register_engine",
    "engine_names",
    "engine_aliases",
    "resolve_engine",
    "create_engine",
    "sequential_engines",
    "check_stop",
]


@dataclass(frozen=True)
class EngineSpec:
    """Declarative description of one engine implementation.

    Attributes
    ----------
    name:
        Canonical registry key (what ``RunResult`` bundles and
        checkpoints record).
    module / qualname:
        Lazy import location of the engine class.
    summary:
        One-line human description (CLI ``engines`` listing).
    aliases:
        Alternative CLI spellings resolving to this spec.
    parallelism:
        Execution substrate: ``"sequential"`` (single stream, includes
        the vectorized engine), ``"threads"``, ``"processes"`` (the
        forked shm workers) or ``"simulated"``.
    seed_param:
        Constructor keyword receiving the seed: ``"rng"`` for the
        single-stream engines (accepts a Generator, int or
        SeedSequence), ``"seed"`` for the multi-stream ones (spawns a
        seed tree).
    batch:
        Whether the engine breeds through the problem's batch-kernel
        suite (``repro.kernels.resolve_batch_ops``); such engines only
        run problems whose :class:`repro.problems.SchedulingProblem`
        publishes batch kernels.
    extra_kwargs:
        Constructor keywords beyond the common ones (instance, config,
        seed, ``obs``, ``hooks``) that the engine accepts, each also an
        engine attribute: pass-through options are filtered by them,
        and a checkpoint's ``engine_options`` records their values.
    """

    name: str
    module: str
    qualname: str
    summary: str = ""
    aliases: tuple[str, ...] = ()
    parallelism: str = "sequential"
    seed_param: str = "rng"
    batch: bool = False
    extra_kwargs: tuple[str, ...] = field(default=())

    @property
    def enforced_bounds(self) -> tuple[str, ...]:
        """The ``StopCondition`` bounds this engine's run loop checks."""
        clock = "virtual_time" if self.parallelism == "simulated" else "wall_time_s"
        return ("max_evaluations", "max_generations", clock, "target_fitness")

    def load(self) -> type:
        """Import and return the engine class."""
        return getattr(import_module(self.module), self.qualname)

    def create(
        self, instance, config=None, seed=None, obs=None, hooks=None, **kwargs
    ) -> Any:
        """Construct the engine with the registry's seeding convention.

        ``obs`` and ``hooks`` go to every engine; ``kwargs`` not in
        :attr:`extra_kwargs` are rejected with a ``TypeError`` before
        the class is even imported, so callers get uniform errors
        regardless of the engine's signature.
        """
        unknown = sorted(set(kwargs) - set(self.extra_kwargs))
        if unknown:
            raise TypeError(
                f"engine {self.name!r} does not accept {', '.join(unknown)} "
                f"(supported extras: {', '.join(self.extra_kwargs) or 'none'})"
            )
        cls = self.load()
        kwargs[self.seed_param] = seed
        return cls(instance, config, obs=obs, hooks=hooks, **kwargs)


#: canonical name -> spec, in registration order (drives CLI listings).
ENGINE_SPECS: dict[str, EngineSpec] = {}
#: alias -> canonical name.
_ALIASES: dict[str, str] = {}


def register_engine(spec: EngineSpec) -> EngineSpec:
    """Add ``spec`` to the registry (its aliases must be unclaimed)."""
    for key in (spec.name, *spec.aliases):
        owner = _ALIASES.get(key) or (key if key in ENGINE_SPECS else None)
        if owner is not None and owner != spec.name:
            raise ValueError(f"engine name {key!r} already registered for {owner!r}")
    ENGINE_SPECS[spec.name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = spec.name
    return spec


def engine_names() -> list[str]:
    """Canonical engine names, in registration order."""
    return list(ENGINE_SPECS)


def engine_aliases() -> dict[str, str]:
    """alias -> canonical name mapping."""
    return dict(_ALIASES)


def resolve_engine(name: str) -> EngineSpec:
    """Spec for ``name`` (canonical or alias); raises with valid names."""
    canonical = _ALIASES.get(name, name)
    try:
        return ENGINE_SPECS[canonical]
    except KeyError:
        valid = ", ".join([*ENGINE_SPECS, *sorted(_ALIASES)])
        raise ValueError(f"unknown engine {name!r}; valid engines: {valid}") from None


def create_engine(name: str, instance, config=None, seed=None, obs=None, **kwargs):
    """Construct engine ``name`` (see :meth:`EngineSpec.create`)."""
    return resolve_engine(name).create(instance, config, seed=seed, obs=obs, **kwargs)


def check_stop(name: str, stop) -> None:
    """Raise ``ValueError`` when engine ``name`` enforces none of the
    bounds ``stop`` sets: the run would never end."""
    bounds = resolve_engine(name).enforced_bounds
    if all(getattr(stop, bound) is None for bound in bounds):
        given = ", ".join(f.name for f in fields(stop) if getattr(stop, f.name) is not None)
        raise ValueError(f"engine {name!r} cannot stop on {given}; set one of {', '.join(bounds)}")


def sequential_engines() -> dict[str, type]:
    """name -> class for the sequential (single-stream) engines."""
    return {
        spec.name: spec.load()
        for spec in ENGINE_SPECS.values()
        if spec.parallelism == "sequential"
    }


# ---------------------------------------------------------------------------
# The built-in engines.  ``pacga-*`` aliases spell out that the threaded,
# shared-memory and simulated engines are the paper's PA-CGA on its three
# substrates.
# ---------------------------------------------------------------------------
register_engine(
    EngineSpec(
        name="async",
        module="repro.cga.engine",
        qualname="AsyncCGA",
        summary="canonical asynchronous CGA (Algorithm 1, fixed line sweep)",
        seed_param="rng",
        extra_kwargs=("record_history",),
    )
)
register_engine(
    EngineSpec(
        name="sync",
        module="repro.cga.engine",
        qualname="SyncCGA",
        summary="synchronous CGA (auxiliary population, one swap per generation)",
        seed_param="rng",
        extra_kwargs=("record_history",),
    )
)
register_engine(
    EngineSpec(
        name="vectorized",
        module="repro.cga.vectorized",
        qualname="VectorizedSyncCGA",
        summary="synchronous CGA over whole-population NumPy batch kernels",
        seed_param="rng",
        batch=True,
        extra_kwargs=("record_history",),
    )
)
register_engine(
    EngineSpec(
        name="sim",
        module="repro.parallel.simengine",
        qualname="SimulatedPACGA",
        summary="PA-CGA under a deterministic virtual-time scheduler (Fig. 4)",
        aliases=("pacga-sim",),
        parallelism="simulated",
        seed_param="seed",
        extra_kwargs=("cost_model", "history_stride", "contention"),
    )
)
register_engine(
    EngineSpec(
        name="threads",
        module="repro.parallel.threads",
        qualname="ThreadedPACGA",
        summary="PA-CGA on OS threads with per-individual RW locks (§3.2)",
        aliases=("pacga-threads",),
        parallelism="threads",
        seed_param="seed",
        extra_kwargs=("lockstep",),
    )
)
register_engine(
    EngineSpec(
        name="shm",
        module="repro.parallel.shm",
        qualname="ShmBlockPACGA",
        summary="block-parallel PA-CGA: forked workers, batch kernels, "
        "seqlock boundaries over POSIX shared memory",
        aliases=("pacga-shm",),
        parallelism="processes",
        seed_param="seed",
        batch=True,
        extra_kwargs=("lockstep", "stall_kill_s"),
    )
)
