"""Universal checkpoint/resume (format v3) for every registered engine.

Format v1 snapshotted the sequential engines only: population arrays
plus one RNG state, with the config stored as a ``repr`` string.
Format v2 generalized the snapshot to *every* engine in the registry;
format v3 additionally stamps the registered problem
(``repro.problems``) so a resumed run rebuilds its instance through the
right workload loader:

* ``config`` is a real dictionary (validated field-by-field on
  restore, not by string comparison);
* ``stop`` optionally embeds the run's :class:`StopCondition` so
  ``repro resume <ckpt>`` needs no further arguments;
* the rest is the engine's payload, one shape for every engine
  (:meth:`~repro.parallel.partitioned.PartitionedEngine.capture_state`):
  ``rng_streams`` maps a stream key to the bit-generator states of its
  streams (``workers``: one per block; the simulator's ``gene`` and
  ``jitter``), ``progress`` holds the per-worker ``eval_counts`` and
  ``gen_counts``, the ``history`` rows and ``best_seen`` (plus the
  simulator's clocks, sweep positions and contention-policy state), and
  ``engine_options`` the values of the registry spec's
  ``extra_kwargs``, which :func:`resume_engine` passes back to the
  constructor.  A resumed run thus continues the identical stochastic
  trajectory, fires the same hooks and reports the same cumulative
  counters as an uninterrupted run.

This module is the one place that knows the on-disk shapes: v3 files
written before the payload was shared are normalized on restore
(:func:`_engine_payload`).  Snapshots are taken at generation/sweep
boundaries only (the engines' natural quiescent points — see
:func:`run_with_checkpoints`), and every value is JSON: PCG64 states
are plain integers and Python's float round-trip via ``repr`` is exact,
so resume is bit-exact by construction.  v2 files load with the problem
defaulted to the independent workload they predate; v1 files are
rejected, since nothing writes them any more.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from repro.cga.config import CGAConfig, StopCondition
from repro.obs.live import atomic_write_json
from repro.runtime.registry import ENGINE_SPECS, EngineSpec, resolve_engine

__all__ = [
    "CHECKPOINT_VERSION",
    "spec_for",
    "config_to_dict",
    "config_from_dict",
    "capture_state",
    "restore_state",
    "save_checkpoint",
    "load_state",
    "resume_engine",
    "run_with_checkpoints",
]

CHECKPOINT_VERSION = 3

#: format versions restore_state/resume_engine still understand.
_COMPATIBLE_VERSIONS = (2, 3)


def spec_for(engine) -> EngineSpec:
    """The registry spec describing ``engine``'s class."""
    cls = type(engine)
    for spec in ENGINE_SPECS.values():
        if spec.module == cls.__module__ and spec.qualname == cls.__qualname__:
            return spec
    raise ValueError(f"engine class {cls.__qualname__} is not registered")


# ---------------------------------------------------------------------------
# config (de)serialization
# ---------------------------------------------------------------------------
def config_to_dict(config: CGAConfig) -> dict:
    """``CGAConfig`` as a plain JSON-safe dictionary."""
    return asdict(config)


def config_from_dict(data: dict) -> CGAConfig:
    """Rebuild a :class:`CGAConfig`, validating the field set.

    Unknown or missing keys raise ``ValueError`` (a checkpoint from a
    different library version should fail loudly, not half-apply).
    """
    if not isinstance(data, dict):
        raise ValueError(f"checkpoint configuration must be a dict, got {type(data).__name__}")
    data = dict(data)
    # v2 checkpoints predate the problems layer: they are all independent
    data.setdefault("problem", "independent")
    # checkpoints written while the config had an ``obs`` field carry
    # ``"obs": null`` (no CLI or serve run ever set it)
    if data.pop("obs", None) is not None:
        raise ValueError(
            "invalid checkpoint configuration: telemetry (obs) is no longer "
            "part of CGAConfig; pass obs=Observer(...) to the engine instead"
        )
    known = {f.name for f in fields(CGAConfig)}
    unknown = sorted(set(data) - known)
    missing = sorted(known - set(data))
    if unknown or missing:
        parts = []
        if unknown:
            parts.append(f"unknown fields: {', '.join(unknown)}")
        if missing:
            parts.append(f"missing fields: {', '.join(missing)}")
        raise ValueError(f"invalid checkpoint configuration ({'; '.join(parts)})")
    try:
        return CGAConfig(**data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid checkpoint configuration: {exc}") from None


def _stop_to_dict(stop: StopCondition) -> dict:
    return asdict(stop)


def _stop_from_dict(data: dict) -> StopCondition:
    known = {f.name for f in fields(StopCondition)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"invalid checkpoint stop condition (unknown fields: {', '.join(unknown)})")
    return StopCondition(**data)


# ---------------------------------------------------------------------------
# capture / restore
# ---------------------------------------------------------------------------
def capture_state(engine, stop: StopCondition | None = None) -> dict:
    """Snapshot ``engine`` into a JSON-safe checkpoint dictionary.

    The engine contributes its stream/progress payload through its
    ``capture_state`` method; this wrapper adds the universal envelope
    (format version, registry name, config, instance, population,
    optional stop condition).
    """
    spec = spec_for(engine)
    pop = engine.pop
    state = {
        "format_version": CHECKPOINT_VERSION,
        "engine": spec.name,
        "problem": getattr(engine.config, "problem", "independent"),
        "instance": engine.instance.name,
        "config": config_to_dict(engine.config),
        "population": {
            "s": pop.s.tolist(),
            "ct": pop.ct.tolist(),
            "fitness": pop.fitness.tolist(),
        },
        "stop": _stop_to_dict(stop) if stop is not None else None,
    }
    state.update(engine.capture_state())
    return state


def _restore_population(engine, s, ct, fitness) -> None:
    pop = engine.pop
    s = np.asarray(s, dtype=pop.s.dtype)
    ct = np.asarray(ct, dtype=pop.ct.dtype)
    fitness = np.asarray(fitness, dtype=pop.fitness.dtype)
    if s.shape != pop.s.shape:
        raise ValueError(f"population shape mismatch: {s.shape} vs {pop.s.shape}")
    pop.s[:] = s
    pop.ct[:] = ct
    pop.fitness[:] = fitness


def restore_state(engine, state: dict) -> None:
    """Restore a :func:`capture_state` snapshot in place.

    The engine must have been constructed with the same instance and
    configuration; both are verified before anything is touched.  The
    engine's next ``run`` continues the logical run (counters, history
    and — for the simulator — scheduler clocks pick up where the
    snapshot left off).
    """
    version = state.get("format_version")
    if version not in _COMPATIBLE_VERSIONS:
        raise ValueError(f"unsupported checkpoint version: {version!r}")
    spec = spec_for(engine)
    if state.get("engine") != spec.name:
        raise ValueError(
            f"checkpoint is for engine {state.get('engine')!r}, restoring into {spec.name!r}"
        )
    problem = state.get("problem", "independent")
    engine_problem = getattr(engine.config, "problem", "independent")
    if problem != engine_problem:
        raise ValueError(
            f"checkpoint is for problem {problem!r}, restoring into {engine_problem!r}"
        )
    if config_from_dict(state["config"]) != engine.config:
        raise ValueError(
            "checkpoint was taken under a different configuration; "
            "construct the engine with the same CGAConfig before restoring"
        )
    if state["instance"] != engine.instance.name:
        raise ValueError(
            f"checkpoint is for instance {state['instance']!r}, "
            f"engine has {engine.instance.name!r}"
        )
    pop = state["population"]
    _restore_population(engine, pop["s"], pop["ct"], pop["fitness"])
    engine.restore_state(_engine_payload(state))


#: progress counters of payloads written before every engine shared one:
#: the sequential engines' scalars and the simulator's lists
_OLD_COUNTERS = {
    "evaluations": "eval_counts",
    "generations": "gen_counts",
    "evals": "eval_counts",
    "gens": "gen_counts",
}


def _engine_payload(state: dict) -> dict:
    """The engine payload of ``state`` in the shape ``restore_state``
    reads.  Earlier v3 files are normalized: the sequential engines'
    single ``rng_streams.main`` state and scalar
    ``evaluations``/``generations``, the simulator's ``evals``/``gens``,
    and the threads/shm progress without ``history`` or ``best_seen``
    (then taken from the restored population, as those files did)."""
    streams = state["rng_streams"]
    if "main" in streams:
        streams = {"workers": [streams["main"]]}
    progress = state.get("progress")
    if progress is not None:
        progress = {"history": [], "best_seen": None, **progress}
        for old, new in _OLD_COUNTERS.items():
            if old in progress:
                count = progress.pop(old)
                progress[new] = count if isinstance(count, list) else [count]
    return {"rng_streams": streams, "progress": progress}


# ---------------------------------------------------------------------------
# file I/O and resume
# ---------------------------------------------------------------------------
def save_checkpoint(engine, path: str | os.PathLike, stop: StopCondition | None = None) -> None:
    """Write :func:`capture_state` as JSON, atomically.

    The snapshot is fsynced under a temporary name and ``rename``\\ d
    into place, so neither an interrupt mid-write nor a power loss just
    after the rename leaves a torn checkpoint.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(path, capture_state(engine, stop=stop))


def load_state(path: str | os.PathLike) -> dict:
    """Read a checkpoint file back into a state dictionary."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def resume_engine(
    source: str | os.PathLike | dict,
    instance=None,
    obs=None,
    engine_kwargs: dict | None = None,
):
    """Rebuild an engine from a checkpoint; returns ``(engine, stop)``.

    ``source`` is a checkpoint path or an already-loaded state dict.
    The instance is loaded from the benchmark registry by the name
    recorded in the checkpoint unless one is passed explicitly (required
    for generated/file-based instances).  ``stop`` is the condition
    embedded at save time, or None if none was recorded.  Extra
    ``engine_kwargs`` override the snapshot's recorded engine options
    (e.g. a custom simulator cost model).
    """
    state = source if isinstance(source, dict) else load_state(source)
    version = state.get("format_version")
    if version not in _COMPATIBLE_VERSIONS:
        raise ValueError(f"unsupported checkpoint version: {version!r}")
    spec = resolve_engine(state["engine"])
    config = config_from_dict(state["config"])
    if instance is None:
        from repro.problems import resolve_problem

        problem = resolve_problem(config.problem)
        name = state["instance"]
        try:
            instance = problem.load_instance(name)
        except (ValueError, OSError) as exc:
            raise ValueError(
                f"cannot rebuild checkpoint instance {name!r} for problem "
                f"{problem.name!r} ({exc}); pass the instance explicitly"
            ) from None
    elif getattr(instance, "name", None) != state["instance"]:
        raise ValueError(
            f"checkpoint is for instance {state['instance']!r}, "
            f"got {getattr(instance, 'name', None)!r}"
        )
    options = dict(state.get("engine_options") or {})
    options.update(engine_kwargs or {})
    engine = spec.create(instance, config, seed=0, obs=obs, **options)
    restore_state(engine, state)
    stop = _stop_from_dict(state["stop"]) if state.get("stop") else None
    return engine, stop


def run_with_checkpoints(
    engine,
    stop: StopCondition,
    path: str | os.PathLike,
    every_generations: int = 1,
):
    """Run ``engine`` to ``stop``, checkpointing at sweep boundaries.

    Every ``every_generations`` completed generations (for the
    partitioned engines: lockstep rounds, each of which the simulator
    ends when its slowest logical thread finishes a sweep) the full
    state is atomically written to ``path``.  Returns the
    :class:`~repro.cga.engine.RunResult`; the file left behind is the
    last boundary snapshot, resumable with :func:`resume_engine`.
    """
    if every_generations < 1:
        raise ValueError(f"every_generations must be >= 1, got {every_generations}")
    spec_for(engine)  # rejects unregistered engine classes before the run

    def saver(eng) -> None:
        save_checkpoint(eng, path, stop=stop)

    engine.arm_checkpoint(every_generations, saver)
    try:
        return engine.run(stop)
    finally:
        engine.arm_checkpoint(None, None)
