"""Checkpoint / resume — compatibility façade over ``repro.runtime``.

Historically this module snapshotted the sequential engines only
(format v1: population arrays + one RNG state, config stored as a
``repr`` string).  The implementation now lives in
:mod:`repro.runtime.checkpoint`, which writes format v3 (real config
dict, per-stream RNG states, resumable progress, the registered
problem) for *every* registered engine; v1 files no longer load.

This façade keeps the original call signatures and the original
*semantics*: :func:`restore_engine` / :func:`load_checkpoint` restore
the stochastic state (population + RNG streams) but leave the
evaluation/generation counters at zero, so an engine restored here and
run for ``k`` more generations behaves exactly like the historical API.
Use :func:`repro.runtime.checkpoint.resume_engine` for full resume
(continued counters, identical cumulative ``RunResult``).
"""

from __future__ import annotations

import os

from repro.runtime.checkpoint import (
    capture_state,
    load_state,
    restore_state,
)
from repro.runtime.checkpoint import (
    save_checkpoint as _save_checkpoint,
)

__all__ = ["engine_state", "restore_engine", "save_checkpoint", "load_checkpoint"]


def engine_state(engine) -> dict:
    """Capture an engine's full stochastic state (checkpoint format v3)."""
    return capture_state(engine)


def restore_engine(engine, state: dict) -> None:
    """Restore a state captured by :func:`engine_state` in place.

    The engine must have been constructed with the same instance and
    configuration; both are verified before anything is touched.
    Progress counters are *not* resumed (historical semantics — the next
    ``run`` counts from zero).
    """
    restore_state(engine, state, resume=False)


def save_checkpoint(engine, path: str | os.PathLike) -> None:
    """Write the engine state as JSON (creating parent directories)."""
    _save_checkpoint(engine, path)


def load_checkpoint(engine, path: str | os.PathLike) -> None:
    """Restore an engine from a file written by :func:`save_checkpoint`."""
    restore_engine(engine, load_state(path))
