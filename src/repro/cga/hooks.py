"""Engine lifecycle hooks.

Every engine that takes hooks takes them as ``hooks=EngineHooks(...)``,
a small, mutable protocol object with four slots:

* ``on_generation(engine, generation, evaluations)`` — once per
  completed generation, numbered ``1..result.generations`` (never for
  the initial snapshot).  An engine with several workers (threads, shm,
  sim) completes a generation when its slowest worker completes another
  block sweep; every engine fires it from the run's calling thread —
  after each lockstep round, before its checkpoint, or from the
  free-running parent's supervision loop;
* ``on_improvement(engine, generation, evaluations, best)`` — on every
  engine, from the same place, whenever the population best strictly
  improves on the best seen at the previous round boundary (never for
  the initial population, nor again for a best a resumed run's
  checkpoint had already seen);
* ``on_stop(engine, result)`` — once, with the final
  :class:`~repro.cga.engine.RunResult`, before ``run`` returns;
* ``on_stall(engine, event)`` — from the observability watchdog, with a
  :class:`~repro.obs.watchdog.StallEvent`, when a worker's heartbeat
  has not advanced within the configured deadline.  Fired from the
  watchdog's monitor thread, never from the stalled worker itself.

The observability layer (:mod:`repro.obs`) takes no hook of its own:
the run skeleton samples its time series and counts its
``improvements``, and its watchdog fires ``on_stall``.
"""

from __future__ import annotations

from typing import Callable

__all__ = ["EngineHooks", "as_hooks"]


class EngineHooks:
    """Mutable bundle of the engine lifecycle callbacks."""

    __slots__ = ("on_generation", "on_improvement", "on_stop", "on_stall")

    def __init__(
        self,
        on_generation: Callable | None = None,
        on_improvement: Callable | None = None,
        on_stop: Callable | None = None,
        on_stall: Callable | None = None,
    ):
        self.on_generation = on_generation
        self.on_improvement = on_improvement
        self.on_stop = on_stop
        self.on_stall = on_stall

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        set_ = [s for s in self.__slots__ if getattr(self, s) is not None]
        return f"EngineHooks({', '.join(set_) or 'empty'})"


def as_hooks(hooks: EngineHooks | None) -> EngineHooks:
    """The engine's hooks object: ``None`` yields an empty one, an
    :class:`EngineHooks` is returned as-is (not copied — callers may set
    its slots after construction)."""
    if hooks is None:
        return EngineHooks()
    if isinstance(hooks, EngineHooks):
        return hooks
    raise TypeError(f"expected EngineHooks or None, got {type(hooks).__name__}")
