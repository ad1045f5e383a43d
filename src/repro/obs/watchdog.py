"""Worker heartbeat watchdog: detect stalled PA-CGA workers live.

The paper's asynchronous design has no generation barrier, so a worker
that deadlocks on a per-individual lock (or livelocks inside local
search) silently stops contributing — the run "converges" on whatever
the healthy workers find and nothing distinguishes a stalled thread
from a slow one.  This module makes that failure mode observable:

* :class:`HeartbeatBoard` — one monotone counter per worker, bumped by
  the worker itself once per block sweep (a plain ``list[int]`` for
  threads, a fork-shared ``RawArray`` for the shm engine).  Beats
  are single element writes with no locks, so the board follows the
  same no-shared-contention rule as :mod:`repro.obs.metrics`.
* :class:`Watchdog` — a monitor (pollable, or running on its own
  daemon thread) that flags any worker whose heartbeat has not
  advanced within ``deadline_s``.  Each stall episode is reported once:
  a ``watchdog.stalls`` counter and per-worker gauge in the metrics
  stream, an instant event in the worker's trace lane, and the
  :class:`~repro.cga.hooks.EngineHooks.on_stall` callback.  A worker
  whose heartbeat advances again is recorded as a recovery and re-armed.

Workers that finish their budget call :meth:`HeartbeatBoard.mark_done`
so an intentionally idle worker is never reported as stalled.

With ``obs=None`` no board or watchdog is ever constructed — the
engines' uninstrumented worker bodies do not reference this module.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = ["StallEvent", "HeartbeatBoard", "Watchdog"]


@dataclass(frozen=True)
class StallEvent:
    """One detected stall episode (or its recovery)."""

    #: worker index (the engine's thread/process id)
    worker: int
    #: seconds since the worker's heartbeat last advanced
    stalled_s: float
    #: heartbeat value the worker is stuck at
    heartbeat: int
    #: False for the stall itself, True for the recovery notification
    recovered: bool = False


class HeartbeatBoard:
    """Per-worker monotone heartbeat counters plus done flags.

    Parameters
    ----------
    n_workers:
        Number of workers when the board owns its storage.
    counters / done:
        Optional externally allocated mutable sequences
        (``PartitionedEngine._progress`` passes fork-shared ``RawArray``
        buffers for the shm engine, so children's beats are visible to
        the parent's watchdog).
    """

    __slots__ = ("counters", "done")

    def __init__(
        self,
        n_workers: int,
        counters: Sequence | None = None,
        done: Sequence | None = None,
    ):
        self.counters = counters if counters is not None else [0] * n_workers
        self.done = done if done is not None else [0] * n_workers
        if len(self.counters) != len(self.done):
            raise ValueError("counters and done must have the same length")

    def __len__(self) -> int:
        return len(self.counters)

    def beat(self, worker: int) -> None:
        """Advance ``worker``'s heartbeat (called by the worker itself)."""
        self.counters[worker] += 1

    def mark_done(self, worker: int) -> None:
        """Exempt ``worker`` from stall detection (budget exhausted)."""
        self.done[worker] = 1

    def read(self) -> list[int]:
        """Snapshot all heartbeat values (monitor side)."""
        return [int(c) for c in self.counters]

    def active(self) -> list[bool]:
        """Which workers are still subject to the deadline."""
        return [not bool(d) for d in self.done]


class Watchdog:
    """Flags workers whose heartbeat misses the deadline.

    Parameters
    ----------
    board:
        The :class:`HeartbeatBoard` the workers beat on.
    deadline_s:
        A worker whose heartbeat has not advanced for this long (and is
        not marked done) is reported as stalled.
    on_stall:
        Optional callback receiving each :class:`StallEvent` (stalls
        *and* recoveries); engines adapt this to ``EngineHooks.on_stall``.
    recorder:
        Optional :class:`~repro.obs.metrics.MetricRecorder` (the
        observer's ``"watchdog"`` recorder) for ``watchdog.stalls`` /
        ``watchdog.recoveries`` counters and per-worker stall gauges.
    tracer_for:
        Optional ``worker -> ThreadTracer | None`` resolver; stall and
        recovery instants land in the stalled worker's own trace lane.
    clock:
        Injectable monotonic clock (tests pin it to freeze a worker).
    stack_capture:
        Optional ``StallEvent -> None`` escalation hook invoked for
        *stalls only*, before ``on_stall``: the observer wires it to
        dump every thread's stack into the bundle's flight dir, so the
        evidence of what a stalled worker was doing is captured before
        any engine reacts (e.g. the shm engine's stall-kill).
        Exceptions inside the hook are swallowed — escalation must
        never take the watchdog down.
    flight:
        Optional :class:`~repro.obs.flight.FlightRecorder`; ``stall``
        and ``recovery`` events are recorded into the ring.
    """

    def __init__(
        self,
        board: HeartbeatBoard,
        deadline_s: float,
        on_stall: Callable[[StallEvent], None] | None = None,
        recorder=None,
        tracer_for: Callable[[int], object | None] | None = None,
        clock: Callable[[], float] = time.monotonic,
        stack_capture: Callable[[StallEvent], None] | None = None,
        flight=None,
    ):
        if deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {deadline_s}")
        self.board = board
        self.deadline_s = float(deadline_s)
        self.on_stall = on_stall
        self.recorder = recorder
        self.tracer_for = tracer_for
        self.clock = clock
        self.stack_capture = stack_capture
        self.flight = flight
        now = clock()
        self._last_beat = board.read()
        self._last_advance = [now] * len(board)
        self._stalled = [False] * len(board)
        self.events: list[StallEvent] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- detection -------------------------------------------------------
    def poll(self, now: float | None = None) -> list[StallEvent]:
        """One monitor pass; returns the newly emitted events."""
        if now is None:
            now = self.clock()
        emitted: list[StallEvent] = []
        beats = self.board.read()
        active = self.board.active()
        for w, beat in enumerate(beats):
            if beat != self._last_beat[w]:
                stall_lasted = now - self._last_advance[w]
                self._last_beat[w] = beat
                self._last_advance[w] = now
                if self._stalled[w]:
                    self._stalled[w] = False
                    emitted.append(self._emit(StallEvent(w, stall_lasted, beat, True)))
                continue
            if not active[w] or self._stalled[w]:
                continue
            stalled_s = now - self._last_advance[w]
            if stalled_s >= self.deadline_s:
                self._stalled[w] = True
                emitted.append(self._emit(StallEvent(w, stalled_s, beat, False)))
        return emitted

    def _emit(self, event: StallEvent) -> StallEvent:
        self.events.append(event)
        rec = self.recorder
        if rec is not None:
            if event.recovered:
                rec.inc("watchdog.recoveries")
                rec.set_gauge(f"watchdog.stalled_s.worker{event.worker}", 0.0)
            else:
                rec.inc("watchdog.stalls")
                rec.set_gauge(
                    f"watchdog.stalled_s.worker{event.worker}", event.stalled_s
                )
        if self.flight is not None:
            self.flight.record(
                "recovery" if event.recovered else "stall",
                f"w{event.worker}",
                event.stalled_s,
            )
        if not event.recovered and self.stack_capture is not None:
            try:
                self.stack_capture(event)
            except Exception:  # pragma: no cover - escalation is best-effort
                pass
        if self.tracer_for is not None:
            tt = self.tracer_for(event.worker)
            if tt is not None:
                tt.instant(
                    "recovery" if event.recovered else "stall",
                    {
                        "worker": event.worker,
                        "stalled_s": round(event.stalled_s, 6),
                        "heartbeat": event.heartbeat,
                    },
                )
        if self.on_stall is not None:
            self.on_stall(event)
        return event

    @property
    def stalled_workers(self) -> list[int]:
        """Workers currently flagged as stalled."""
        return [w for w, s in enumerate(self._stalled) if s]

    # -- background monitor ----------------------------------------------
    def start(self, interval_s: float | None = None) -> "Watchdog":
        """Run :meth:`poll` on a daemon thread every ``interval_s``
        (default: a quarter of the deadline)."""
        if self._thread is not None:
            return self
        interval = interval_s if interval_s is not None else max(self.deadline_s / 4.0, 0.01)

        def monitor() -> None:
            while not self._stop.wait(interval):
                self.poll()

        self._stop.clear()
        self._thread = threading.Thread(target=monitor, name="obs-watchdog", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the monitor thread (idempotent); runs one final poll."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
