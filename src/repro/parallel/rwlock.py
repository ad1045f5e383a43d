"""Readers-writer lock and per-individual lock manager.

The paper synchronizes concurrent access to individuals with a POSIX
``pthread_rwlock`` (§3.2): concurrent reads are allowed, reads never
overlap writes, writes never overlap writes.  Python's stdlib has no RW
lock, so this is a classic writer-preference implementation on a
:class:`threading.Condition` — writer preference matters because the
replacement write at the end of every breeding loop must not starve
behind the much more frequent neighbor reads.  :class:`TimedLocks` is
one worker's timed view of a :class:`LockManager`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter as _perf

__all__ = ["RWLock", "LockManager", "TimedLocks"]


class RWLock:
    """Writer-preference readers-writer lock.

    Invariants: ``_readers >= 0``; ``_writer`` implies ``_readers == 0``;
    pending writers block new readers.
    """

    __slots__ = ("_cond", "_readers", "_writer", "_writers_waiting")

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    # -- reader side ----------------------------------------------------
    def acquire_read(self) -> None:
        """Block until no writer holds or awaits the lock, then enter."""
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        """Leave the read section, waking writers when the last one exits."""
        with self._cond:
            if self._readers <= 0:
                raise RuntimeError("release_read without matching acquire_read")
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- writer side ----------------------------------------------------
    def acquire_write(self) -> None:
        """Block until exclusive, with preference over new readers."""
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        """Leave the write section and wake everyone."""
        with self._cond:
            if not self._writer:
                raise RuntimeError("release_write without matching acquire_write")
            self._writer = False
            self._cond.notify_all()

    # -- context managers -------------------------------------------------
    @contextmanager
    def read_locked(self):
        """``with lock.read_locked():`` shared section."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self):
        """``with lock.write_locked():`` exclusive section."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


class _TimedAcquire:
    """Slotted timing wrapper around one lock acquisition.

    A hand-rolled context manager (not ``@contextmanager``) because this
    sits on the breeding path of the observed engines: one generator
    object per neighbor read is measurable overhead at PA-CGA rates.
    """

    __slots__ = ("_cm", "_stats", "_t0", "_t1")

    def __init__(self, cm, stats):
        self._cm = cm
        self._stats = stats

    def __enter__(self):
        self._t0 = _perf()
        out = self._cm.__enter__()
        self._t1 = _perf()
        return out

    def __exit__(self, exc_type, exc, tb):
        out = self._cm.__exit__(exc_type, exc, tb)
        end = _perf()
        st = self._stats
        wait = self._t1 - self._t0
        st.timed += 1
        st.wait_s += wait
        st.hold_s += end - self._t1
        st.observe_wait(wait * 1e6)
        return out


class _LockStats:
    """Per-thread, per-kind accumulator for lock wait/hold times.

    Every acquisition through the view is timed; :meth:`flush` scales
    the totals by ``scale`` (the caller's steps / timed steps when the
    view only sees a sample of the steps) and keeps the timed count
    exact.  The wait histogram keeps the raw timed observations.
    :class:`_TimedAcquire` mutates the attributes directly.
    """

    __slots__ = ("kind", "timed", "wait_s", "hold_s", "observe_wait")

    def __init__(self, kind: str, recorder):
        self.kind = kind
        self.timed = 0
        self.wait_s = 0.0
        self.hold_s = 0.0
        self.observe_wait = recorder.hist(f"lock.{kind}_wait_us").observe

    def flush(self, recorder, scale: float) -> None:
        """Publish the accumulated totals as counters (idempotent adds)."""
        recorder.inc(f"lock.{self.kind}_acquires", self.timed * scale)
        recorder.inc(f"lock.{self.kind}_timed", self.timed)
        recorder.inc(f"lock.{self.kind}_wait_s_total", self.wait_s * scale)
        recorder.inc(f"lock.{self.kind}_hold_s_total", self.hold_s * scale)
        self.timed = 0
        self.wait_s = 0.0
        self.hold_s = 0.0


class TimedLocks:
    """One thread's timed view of a read/write lock manager.

    Wraps the two-method ``read(idx)``/``write(idx)`` protocol of
    ``base`` (a :class:`LockManager`) and times each acquisition into
    ``recorder``, which must be private to the thread using this view —
    per-thread recording keeps the instrumentation itself lock-free
    (the no-added-contention rule of ``repro.obs``).  ``recorder`` is
    duck-typed (``hist``/``inc``, e.g. :class:`repro.obs.MetricRecorder`)
    so the lock layer stays free of any observability import.  Wait
    histograms (``lock.<kind>_wait_us``) fill as acquisitions are
    timed; the counters (``lock.<kind>_acquires``, ``_timed``,
    ``_wait_s_total``, ``_hold_s_total``) land on :meth:`flush`.  The
    threads engine runs only its observed 1-in-8 breeding steps through
    the view, so there ``_timed`` is exact and the other three are
    estimates scaled to all steps.
    """

    __slots__ = ("_read", "_write", "_recorder", "read_stats", "write_stats")

    def __init__(self, base, recorder):
        self._read = base.read
        self._write = base.write
        self._recorder = recorder
        self.read_stats = _LockStats("read", recorder)
        self.write_stats = _LockStats("write", recorder)

    def read(self, idx: int):
        """Timed shared access to individual ``idx``."""
        return _TimedAcquire(self._read(idx), self.read_stats)

    def write(self, idx: int):
        """Timed exclusive access to individual ``idx``."""
        return _TimedAcquire(self._write(idx), self.write_stats)

    def flush(self, scale: float = 1.0) -> None:
        """Publish the counters; ``acquires`` and the wait/hold totals
        are multiplied by ``scale``."""
        self.read_stats.flush(self._recorder, scale)
        self.write_stats.flush(self._recorder, scale)


class LockManager:
    """One RW lock per individual, the granularity of the paper.

    Implements the two-method protocol of
    :class:`repro.cga.engine.NullLocks`, so ``evolve_individual`` works
    unchanged under real concurrency.
    """

    __slots__ = ("_locks",)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need at least one lock, got {n}")
        self._locks = [RWLock() for _ in range(n)]

    def __len__(self) -> int:
        return len(self._locks)

    def read(self, idx: int):
        """Context manager: shared access to individual ``idx``."""
        return self._locks[idx].read_locked()

    def write(self, idx: int):
        """Context manager: exclusive access to individual ``idx``."""
        return self._locks[idx].write_locked()
