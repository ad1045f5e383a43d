"""Crash-surviving flight recorder: mmap'd event rings + post-mortem hooks.

The shm engine forks workers the rest of :mod:`repro.obs`
can only watch from the outside: when a worker crashes, deadlocks or
is SIGKILLed, the queue-shipped metrics die with it and the bundle
records a stall flag at best.  This module is the black box that
survives the wreck:

* :class:`FlightRecorder` — a bounded ring buffer of fixed-size
  structured events (``sweep``, ``checkpoint``, ``boundary``,
  ``lock.wait``, ``stall``, ``budget.*``, ``crash``, ``signal``)
  backed by an **mmap'd file**.  Every :meth:`record` writes straight
  into the shared mapping, so the journal's tail is on disk (page
  cache) the instant it is written — a worker killed with ``SIGKILL``
  mid-sweep leaves its last events readable by the parent, no flush
  or finalize required.  One ring per process/role; writes are
  single-writer and lock-free (one ``struct.pack_into`` per event).
* :func:`dump_stacks` — format every thread's current Python stack
  (via ``sys._current_frames()``), used by the SIGUSR1 handler and by
  the watchdog's stall escalation.
* :class:`ProcessObs` — one process's black box: its ring, the crash
  hooks (``faulthandler`` onto a crash log, a chained
  ``sys.excepthook`` that stamps the exception + all thread stacks into
  ``postmortem-<role>.json``, and a ``SIGUSR1`` handler that appends a
  live all-thread stack dump to ``stacks-<role>.txt`` and records a
  ``signal`` flight event, so a stuck run can be interrogated from the
  outside with plain ``kill``), the resource sampler and the stack
  sampler.  The observer holds the parent's instance; each forked
  worker (shm engine, solve service) wraps its body in one, which on
  any escaping exception writes the post-mortem record (pid, role,
  traceback, final resource sample) before re-raising, so the parent's
  "worker failed" error is attributable from the bundle.

Layout inside a bundle::

    bundle/flight/
      <role>.bin            # the ring (parent: "main"; workers: "w0"...)
      stacks-<role>.txt     # SIGUSR1 / stall-escalation stack dumps
      postmortem-<role>.json# written by the crash hooks on exception
      crash-<role>.log      # faulthandler output for hard faults
      resources-<role>.jsonl, samples-<role>.collapsed  # workers only

Reading is offline-only (:func:`load_flight_dir`,
:meth:`FlightRecorder.events`): the renderer in
:mod:`repro.obs.postmortem` folds all of it into one report.
"""

from __future__ import annotations

import json
import mmap
import os
import signal
import struct
import sys
import threading
import time
import traceback
from pathlib import Path

__all__ = [
    "EVENT_STRUCT",
    "FlightRecorder",
    "dump_stacks",
    "append_stack_dump",
    "write_postmortem",
    "ProcessObs",
    "load_flight_dir",
    "flight_paths",
]

#: ring file magic + layout version (bump on any layout change)
MAGIC = b"RPRFLT01"

#: one event slot: t_s (f64, seconds since the ring's epoch), kind
#: (12 bytes ASCII, NUL-padded), msg (36 bytes ASCII, truncated),
#: value (f64) — 64 bytes, so a 512-slot ring is one 32 KiB file.
EVENT_STRUCT = struct.Struct("<d12s36sd")
SLOT_SIZE = EVENT_STRUCT.size  # 64

#: header: magic (8s), slot count (I), slot size (I), cursor (Q, total
#: events ever written), epoch_unix (d) — padded to one slot.
HEADER_STRUCT = struct.Struct("<8sIIQd")
HEADER_SIZE = SLOT_SIZE

#: default ring capacity per process (events, not bytes)
DEFAULT_SLOTS = 512

_CURSOR_OFFSET = 16  # byte offset of the cursor field inside the header


def _ascii(text: str, width: int) -> bytes:
    return text.encode("ascii", "replace")[:width]


class FlightRecorder:
    """One process's bounded event ring over an mmap'd file.

    The writer is the owning process (single-threaded writes are the
    norm; concurrent threads of one process may interleave — events
    are 64-byte slots, so the worst case under the GIL is slot reuse,
    never a torn header).  Readers open the same file read-only from
    any process at any time, including after the writer was SIGKILLed.
    """

    __slots__ = ("path", "slots", "epoch", "_mm", "_fh", "_closed")

    def __init__(self, path, slots: int = DEFAULT_SLOTS, epoch_unix: float | None = None):
        if slots < 2:
            raise ValueError(f"flight ring needs at least 2 slots, got {slots}")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.slots = int(slots)
        self.epoch = time.time() if epoch_unix is None else float(epoch_unix)
        size = HEADER_SIZE + self.slots * SLOT_SIZE
        self._fh = open(self.path, "w+b")
        self._fh.truncate(size)
        self._mm = mmap.mmap(self._fh.fileno(), size)
        HEADER_STRUCT.pack_into(
            self._mm, 0, MAGIC, self.slots, SLOT_SIZE, 0, self.epoch
        )
        self._closed = False

    # -- writing ---------------------------------------------------------
    def record(self, kind: str, msg: str = "", value: float = 0.0) -> None:
        """Append one event (lock-free; overwrites the oldest on wrap)."""
        if self._closed:
            return
        mm = self._mm
        (cursor,) = struct.unpack_from("<Q", mm, _CURSOR_OFFSET)
        offset = HEADER_SIZE + (cursor % self.slots) * SLOT_SIZE
        EVENT_STRUCT.pack_into(
            mm,
            offset,
            time.time() - self.epoch,
            _ascii(kind, 12),
            _ascii(msg, 36),
            float(value),
        )
        # publish the slot by bumping the cursor last: a reader that
        # snapshots the header sees only fully written events
        struct.pack_into("<Q", mm, _CURSOR_OFFSET, cursor + 1)

    def close(self) -> None:
        """Flush and unmap (idempotent); the file stays readable."""
        if self._closed:
            return
        self._closed = True
        try:
            self._mm.flush()
        except (ValueError, OSError):  # pragma: no cover - already gone
            pass
        self._mm.close()
        self._fh.close()

    # -- reading ---------------------------------------------------------
    @property
    def n_recorded(self) -> int:
        """Total events ever written (>= len(events()) once wrapped)."""
        if self._closed:
            return 0
        (cursor,) = struct.unpack_from("<Q", self._mm, _CURSOR_OFFSET)
        return int(cursor)

    def events(self) -> list[dict]:
        """Decode this ring's retained events, oldest first."""
        return read_events(self.path)


def read_events(path) -> list[dict]:
    """Decode a ring file into event dicts, oldest first.

    Tolerates a ring whose writer died mid-write: the cursor is bumped
    only after the slot is complete, so at most the newest event is
    lost, never corrupted output.
    """
    raw = Path(path).read_bytes()
    if len(raw) < HEADER_SIZE:
        raise ValueError(f"{path} is too short to be a flight ring")
    magic, slots, slot_size, cursor, epoch = HEADER_STRUCT.unpack_from(raw, 0)
    if magic != MAGIC:
        raise ValueError(f"{path} is not a flight ring (bad magic {magic!r})")
    if slot_size != SLOT_SIZE:
        raise ValueError(f"{path} has slot size {slot_size}, expected {SLOT_SIZE}")
    n = min(cursor, slots)
    start = cursor - n  # oldest retained event index
    out = []
    for i in range(start, cursor):
        offset = HEADER_SIZE + (i % slots) * SLOT_SIZE
        t_s, kind, msg, value = EVENT_STRUCT.unpack_from(raw, offset)
        out.append(
            {
                "seq": i,
                "t_s": t_s,
                "kind": kind.rstrip(b"\x00").decode("ascii", "replace"),
                "msg": msg.rstrip(b"\x00").decode("ascii", "replace"),
                "value": value,
            }
        )
    return out


# -- bundle layout ----------------------------------------------------------

def flight_paths(out, role: str) -> dict[str, Path]:
    """The per-role artifact paths inside ``<bundle>/flight/``."""
    root = Path(out) / "flight"
    return {
        "ring": root / f"{role}.bin",
        "stacks": root / f"stacks-{role}.txt",
        "postmortem": root / f"postmortem-{role}.json",
        "crashlog": root / f"crash-{role}.log",
        "resources": root / f"resources-{role}.jsonl",
        "samples": root / f"samples-{role}.collapsed",
    }


def load_flight_dir(bundle) -> dict[str, list[dict]]:
    """All rings of a bundle: ``role -> events`` (empty if none)."""
    root = Path(bundle) / "flight"
    if not root.is_dir():
        return {}
    out = {}
    for path in sorted(root.glob("*.bin")):
        try:
            out[path.stem] = read_events(path)
        except (ValueError, OSError):  # unreadable ring: skip, don't fail
            continue
    return out


# -- stack dumps ------------------------------------------------------------

def dump_stacks(note: str = "") -> str:
    """Every thread's current Python stack as one formatted block."""
    names = {t.ident: t.name for t in threading.enumerate()}
    lines = [
        f"=== stack dump pid={os.getpid()} t={time.time():.3f}"
        + (f" ({note})" if note else "")
    ]
    for tid, frame in sorted(sys._current_frames().items()):
        lines.append(f"--- thread {tid} ({names.get(tid, '?')})")
        lines.extend(ln.rstrip("\n") for ln in traceback.format_stack(frame))
    return "\n".join(lines) + "\n"


def append_stack_dump(path, note: str = "") -> str:
    """Append :func:`dump_stacks` output to ``path``; returns the dump."""
    text = dump_stacks(note)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    return text


def write_postmortem(
    out,
    role: str,
    exc: BaseException | None = None,
    resources: dict | None = None,
) -> Path:
    """Stamp ``postmortem-<role>.json`` into the bundle's flight dir.

    Carries the crash identity (pid, thread), the formatted exception,
    every thread's stack at write time, and the final resource sample
    if the caller has one — everything the renderer needs to attribute
    a dead worker.
    """
    paths = flight_paths(out, role)
    record = {
        "role": role,
        "pid": os.getpid(),
        "tid": threading.get_ident(),
        "thread": threading.current_thread().name,
        "unix_time": round(time.time(), 3),
        "exception": (
            {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exception(type(exc), exc, exc.__traceback__),
            }
            if exc is not None
            else None
        ),
        "stacks": dump_stacks(f"postmortem {role}"),
        "resources": resources,
    }
    paths["postmortem"].parent.mkdir(parents=True, exist_ok=True)
    tmp = paths["postmortem"].with_suffix(".json.tmp")
    tmp.write_text(json.dumps(record, indent=1), encoding="utf-8")
    os.replace(tmp, paths["postmortem"])
    return paths["postmortem"]


# -- one process's black box ------------------------------------------------

class _CrashHooks:
    """One process's post-mortem wiring: ``faulthandler`` onto the crash
    log, a chained ``sys.excepthook`` that writes the post-mortem record,
    and a SIGUSR1 stack-dump handler.  :meth:`uninstall` restores all
    three."""

    def __init__(self, out, role: str, ring: FlightRecorder, resources=None):
        self.out = Path(out)
        self.role = role
        self.ring = ring
        self.resources = resources  # optional ResourceSampler for final samples
        self.paths = flight_paths(out, role)
        self._prev_excepthook = None
        self._prev_sigusr1 = None
        self._fault_was_enabled = False
        self._crash_fh = None

    def postmortem(self, exc: BaseException) -> None:
        """A ``crash`` ring event, then ``postmortem-<role>.json`` with a
        final resource sample."""
        self.ring.record("crash", f"{type(exc).__name__}: {exc}"[:36])
        final = None
        if self.resources is not None:
            try:
                final = self.resources.sample()
            except Exception:  # pragma: no cover
                final = None
        write_postmortem(self.out, self.role, exc, resources=final)

    # the SIGUSR1 handler: dump all thread stacks + note it in the ring
    def _on_sigusr1(self, signum, frame) -> None:
        try:
            append_stack_dump(self.paths["stacks"], note="SIGUSR1")
            self.ring.record("signal", "SIGUSR1 stack dump")
            if self.resources is not None:
                self.resources.sample()
        except Exception:  # pragma: no cover - never die inside a handler
            pass

    def _on_uncaught(self, exc_type, exc, tb) -> None:
        try:
            err = exc if isinstance(exc, BaseException) else exc_type(exc)
            err.__traceback__ = tb
            self.postmortem(err)
        except Exception:  # pragma: no cover
            pass
        if self._prev_excepthook is not None:
            self._prev_excepthook(exc_type, exc, tb)

    def install(self) -> "_CrashHooks":
        import faulthandler

        # hard faults (SIGSEGV & co): faulthandler writes C-level-safe
        # all-thread tracebacks into the crash log
        self._fault_was_enabled = faulthandler.is_enabled()
        self._crash_fh = open(self.paths["crashlog"], "w", encoding="utf-8")
        faulthandler.enable(file=self._crash_fh, all_threads=True)
        self._prev_excepthook = sys.excepthook
        sys.excepthook = self._on_uncaught
        # SIGUSR1 is only installable from the main thread of the
        # process; forked workers satisfy that (fork re-mains them)
        if threading.current_thread() is threading.main_thread():
            self._prev_sigusr1 = signal.signal(signal.SIGUSR1, self._on_sigusr1)
        return self

    def uninstall(self) -> None:
        import faulthandler

        if sys.excepthook == self._on_uncaught and self._prev_excepthook is not None:
            sys.excepthook = self._prev_excepthook
        if self._prev_sigusr1 is not None:
            try:
                signal.signal(signal.SIGUSR1, self._prev_sigusr1)
            except (ValueError, OSError):  # pragma: no cover - not main thread
                pass
        faulthandler.disable()
        self._crash_fh.close()
        if self._fault_was_enabled and sys.__stderr__ is not None:
            # faulthandler cannot report its previous file; stderr is
            # where it writes by default
            try:
                faulthandler.enable(file=sys.__stderr__, all_threads=True)
            except (ValueError, OSError):  # pragma: no cover - stderr closed
                pass


class ProcessObs:
    """One process's black box: flight ring, crash hooks, resource
    sampler and stack sampler, built and torn down in one fixed order.

    The :class:`~repro.obs.observer.Observer` starts the bundle's
    ``main`` instance from its settings and closes it at finalize; a
    forked worker enters :meth:`child` after the fork, so every
    per-process object observes the process it runs in.  :meth:`start`
    brings up ring, resources, stacks and hooks; :meth:`close` tears
    them down in reverse, once.  Wrapped around a worker body
    (``with``), an escaping exception first records a ``crash`` event
    and writes ``postmortem-<role>.json`` with a final resource sample,
    then re-raises, so the parent's "worker failed" error is
    attributable from the bundle.

    The ring and the hooks need ``out`` and ``flight``.  The ``main``
    role streams its resource rows to the bundle's ``resources.jsonl``
    and keeps its stack samples in memory for the observer's merge;
    every other role writes ``resources-<role>.jsonl`` and
    ``samples-<role>.collapsed`` under ``flight/``.
    """

    def __init__(
        self,
        out,
        role: str,
        *,
        flight: bool = False,
        resources: bool = False,
        resource_every_s: float = 0.5,
        stack_sample_s: float | None = None,
        epoch_unix: float | None = None,
        recorder=None,
    ):
        self.out = Path(out) if out is not None else None
        self.role = role
        self.flight = bool(flight) and self.out is not None
        self.sample_resources = bool(resources)
        self.resource_every_s = float(resource_every_s)
        self.stack_sample_s = stack_sample_s
        #: shared wall-clock zero of every ring of one run, so events
        #: from forked workers line up on one time axis
        self.epoch_unix = epoch_unix
        self._recorder = recorder
        self.ring: FlightRecorder | None = None
        self.resources = None
        self.stacks = None
        self.hooks: _CrashHooks | None = None
        self._closed = False

    def child(self, role: str) -> "ProcessObs":
        """The unstarted scope a forked worker enters after the fork:
        these settings under ``role``.  Inert without ``out``, since a
        worker's artifacts reach the parent only as files."""
        if self.out is None:
            return ProcessObs(None, role)
        return ProcessObs(
            self.out,
            role,
            flight=self.flight,
            resources=self.sample_resources,
            resource_every_s=self.resource_every_s,
            stack_sample_s=self.stack_sample_s,
            epoch_unix=self.epoch_unix,
        )

    def start(self) -> "ProcessObs":
        """Ring, resource sampler, stack sampler, crash hooks."""
        main = self.role == "main"
        paths = flight_paths(self.out, self.role) if self.out is not None else {}
        if self.flight:
            self.ring = FlightRecorder(paths["ring"], epoch_unix=self.epoch_unix)
        if self.sample_resources:
            from repro.obs.resources import ResourceSampler

            path = None
            if self.out is not None:
                path = self.out / "resources.jsonl" if main else paths["resources"]
            self.resources = ResourceSampler(
                path,
                role=self.role,
                every_s=self.resource_every_s,
                recorder=self._recorder,
            ).start()
        if self.stack_sample_s is not None:
            from repro.obs.sample import StackSampler

            self.stacks = StackSampler(
                interval_s=self.stack_sample_s,
                out_path=None if main else paths.get("samples"),
                role=self.role,
            ).start()
        if self.ring is not None:
            self.hooks = _CrashHooks(
                self.out, self.role, self.ring, resources=self.resources
            ).install()
        return self

    def record(self, kind: str, msg: str = "", value: float = 0.0) -> None:
        """One event into this process's ring (no-op without one)."""
        if self.ring is not None:
            self.ring.record(kind, msg, value)

    def close(self) -> None:
        """Hooks, stack sampler, resource sampler (final sample), ring."""
        if self._closed:
            return
        self._closed = True
        if self.hooks is not None:
            self.hooks.uninstall()
        for sampler in (self.stacks, self.resources):
            if sampler is not None:
                try:
                    sampler.stop()
                except Exception:  # pragma: no cover
                    pass
        if self.ring is not None:
            self.ring.close()

    def __enter__(self) -> "ProcessObs":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            crashed = exc is not None and not isinstance(exc, SystemExit)
            if crashed and self.hooks is not None:
                self.hooks.postmortem(exc)
        finally:
            self.close()
        return False
