"""Statistical sampling profiler over ``sys._current_frames()``.

A **low-overhead statistical sampler** that wakes ``hz`` times a
second, walks every thread's current stack, and counts collapsed
stacks.  Cost is paid at the sampling rate, not per function call, so
it is safe to leave on for real runs.  Unlike cProfile, which sees only
the process it was started in, each process runs its *own* sampler, so
the forked shm workers are first-class: every worker writes
``flight/samples-<role>.collapsed`` and the observer merges all of them
into one flamegraph-ready ``samples.collapsed`` at finalize.

On the main thread the sampler is driven by a ``SIGALRM`` interval
timer, not by a thread: a sampling thread only gets the GIL when the
running thread next *releases* it, so calls that drop the GIL (a small
``np.argsort`` does) would collect nearly every sample.  The signal
handler instead runs at the main thread's next bytecode boundary,
where the time is actually being spent.

Stack frames are labelled ``file.py:firstlineno(func)`` by
:func:`func_label`, which takes the same ``(file, line, name)`` triple
``pstats`` keys its functions by, so the sampler's hot functions can be
compared with cProfile's directly (the test suite asserts that they
agree on single-process runs).

Collapsed format (``flamegraph.pl`` / speedscope): one line per
distinct stack, ``frame;frame;... <count>``, counts = samples.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from collections import Counter
from pathlib import Path

__all__ = [
    "StackSampler",
    "frame_label",
    "func_label",
    "merge_collapsed",
    "parse_collapsed",
    "hot_functions",
    "load_merged_samples",
]

#: default sampling interval: 5 ms (200 Hz) keeps overhead well under
#: a percent for the engines' numpy-dominated sweeps
DEFAULT_INTERVAL_S = 0.005

#: daemon threads of the obs stack itself — excluded so the profile
#: shows the engine, not the telemetry
_OBS_THREAD_NAMES = frozenset(
    {"obs-sampler", "obs-resources", "obs-live", "obs-live-http", "obs-watchdog"}
)


def func_label(func: tuple) -> str:
    """``pstats`` function triple -> ``file.py:line(name)`` label."""
    filename, lineno, name = func
    if filename == "~":  # builtins have no file
        return name.strip("<>")
    return f"{Path(filename).name}:{lineno}({name})"


def frame_label(frame) -> str:
    """cProfile-compatible label for a live frame."""
    code = frame.f_code
    return func_label((code.co_filename, code.co_firstlineno, code.co_name))


def _collapse_frame(frame) -> str:
    """The collapsed stack (root->leaf) of one thread's live frame."""
    labels: list[str] = []
    while frame is not None:
        labels.append(frame_label(frame))
        frame = frame.f_back
    labels.reverse()
    return ";".join(labels)


class StackSampler:
    """Samples every thread's stack ``1 / interval_s`` times a second.

    Started on the main thread, a ``SIGALRM`` interval timer drives the
    sampling (see the module docstring).  Started on another thread, or
    while an interval timer is already armed in this process, it falls
    back to a daemon thread, which over-counts GIL-releasing calls.

    Parameters
    ----------
    interval_s:
        Seconds between sampling passes.
    out_path:
        Collapsed-stack file written on :meth:`stop` (None: in-memory).
    role:
        Label used in diagnostics only; the output format is role-free
        so per-worker files merge by plain addition.
    include_obs_threads:
        Sample the telemetry stack's own daemon threads too (off by
        default — the profile should show the engine).
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_INTERVAL_S,
        out_path=None,
        role: str = "main",
        include_obs_threads: bool = False,
    ):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.interval_s = float(interval_s)
        self.out_path = Path(out_path) if out_path is not None else None
        self.role = role
        self.include_obs_threads = include_obs_threads
        self.counts: Counter[str] = Counter()
        self.n_samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: the SIGALRM handler replaced while the timer drives sampling
        self._prev_handler = None
        self._armed = False
        self._in_alarm = False

    # -- sampling --------------------------------------------------------
    def sample_once(self, frame=None) -> int:
        """One pass over every thread; returns stacks recorded.

        ``frame`` is the calling thread's interrupted frame when the
        timer handler calls; it is recorded in place of the handler's own
        stack.  Without it the calling thread is skipped.
        """
        me = threading.get_ident()
        skip = {me} if frame is None else set()
        if self._thread is not None:
            skip.add(self._thread.ident)
        excluded_names = set() if self.include_obs_threads else _OBS_THREAD_NAMES
        if excluded_names:
            skip.update(
                t.ident
                for t in threading.enumerate()
                if t.name in excluded_names and t.ident is not None
            )
        frames = sys._current_frames()
        if frame is not None:
            frames[me] = frame
        recorded = 0
        for tid, top in frames.items():
            if tid in skip:
                continue
            stack = _collapse_frame(top)
            if stack:
                self.counts[stack] += 1
                recorded += 1
        self.n_samples += 1
        return recorded

    # -- lifecycle -------------------------------------------------------
    def _on_alarm(self, signum, frame) -> None:
        if self._in_alarm:  # a tick that fires mid-sample is dropped
            return
        self._in_alarm = True
        try:
            self.sample_once(frame)
        except Exception:  # pragma: no cover - keep the run alive
            pass
        finally:
            self._in_alarm = False

    def start(self) -> "StackSampler":
        if self._thread is not None or self._armed:
            return self
        if threading.current_thread() is threading.main_thread() and not any(
            signal.getitimer(signal.ITIMER_REAL)
        ):
            self._prev_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
            self._armed = True
            return self

        def loop() -> None:
            while not self._stop.wait(self.interval_s):
                try:
                    self.sample_once()
                except Exception:  # pragma: no cover - keep the run alive
                    pass

        self._stop.clear()
        self._thread = threading.Thread(target=loop, name="obs-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> str:
        """Stop sampling and write/return the collapsed output."""
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            # None: the replaced handler was not installed from Python
            signal.signal(signal.SIGALRM, self._prev_handler or signal.SIG_DFL)
            self._armed = False
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        text = self.collapsed()
        if self.out_path is not None:
            self.out_path.parent.mkdir(parents=True, exist_ok=True)
            self.out_path.write_text(text, encoding="utf-8")
        return text

    def collapsed(self) -> str:
        """Current counts in collapsed-stack format (sorted, stable)."""
        return render_collapsed(self.counts)


# -- collapsed-format helpers ----------------------------------------------

def render_collapsed(counts: dict) -> str:
    """``Counter[stack] -> text`` (one line per stack, sorted)."""
    lines = [f"{stack} {int(n)}" for stack, n in sorted(counts.items()) if n > 0]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_collapsed(text: str) -> Counter:
    """Inverse of :func:`render_collapsed`; tolerant of blank lines."""
    counts: Counter[str] = Counter()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, n = line.rpartition(" ")
        if not stack:
            continue
        try:
            counts[stack] += int(n)
        except ValueError:
            continue
    return counts


def merge_collapsed(texts) -> str:
    """Sum several collapsed-stack files into one (plain addition —
    the whole point of the per-worker format)."""
    total: Counter[str] = Counter()
    for text in texts:
        total.update(parse_collapsed(text))
    return render_collapsed(total)


def hot_functions(text: str, top: int = 10) -> list[tuple[str, int]]:
    """Hottest functions by *cumulative* samples (a function appearing
    anywhere in a stack is charged the stack's count, once per stack)."""
    cumulative: Counter[str] = Counter()
    for stack, n in parse_collapsed(text).items():
        for label in set(stack.split(";")):
            cumulative[label] += n
    return cumulative.most_common(top)


def load_merged_samples(bundle) -> str | None:
    """A bundle's merged collapsed stacks: the finalized
    ``samples.collapsed`` if present, else a merge of the per-role
    ``flight/samples-*.collapsed`` files (None when neither exists)."""
    root = Path(bundle)
    merged = root / "samples.collapsed"
    if merged.exists():
        return merged.read_text(encoding="utf-8")
    flight = root / "flight"
    parts = sorted(flight.glob("samples-*.collapsed")) if flight.is_dir() else []
    if not parts:
        return None
    return merge_collapsed(p.read_text(encoding="utf-8") for p in parts)


def profile_workload(fn, interval_s: float = 0.001, min_s: float = 0.2) -> str:
    """Run ``fn`` under a sampler for at least ``min_s`` wall seconds
    and return the collapsed stacks (test/benchmark helper)."""
    sampler = StackSampler(interval_s=interval_s).start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < min_s:
        fn()
    return sampler.stop()
