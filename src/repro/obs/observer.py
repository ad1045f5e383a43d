"""The run-telemetry facade: one :class:`Observer` per engine run.

An observer bundles the collectors of this package — per-thread
:class:`~repro.obs.metrics.MetricRecorder` objects behind a
:class:`~repro.obs.metrics.MetricsRegistry`, a Chrome-trace
:class:`~repro.obs.trace.Tracer`, and a JSONL
:class:`~repro.obs.timeseries.TimeSeriesSampler` — plus the bundle
writer that serializes all of them into one directory::

    bundle/
      meta.json        # engine, instance, config, outcome
      metrics.json     # merged + per-thread counters/gauges/histograms
      trace.json       # Chrome trace_event JSON (chrome://tracing, Perfetto)
      timeseries.jsonl # one sampled convergence row per line (streamed)
      grid.jsonl       # per-cell fitness/age/improvement snapshots (streamed)
      live.json        # latest live snapshot (only with live export on)
      report.md        # rendered human-readable summary

Engines take ``obs=Observer(...)`` and attach through the
:class:`~repro.cga.hooks.EngineHooks` protocol; with ``obs=None`` no
collector object is ever constructed and the hot paths run their
uninstrumented branches.

Live layer (PR 3): ``live=True`` / ``live_port=N`` attach a
:class:`~repro.obs.live.LivePublisher` (atomic ``live.json`` +
OpenMetrics endpoint) and ``stall_deadline_s`` attaches a
:class:`~repro.obs.watchdog.Watchdog` over the engine's heartbeat
board; both are created by :meth:`start_runtime` only when requested,
so a plain bundle-collecting observer spawns no extra threads.

Crash safety: the observer is a context manager — on an exception or
``KeyboardInterrupt`` inside the ``with`` block the partial bundle is
finalized with the error stamped into ``meta.json``, and the
time-series rows were already streamed to disk as they fired.

Process observability (PR 7): ``flight=True`` adds the crash-surviving
flight recorder (:mod:`repro.obs.flight` — mmap'd event rings, crash
hooks, SIGUSR1 stack dumps), ``resources=True`` the per-process
``/proc/self`` sampler (:mod:`repro.obs.resources`), and
``stack_sample_s`` the statistical profiler
(:mod:`repro.obs.sample`).  Forked engine workers get all three via
:meth:`Observer.process_scope`, and :func:`render bundles with
repro obs postmortem <repro.obs.postmortem.render_postmortem>`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Callable

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesSampler
from repro.obs.trace import Tracer

__all__ = ["Observer", "WorkerObs"]


class Observer:
    """Collects one run's telemetry; lock-free on every hot path.

    Parameters
    ----------
    out:
        Bundle directory (created eagerly so the time series can stream
        into it); None keeps everything in memory.
    trace:
        Collect Chrome trace events (timeline spans per thread).
    sample_every_evals / sample_every_s:
        Time-series cadence, see :class:`TimeSeriesSampler`.
    live:
        Publish an atomically-replaced ``live.json`` into ``out`` while
        the run executes (implied by ``live_port``).
    live_port:
        Also serve ``/metrics`` (OpenMetrics) and ``/live.json`` on
        this TCP port (0 picks an ephemeral port).
    live_every_s:
        Live publish cadence.
    stall_deadline_s:
        Enable the worker watchdog: a worker whose heartbeat has not
        advanced for this many seconds is reported as stalled (None
        disables the watchdog entirely).
    flight:
        Enable the crash-surviving flight recorder: an mmap'd event
        ring + post-mortem hooks (faulthandler, excepthook, SIGUSR1)
        per observed process under ``out/flight/``.  Needs ``out``.
    resources:
        Sample ``/proc/self`` (RSS, CPU, fds, GC, ``/dev/shm``) on a
        daemon thread; rows stream to ``resources.jsonl`` when ``out``
        is set and feed ``proc.*`` gauges either way.
    resource_every_s:
        Resource sampling cadence.
    stack_sample_s:
        Interval of the statistical stack sampler (None disables it);
        merged collapsed stacks land in ``samples.collapsed``.
    """

    def __init__(
        self,
        out: str | os.PathLike | None = None,
        trace: bool = True,
        sample_every_evals: int | None = 256,
        sample_every_s: float | None = None,
        live: bool = False,
        live_port: int | None = None,
        live_every_s: float = 0.5,
        stall_deadline_s: float | None = None,
        grid: bool = True,
        flight: bool = False,
        resources: bool = False,
        resource_every_s: float = 0.5,
        stack_sample_s: float | None = None,
    ):
        self.out = Path(out) if out is not None else None
        self.registry = MetricsRegistry()
        self.tracer = Tracer() if trace else None
        stream_to = None
        if self.out is not None:
            self.out.mkdir(parents=True, exist_ok=True)
            stream_to = self.out / "timeseries.jsonl"
        self.sampler = TimeSeriesSampler(
            sample_every_evals, sample_every_s, stream_to=stream_to
        )
        self.live = bool(live) or live_port is not None
        self.live_port = live_port
        self.live_every_s = live_every_s
        self.stall_deadline_s = stall_deadline_s
        self.publisher = None
        self.watchdog = None
        #: grid-dynamics tracker (repro.obs.dynamics.GridDynamics),
        #: created lazily on the first engine_row once the grid shape is
        #: known; stays None with grid recording disabled
        self.grid = bool(grid)
        self.griddyn = None
        self.meta: dict = {}
        self.epoch = time.perf_counter()
        #: shared wall-clock zero for every flight ring of this run, so
        #: events from forked workers line up on one time axis
        self.epoch_unix = time.time()
        # -- process observability (flight / resources / stack sampler) --
        self.flight_enabled = bool(flight) and self.out is not None
        self.resource_every_s = float(resource_every_s)
        self.stack_sample_s = stack_sample_s
        self.resources = None
        if resources:
            from repro.obs.resources import ResourceSampler

            self.resources = ResourceSampler(
                self.out / "resources.jsonl" if self.out is not None else None,
                role="main",
                every_s=self.resource_every_s,
                recorder=self.recorder("resources"),
            ).start()
        self.stacks = None
        if stack_sample_s is not None:
            from repro.obs.sample import StackSampler

            self.stacks = StackSampler(
                interval_s=stack_sample_s, out_path=None, role="main"
            ).start()
        self.flight = None
        self.crash_hooks = None
        if self.flight_enabled:
            from repro.obs.flight import (
                FlightRecorder,
                flight_paths,
                install_crash_hooks,
            )

            self.flight = FlightRecorder(
                flight_paths(self.out, "main")["ring"], epoch_unix=self.epoch_unix
            )
            self.crash_hooks = install_crash_hooks(
                self.out, "main", ring=self.flight, resources=self.resources
            )
            self.flight.record("budget.start")
        #: finalize the bundle automatically when the run ends (the
        #: experiment harnesses set it, so their per-run bundles need no
        #: manual finalize call)
        self.auto_finalize = False
        self._finalized: dict[str, Path] | None = None
        self._proc_obs_stopped = False

    # -- collection API -------------------------------------------------
    def recorder(self, thread: str | int):
        """The private metric recorder for ``thread``."""
        return self.registry.recorder(thread)

    def thread_tracer(self, tid: int, name: str | None = None):
        """The trace lane for ``tid``; None when tracing is disabled."""
        if self.tracer is None:
            return None
        return self.tracer.thread(tid, name)

    def elapsed(self) -> float:
        """Wall seconds since the observer was created."""
        return time.perf_counter() - self.epoch

    def maybe_sample(
        self,
        evaluations: int,
        provider: Callable[[], dict],
        t_s: float | None = None,
        force: bool = False,
    ) -> bool:
        """Tick the time-series sampler (wall clock unless ``t_s`` given)."""
        t = self.elapsed() if t_s is None else t_s
        return self.sampler.tick(evaluations, t, provider, force=force)

    # -- process observability -------------------------------------------
    def flight_event(self, kind: str, msg: str = "", value: float = 0.0) -> None:
        """Record one event into the main flight ring (no-op when off)."""
        if self.flight is not None:
            self.flight.record(kind, msg, value)

    def flight_ring(self, role: str):
        """A fresh per-role ring in this bundle's flight dir (or None).

        Called *inside* a forked worker (post-fork), so the ring's
        writer is that worker's own process; all rings share
        :attr:`epoch_unix` so their events line up on one time axis.
        """
        if not self.flight_enabled:
            return None
        from repro.obs.flight import FlightRecorder, flight_paths

        return FlightRecorder(
            flight_paths(self.out, role)["ring"], epoch_unix=self.epoch_unix
        )

    def process_scope(self, role: str) -> "WorkerObs":
        """The per-forked-worker observability runtime (context manager).

        Entered inside the child after ``fork``: creates the worker's
        own flight ring, crash hooks (post-mortem record + SIGUSR1
        stack dumps), resource sampler and stack sampler, according to
        what this observer has enabled.  With everything off it is an
        inert no-op scope, so engines can wrap their worker bodies
        unconditionally.
        """
        return WorkerObs(self, role)

    def _stop_process_obs(self) -> None:
        """Stop samplers / close the main ring exactly once."""
        if self._proc_obs_stopped:
            return
        self._proc_obs_stopped = True
        if self.stacks is not None:
            try:
                self.stacks.stop()
            except Exception:  # pragma: no cover
                pass
        if self.resources is not None:
            try:
                self.resources.stop()
            except Exception:  # pragma: no cover
                pass
        if self.flight is not None:
            self.flight.record("budget.done")
            self.flight.close()
        if self.crash_hooks is not None:
            self.crash_hooks.uninstall()
            self.crash_hooks = None

    # -- live runtime (publisher + watchdog) -----------------------------
    @property
    def runtime_wanted(self) -> bool:
        """Do the live settings ask for any runtime attachment?  Engines
        skip heartbeat-board construction entirely when this is False."""
        return self.live or self.stall_deadline_s is not None

    def start_runtime(
        self,
        board=None,
        progress: Callable[[], dict] | None = None,
        on_stall: Callable | None = None,
    ) -> None:
        """Attach the live publisher and/or watchdog for one run.

        Engines call this at run start with their heartbeat ``board``
        and a lock-free ``progress`` provider; with neither live export
        nor a stall deadline configured this is a no-op and no thread
        or socket is created.
        """
        if self.live and self.publisher is None:
            from repro.obs.live import LivePublisher

            self.publisher = LivePublisher(
                self,
                progress=progress,
                out=self.out,
                port=self.live_port,
                every_s=self.live_every_s,
            ).start()
        if self.stall_deadline_s is not None and board is not None and self.watchdog is None:
            from repro.obs.watchdog import Watchdog

            stack_capture = None
            if self.flight_enabled:
                from repro.obs.flight import append_stack_dump, flight_paths

                stacks_path = flight_paths(self.out, "main")["stacks"]

                def stack_capture(event):
                    append_stack_dump(
                        stacks_path,
                        note=f"stall w{event.worker} {event.stalled_s:.1f}s",
                    )

            self.watchdog = Watchdog(
                board,
                self.stall_deadline_s,
                on_stall=on_stall,
                recorder=self.recorder("watchdog"),
                tracer_for=lambda w: self.thread_tracer(w),
                stack_capture=stack_capture,
                flight=self.flight,
            ).start()

    def stop_runtime(self) -> None:
        """Stop the watchdog and publisher (final ``live.json`` publish
        happens here, after the engine's recorders are final)."""
        if self.watchdog is not None:
            self.watchdog.stop()
            self.watchdog = None
        if self.publisher is not None:
            self.publisher.stop()
            self.publisher = None

    # -- engine integration ---------------------------------------------
    def engine_hooks(self):
        """The :class:`EngineHooks` bundle the sequential engines chain in."""
        from repro.cga.hooks import EngineHooks

        def on_generation(engine, generation, evaluations):
            self.maybe_sample(
                evaluations, lambda: self.engine_row(engine, generation, evaluations)
            )

        def on_improvement(engine, generation, evaluations, best):
            self.recorder("main").inc("improvements")
            tt = self.thread_tracer(0, "main")
            if tt is not None:
                tt.instant("improvement", {"best": best, "generation": generation})

        # the run's end (final sample, result, auto-finalize) is
        # runtime.context.finish_run, shared by every engine
        return EngineHooks(on_generation, on_improvement)

    def engine_row(self, engine, generation: int, evaluations: int) -> dict:
        """One canonical time-series row computed from a live engine."""
        from repro.cga.diversity import allele_entropy

        _, best = engine.pop.best()
        t = self.elapsed()
        row = {
            "generation": generation,
            "best": best,
            "mean": engine.pop.mean_fitness(),
            "entropy": allele_entropy(engine.pop),
            "evals_per_s": evaluations / t if t > 0 else 0.0,
        }
        row.update(self.dynamics_row())
        grid_row = self.grid_snapshot(engine, generation, t)
        if grid_row is not None:
            row["takeover_fraction"] = grid_row["takeover_fraction"]
            row["fitness_entropy"] = grid_row["fitness_entropy"]
        return row

    def grid_snapshot(self, engine, generation: int, t_s: float | None = None):
        """Feed one per-cell fitness snapshot to the grid-dynamics
        tracker (created lazily from the engine's grid shape on the
        first call); returns the emitted row or None when grid
        recording is off or the engine has no 2-D grid.

        Every engine family funnels its time-series sampling through
        :meth:`engine_row` — the scalar loops per generation, the
        parallel families from the coordinator thread at evaluation
        cadence, all of them once more from ``finish_run`` — so this
        single hook point makes ``grid.jsonl`` engine-uniform.
        """
        if not self.grid:
            return None
        if self.griddyn is None:
            grid = getattr(engine, "grid", None)
            pop = getattr(engine, "pop", None)
            if grid is None or pop is None:
                return None
            from repro.obs.dynamics import GridDynamics

            stream_to = self.out / "grid.jsonl" if self.out is not None else None
            self.griddyn = GridDynamics(grid.rows, grid.cols, stream_to=stream_to)
        return self.griddyn.snapshot(
            engine.pop.fitness, generation, self.elapsed() if t_s is None else t_s
        )

    def dynamics_row(self) -> dict:
        """Cumulative LS-acceptance and lock-time fields from the metrics."""
        c = self.registry.merged().counters
        tried = c.get("ls.moves_tried", 0.0)
        row = {
            "ls_accept_rate": (c.get("ls.moves_accepted", 0.0) / tried) if tried else None,
            "lock_wait_s": c.get("lock.read_wait_s_total", 0.0)
            + c.get("lock.write_wait_s_total", 0.0),
            "lock_hold_s": c.get("lock.read_hold_s_total", 0.0)
            + c.get("lock.write_hold_s_total", 0.0),
        }
        return row

    def record_result(self, result) -> None:
        """Stamp a finished :class:`RunResult` into the metadata."""
        self.meta.setdefault("result", {}).update(
            {
                "best_fitness": result.best_fitness,
                "evaluations": result.evaluations,
                "generations": result.generations,
                "elapsed_s": result.elapsed_s,
                "extra": {
                    k: v
                    for k, v in result.extra.items()
                    if isinstance(v, (int, float, str, bool, list))
                },
            }
        )

    # -- crash safety ----------------------------------------------------
    def __enter__(self) -> "Observer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Finalize even on error: a crashed run leaves a partial bundle
        (streamed time series + whatever the recorders held) with the
        exception stamped into ``meta.json``."""
        self.stop_runtime()
        if exc_type is not None:
            self.meta["interrupted"] = {
                "type": exc_type.__name__,
                "message": str(exc),
            }
            # who raised: engines stamp the failing *worker*'s identity
            # before raising (shm), so only default to this
            # process when nothing more specific is known
            self.meta.setdefault(
                "interrupted_by",
                {
                    "role": "main",
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "thread": threading.current_thread().name,
                },
            )
            self.flight_event("crash", f"{exc_type.__name__}: {exc}"[:36])
        self.finalize()
        return False

    # -- bundle ----------------------------------------------------------
    def finalize(self, meta: dict | None = None) -> dict[str, Path]:
        """Write the bundle (idempotent); returns artifact paths.

        With ``out=None`` nothing is written and an empty dict returns —
        the collectors remain inspectable in memory.
        """
        if meta:
            self.meta.update(meta)
        self.stop_runtime()
        if self.griddyn is not None:
            self.griddyn.close()
        self._stop_process_obs()
        if self.out is None:
            self.sampler.close()
            return {}
        if self._finalized is not None:
            return self._finalized
        self.out.mkdir(parents=True, exist_ok=True)
        paths: dict[str, Path] = {}

        if self.resources is not None:
            from repro.obs.resources import resource_peaks

            paths["resources"] = self.out / "resources.jsonl"  # streamed
            peaks = resource_peaks(self.out)
            if peaks:
                self.meta.setdefault("resources", peaks)

        # merged collapsed stacks: this process's sampler plus whatever
        # the forked workers left under flight/samples-*.collapsed
        sample_parts: list[str] = []
        if self.stacks is not None:
            sample_parts.append(self.stacks.collapsed())
        flight_dir = self.out / "flight"
        if flight_dir.is_dir():
            sample_parts.extend(
                p.read_text(encoding="utf-8")
                for p in sorted(flight_dir.glob("samples-*.collapsed"))
            )
        if sample_parts:
            from repro.obs.sample import merge_collapsed, parse_collapsed

            merged = merge_collapsed(sample_parts)
            if merged.strip():
                paths["samples"] = self.out / "samples.collapsed"
                paths["samples"].write_text(merged, encoding="utf-8")
                self.meta.setdefault(
                    "n_stack_samples", sum(parse_collapsed(merged).values())
                )

        paths["metrics"] = self.out / "metrics.json"
        with open(paths["metrics"], "w", encoding="utf-8") as fh:
            json.dump(self.registry.snapshot(), fh, indent=1)

        paths["timeseries"] = self.out / "timeseries.jsonl"
        self.sampler.write(paths["timeseries"])

        if self.tracer is not None:
            paths["trace"] = self.out / "trace.json"
            self.tracer.write(paths["trace"])

        if self.griddyn is not None:
            # rows were streamed as they fired; if the sink never opened
            # (out was set after snapshots started) write them now
            paths["grid"] = self.out / "grid.jsonl"
            if not paths["grid"].exists():
                with open(paths["grid"], "w", encoding="utf-8") as fh:
                    for grow in self.griddyn.rows:
                        fh.write(json.dumps(grow) + "\n")
            self.meta.setdefault("n_grid_rows", self.griddyn.n_total)

        self.meta.setdefault("n_timeseries_rows", len(self.sampler))
        self.meta.setdefault(
            "n_trace_events", self.tracer.n_events if self.tracer else 0
        )
        paths["meta"] = self.out / "meta.json"
        with open(paths["meta"], "w", encoding="utf-8") as fh:
            json.dump(self.meta, fh, indent=1, default=str)

        from repro.obs.report import render_markdown

        paths["report"] = self.out / "report.md"
        paths["report"].write_text(
            render_markdown(
                self.meta,
                self.registry.snapshot(),
                self.sampler.rows,
                grid_rows=self.griddyn.rows if self.griddyn is not None else None,
            ),
            encoding="utf-8",
        )
        self._finalized = paths
        return paths

    def summary(self) -> str:
        """Terminal-friendly one-screen summary of the collected run."""
        from repro.obs.report import render_terminal

        return render_terminal(
            self.meta,
            self.registry.snapshot(),
            self.sampler.rows,
            grid_rows=self.griddyn.rows if self.griddyn is not None else None,
        )


class WorkerObs:
    """One forked worker's process-observability runtime.

    Returned by :meth:`Observer.process_scope` and entered *inside* the
    child: the flight ring, crash hooks, resource sampler and stack
    sampler are all per-process objects, so they must be constructed
    post-fork to observe the worker rather than the parent.  With
    nothing enabled on the observer the scope is inert — engines wrap
    their worker bodies unconditionally.
    """

    __slots__ = ("obs", "role", "ring", "resources", "stacks", "_scope")

    def __init__(self, obs: Observer, role: str):
        self.obs = obs
        self.role = role
        self.ring = None
        self.resources = None
        self.stacks = None
        self._scope = None

    def __enter__(self) -> "WorkerObs":
        obs = self.obs
        if obs.out is None:
            return self
        from repro.obs.flight import flight_paths

        paths = flight_paths(obs.out, self.role)
        if obs.flight_enabled:
            self.ring = obs.flight_ring(self.role)
        if obs.resources is not None:
            from repro.obs.resources import ResourceSampler

            self.resources = ResourceSampler(
                paths["resources"],
                role=self.role,
                every_s=obs.resource_every_s,
            ).start()
        if obs.stack_sample_s is not None:
            from repro.obs.sample import StackSampler

            self.stacks = StackSampler(
                interval_s=obs.stack_sample_s,
                out_path=paths["samples"],
                role=self.role,
            ).start()
        if obs.flight_enabled:
            from repro.obs.flight import worker_crash_scope

            self._scope = worker_crash_scope(
                obs.out, self.role, ring=self.ring, resources=self.resources
            )
            self._scope.__enter__()
        return self

    def record(self, kind: str, msg: str = "", value: float = 0.0) -> None:
        """One flight event into this worker's ring (no-op when off)."""
        if self.ring is not None:
            self.ring.record(kind, msg, value)

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            # the crash scope first: on an exception it writes the
            # post-mortem record (with a final resource sample) while
            # the samplers are still alive
            if self._scope is not None:
                self._scope.__exit__(exc_type, exc, tb)
        finally:
            if self.stacks is not None:
                try:
                    self.stacks.stop()
                except Exception:  # pragma: no cover
                    pass
            if self.resources is not None:
                try:
                    self.resources.stop()
                except Exception:  # pragma: no cover
                    pass
        return False

