"""repro.obs — run-telemetry for every engine.

Per-thread lock-free metrics (:mod:`repro.obs.metrics`), Chrome
trace-event timelines (:mod:`repro.obs.trace`), JSONL convergence time
series (:mod:`repro.obs.timeseries`), report rendering
(:mod:`repro.obs.report`), live export — atomic ``live.json`` +
OpenMetrics endpoint (:mod:`repro.obs.live`) — the worker-heartbeat
watchdog (:mod:`repro.obs.watchdog`), the cross-run history /
regression gates (:mod:`repro.obs.history`), and the process
observability layer — crash-surviving flight recorder
(:mod:`repro.obs.flight`), ``/proc/self`` resource telemetry
(:mod:`repro.obs.resources`), cross-process statistical stack sampler
(:mod:`repro.obs.sample`) and the ``repro obs postmortem`` renderer
(:mod:`repro.obs.postmortem`) — all behind the :class:`Observer`
facade::

    from repro import load_benchmark, CGAConfig, StopCondition, ThreadedPACGA
    from repro.obs import Observer

    obs = Observer(out="out/bundle")
    engine = ThreadedPACGA(load_benchmark("u_i_hihi.0"),
                           CGAConfig(n_threads=4), obs=obs)
    engine.run(StopCondition(max_evaluations=20_000))
    obs.finalize(meta={"engine": "threads"})   # writes out/bundle/

Design rule: each worker thread owns a private recorder/tracer and the
registry merges on read, so instrumentation never adds shared-state
contention to the engines whose contention it measures.  With
``obs=None`` (the default everywhere) no collector is constructed at
all — the disabled path is allocation-free.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_US,
    Histogram,
    MetricRecorder,
    MetricsRegistry,
)
from repro.obs.trace import ThreadTracer, Tracer
from repro.obs.timeseries import TimeSeriesSampler
from repro.obs.observer import Observer
from repro.obs.report import load_bundle, render_markdown, render_terminal
from repro.obs.live import LivePublisher, render_openmetrics
from repro.obs.watchdog import HeartbeatBoard, StallEvent, Watchdog
from repro.obs.history import (
    append_history,
    check_resources,
    check_row,
    load_baseline,
    load_history,
    summarize_bundle,
)
from repro.obs.flight import FlightRecorder, ProcessObs, dump_stacks, load_flight_dir
from repro.obs.resources import ResourceSampler, load_resource_rows, resource_peaks
from repro.obs.sample import StackSampler, hot_functions, merge_collapsed
from repro.obs.postmortem import render_postmortem
from repro.obs.dynamics import (
    GridDynamics,
    attribution_summary,
    load_grid_rows,
    record_batch_attribution,
)
from repro.obs.top import render_frame, top

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_US",
    "Histogram",
    "MetricRecorder",
    "MetricsRegistry",
    "Tracer",
    "ThreadTracer",
    "TimeSeriesSampler",
    "Observer",
    "load_bundle",
    "render_markdown",
    "render_terminal",
    "LivePublisher",
    "render_openmetrics",
    "HeartbeatBoard",
    "StallEvent",
    "Watchdog",
    "append_history",
    "check_resources",
    "check_row",
    "load_baseline",
    "load_history",
    "summarize_bundle",
    "FlightRecorder",
    "ProcessObs",
    "dump_stacks",
    "load_flight_dir",
    "ResourceSampler",
    "load_resource_rows",
    "resource_peaks",
    "StackSampler",
    "hot_functions",
    "merge_collapsed",
    "render_postmortem",
    "GridDynamics",
    "attribution_summary",
    "load_grid_rows",
    "record_batch_attribution",
    "render_frame",
    "top",
]
