"""Live run export: atomic ``live.json`` and OpenMetrics HTTP.

PR 2's bundles are post-mortem — nothing is visible until
``Observer.finalize()``.  This module adds the *during-the-run* layer:

* :class:`LivePublisher` — a background daemon thread that periodically
  folds the merge-on-read :class:`~repro.obs.metrics.MetricsRegistry`
  plus engine progress (generation, evaluations, best fitness, worker
  heartbeats) into one snapshot, atomically replaces ``live.json`` in
  the bundle directory (write-temp + ``os.replace``, so a reader never
  sees a torn file), and optionally serves the same snapshot over a
  stdlib ``http.server`` endpoint: ``/metrics`` in OpenMetrics /
  Prometheus text exposition format, ``/live.json`` as JSON.
* :func:`render_openmetrics` — the exposition-format renderer
  (deterministic output; the golden test pins it).

``repro obs top`` (:mod:`repro.obs.top`) renders the snapshot in the
terminal.

The publisher reads worker state the same way the time-series sampler
does — lock-free and slightly stale by design — so going live costs the
workers nothing.  With ``obs=None`` (or live export not requested) no
publisher thread or server socket is ever created.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Callable

__all__ = [
    "OPENMETRICS_CONTENT_TYPE",
    "atomic_write_json",
    "render_openmetrics",
    "LivePublisher",
]

#: content type the /metrics endpoint advertises (Prometheus scrapes it)
OPENMETRICS_CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"


def atomic_write_json(path, obj: dict) -> None:
    """Write ``obj`` as JSON via a same-directory temp + ``os.replace``.

    ``os.replace`` is atomic on POSIX, so concurrent readers (the top
    dashboard, a scraper tailing the file) always load either the previous
    or the new complete snapshot, never a partial write.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))  # one write: json.dump streams ~4x slower
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# -- OpenMetrics rendering ------------------------------------------------

def _om_name(key: str) -> str:
    """Sanitize a dotted metric key into an OpenMetrics metric name."""
    out = []
    for ch in key:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    name = "".join(out)
    if name and name[0].isdigit():
        name = "_" + name
    return f"repro_{name}"


def _om_num(v) -> str:
    """Numbers in exposition format: integral floats print as ints."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float) and v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v) if isinstance(v, float) else str(v)


def render_openmetrics(merged: dict, progress: dict | None = None) -> str:
    """OpenMetrics text exposition of a merged recorder snapshot.

    ``merged`` is ``MetricsRegistry.merged().snapshot()`` (or the
    ``"merged"`` entry of a ``metrics.json``); ``progress`` carries the
    engine coordinates (generation, evaluations, best, elapsed_s, plus
    optional per-worker ``heartbeats`` / ``workers_done`` lists).
    Output is deterministic: progress first, then counters, gauges and
    histograms, each sorted by name, terminated by ``# EOF``.
    """
    lines: list[str] = []

    def family(name: str, kind: str) -> None:
        lines.append(f"# TYPE {name} {kind}")

    progress = progress or {}
    scalar_progress = [
        ("generation", "repro_run_generation"),
        ("evaluations", "repro_run_evaluations"),
        ("best", "repro_run_best_fitness"),
        ("elapsed_s", "repro_run_elapsed_seconds"),
    ]
    for key, name in scalar_progress:
        v = progress.get(key)
        if v is None:
            continue
        family(name, "gauge")
        lines.append(f"{name} {_om_num(v)}")
    heartbeats = progress.get("heartbeats")
    if heartbeats:
        family("repro_worker_heartbeat", "counter")
        for w, hb in enumerate(heartbeats):
            lines.append(f'repro_worker_heartbeat_total{{worker="{w}"}} {_om_num(hb)}')
    done = progress.get("workers_done")
    if done:
        family("repro_worker_done", "gauge")
        for w, d in enumerate(done):
            lines.append(f'repro_worker_done{{worker="{w}"}} {_om_num(bool(d))}')

    for key in sorted(merged.get("counters", {})):
        name = _om_name(key)
        family(name, "counter")
        lines.append(f"{name}_total {_om_num(merged['counters'][key])}")

    for key in sorted(merged.get("gauges", {})):
        if "{" in key:  # per-thread labeled copies from the merge; skip
            continue
        name = _om_name(key)
        family(name, "gauge")
        lines.append(f"{name} {_om_num(merged['gauges'][key])}")

    for key in sorted(merged.get("histograms", {})):
        h = merged["histograms"][key]
        name = _om_name(key)
        family(name, "histogram")
        cumulative = 0
        for bound, count in zip(h["bounds"], h["counts"]):
            cumulative += count
            lines.append(f'{name}_bucket{{le="{_om_num(float(bound))}"}} {cumulative}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {h["count"]}')
        lines.append(f"{name}_sum {_om_num(float(h['sum']))}")
        lines.append(f"{name}_count {h['count']}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# -- the publisher --------------------------------------------------------

class LivePublisher:
    """Background snapshot publisher for one observed run.

    Parameters
    ----------
    observer:
        The run's :class:`~repro.obs.observer.Observer` (registry, meta
        and clock source).
    progress:
        Zero-argument callable returning the engine-progress dict; read
        on the publisher thread, so it must be safe to call lock-free
        (every engine's provider only reads arrays and counters).
    out:
        Directory receiving ``live.json`` (None: HTTP only).
    port:
        TCP port for the OpenMetrics endpoint (None: file only; 0 picks
        an ephemeral port, exposed as :attr:`port` after :meth:`start`).
    every_s:
        Publish cadence in seconds.
    """

    def __init__(
        self,
        observer,
        progress: Callable[[], dict] | None = None,
        out=None,
        port: int | None = None,
        every_s: float = 0.5,
    ):
        if every_s <= 0:
            raise ValueError(f"every_s must be positive, got {every_s}")
        self.observer = observer
        self.progress = progress
        self.out = Path(out) if out is not None else None
        self.port = port
        self.every_s = float(every_s)
        self.n_published = 0
        self._latest: tuple[bytes, bytes] | None = None  # (json, openmetrics)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._server = None
        self._server_thread: threading.Thread | None = None

    # -- snapshot ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Compose one live snapshot (pure read; callable from tests)."""
        obs = self.observer
        progress = dict(self.progress()) if self.progress is not None else {}
        progress.setdefault("elapsed_s", obs.elapsed())
        t = progress["elapsed_s"]
        evals = progress.get("evaluations")
        if evals is not None and t and "evals_per_s" not in progress:
            progress["evals_per_s"] = evals / t
        meta = {
            k: obs.meta[k]
            for k in ("engine", "instance", "n_threads", "seed")
            if k in obs.meta
        }
        snap = {
            "updated_t_s": obs.elapsed(),
            "meta": meta,
            "progress": progress,
            "metrics": obs.registry.merged().snapshot(),
        }
        griddyn = getattr(obs, "griddyn", None)
        if griddyn is not None and griddyn.latest is not None:
            snap["grid"] = griddyn.latest
        resources = obs.proc.resources
        if resources is not None and resources.latest is not None:
            snap["resources"] = dict(resources.latest)
            snap["resources"].update(resources.peaks)
        return snap

    def publish(self) -> dict:
        """Snapshot + atomically replace ``live.json`` + refresh HTTP."""
        snap = self.snapshot()
        self._latest = (
            json.dumps(snap).encode("utf-8"),
            render_openmetrics(snap["metrics"], snap["progress"]).encode("utf-8"),
        )
        if self.out is not None:
            self.out.mkdir(parents=True, exist_ok=True)
            atomic_write_json(self.out / "live.json", snap)
        self.n_published += 1
        return snap

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "LivePublisher":
        """Publish once, bind the HTTP server (if requested), start the
        cadence thread."""
        self.publish()
        if self.port is not None:
            self._start_server()

        def loop() -> None:
            while not self._stop.wait(self.every_s):
                self.publish()

        self._stop.clear()
        self._thread = threading.Thread(target=loop, name="obs-live", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the cadence thread and server; publish one final
        snapshot so ``live.json`` matches the finalized bundle."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._server is not None:
            self._server.shutdown()
            if self._server_thread is not None:
                self._server_thread.join(timeout=5.0)
            self._server.server_close()
            self._server = None
            self._server_thread = None
        self.publish()

    def _start_server(self) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        publisher = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (stdlib naming)
                latest = publisher._latest
                if latest is None:
                    self.send_error(503, "no snapshot yet")
                    return
                body_json, body_om = latest
                if self.path in ("/metrics", "/metrics/"):
                    body, ctype = body_om, OPENMETRICS_CONTENT_TYPE
                elif self.path in ("/", "/live.json"):
                    body, ctype = body_json, "application/json; charset=utf-8"
                else:
                    self.send_error(404, "try /metrics or /live.json")
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence per-request stderr spam
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", self.port), Handler)
        self.port = self._server.server_address[1]
        self._server_thread = threading.Thread(
            target=self._server.serve_forever, name="obs-live-http", daemon=True
        )
        self._server_thread.start()

