"""Rendering of a telemetry bundle: terminal text and markdown.

Both renderers take the same inputs — the ``meta`` dict, a
``MetricsRegistry.snapshot()``, the sampler's row list and (optionally)
the grid-dynamics rows — so they work on a live
:class:`~repro.obs.observer.Observer` *and* on a bundle reloaded from
disk (:func:`load_bundle` + :func:`repro.obs.dynamics.load_grid_rows`).
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["render_terminal", "render_markdown", "load_bundle"]

#: timing tables, one per sampling unit so no column mixes units:
#: (title, first-column header, [(histogram key, row label)]), in report order.
_TIMING_TABLES = [
    (
        "Phase timings (one sample per observed scalar step or batch call)",
        "phase",
        [
            ("phase.select_us", "selection"),
            ("phase.crossover_us", "crossover"),
            ("phase.mutate_us", "mutation"),
            ("phase.ls_us", "local search"),
            ("phase.fitness_us", "fitness"),
        ],
    ),
    ("Sweep timings (one sample per block sweep)", "sweep", [("sweep_us", "block sweep")]),
    (
        "Lock waits (one sample per timed acquisition)",
        "lock",
        [("lock.read_wait_us", "read wait"), ("lock.write_wait_us", "write wait")],
    ),
]


def _table(headers: list[str], rows: list[list[str]]) -> str:
    """Minimal fixed-width table (self-contained, no experiments import)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def _fmt(v, digits: int = 2) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:,.{digits}f}"
    return f"{v:,}" if isinstance(v, int) else str(v)


def _timing_rows(hists: dict, keys: list[tuple[str, str]]) -> list[list[str]]:
    rows = []
    for key, label in keys:
        h = hists.get(key)
        if h is None or not h.get("count"):
            continue
        rows.append(
            [
                label,
                _fmt(h["count"]),
                _fmt(h["mean"]),
                _fmt(h["p50"]),
                _fmt(h["p99"]),
                _fmt(h["sum"] / 1e6, 3),
            ]
        )
    return rows


def _thread_rows(per_thread: dict) -> list[list[str]]:
    rows = []
    for name, snap in per_thread.items():
        if name == "merged":
            continue
        c = snap.get("counters", {})
        rows.append(
            [
                name,
                _fmt(int(c.get("breeding.evaluations", c.get("evaluations", 0)))),
                _fmt(int(c.get("sweeps", 0))),
                _fmt(int(c.get("boundary_evals", 0))),
                _fmt(int(c.get("breeding.replacements", 0))),
                _fmt(
                    c.get("lock.read_wait_s_total", 0.0)
                    + c.get("lock.write_wait_s_total", 0.0),
                    4,
                ),
            ]
        )
    return rows


def _sections(meta: dict, metrics: dict, rows: list[dict], grid_rows: list[dict] | None = None):
    """The report content as (title, body) sections, format-agnostic."""
    merged = metrics.get("merged", {})
    counters = merged.get("counters", {})
    sections: list[tuple[str, str]] = []

    head = []
    result = meta.get("result", {})
    for key in ("engine", "instance", "n_threads", "command"):
        if key in meta:
            head.append(f"{key}: {meta[key]}")
    for key in ("best_fitness", "evaluations", "generations", "elapsed_s"):
        if key in result:
            head.append(f"{key}: {_fmt(result[key])}")
    sections.append(("Run", "\n".join(head) or "(no metadata)"))

    hists = merged.get("histograms", {})
    for title, unit, keys in _TIMING_TABLES:
        timing = _timing_rows(hists, keys)
        if timing:
            headers = [unit, "samples", "mean µs", "p50 µs", "p99 µs", "sum s"]
            sections.append((title, _table(headers, timing)))

    threads = _thread_rows(metrics.get("per_thread", {}))
    if threads:
        sections.append(
            (
                "Per-thread activity",
                _table(
                    ["thread", "evals", "sweeps", "boundary evals", "replacements", "lock wait s"],
                    threads,
                ),
            )
        )

    stalls = counters.get("watchdog.stalls", 0.0)
    if stalls:
        recoveries = counters.get("watchdog.recoveries", 0.0)
        sections.append(
            (
                "Watchdog",
                f"stall events: {_fmt(int(stalls))}\n"
                f"recoveries: {_fmt(int(recoveries))}\n"
                f"unrecovered at exit: {_fmt(int(stalls - recoveries))}",
            )
        )

    tried = counters.get("ls.moves_tried", 0.0)
    if tried:
        accepted = counters.get("ls.moves_accepted", 0.0)
        sections.append(
            (
                "Local search",
                f"moves tried: {_fmt(int(tried))}\n"
                f"moves accepted: {_fmt(int(accepted))}\n"
                f"acceptance rate: {100.0 * accepted / tried:.1f}%",
            )
        )

    from repro.obs.dynamics import attribution_summary

    attribution = attribution_summary(counters)
    if attribution:
        sections.append(
            (
                "Operator attribution",
                _table(
                    ["operator", "attempts", "successes", "success rate", "fitness delta"],
                    [
                        [
                            a["phase"],
                            _fmt(a["attempts"]),
                            _fmt(a["successes"]),
                            f"{100.0 * a['success_rate']:.1f}%",
                            _fmt(a["delta"]),
                        ]
                        for a in attribution
                    ],
                ),
            )
        )

    if grid_rows:
        from repro.obs.dynamics import estimate_takeover_generation

        first, last = grid_rows[0], grid_rows[-1]
        takeover_gen = estimate_takeover_generation(grid_rows)
        body = [
            f"snapshots: {len(grid_rows)} (grid {first['shape'][0]}x{first['shape'][1]})",
            f"takeover fraction: {_fmt(first['takeover_fraction'], 3)} -> "
            f"{_fmt(last['takeover_fraction'], 3)}",
            f"fitness entropy: {_fmt(first['fitness_entropy'], 3)} -> "
            f"{_fmt(last['fitness_entropy'], 3)}",
            "takeover generation (>=50% of grid): "
            + (_fmt(takeover_gen) if takeover_gen is not None else "not reached"),
        ]
        sections.append(("Grid dynamics", "\n".join(body)))

    if rows:
        first, last = rows[0], rows[-1]
        body = [
            f"rows: {len(rows)}",
            f"best: {_fmt(first.get('best'))} -> {_fmt(last.get('best'))}",
            f"mean: {_fmt(first.get('mean'))} -> {_fmt(last.get('mean'))}",
        ]
        if last.get("entropy") is not None:
            body.append(f"entropy: {_fmt(first.get('entropy'), 3)} -> {_fmt(last.get('entropy'), 3)}")
        if last.get("evals_per_s"):
            body.append(f"final evals/s: {_fmt(last['evals_per_s'], 0)}")
        sections.append(("Convergence time series", "\n".join(body)))
    return sections


def render_terminal(
    meta: dict, metrics: dict, rows: list[dict], grid_rows: list[dict] | None = None
) -> str:
    """Plain-text report for the CLI."""
    parts = []
    for title, body in _sections(meta, metrics, rows, grid_rows):
        parts.append(f"== {title} ==\n{body}")
    return "\n\n".join(parts)


def render_markdown(
    meta: dict, metrics: dict, rows: list[dict], grid_rows: list[dict] | None = None
) -> str:
    """Markdown report written into the bundle as ``report.md``."""
    parts = ["# Run telemetry report"]
    for title, body in _sections(meta, metrics, rows, grid_rows):
        if "\n" in body and "  " in body:  # tables become code blocks
            parts.append(f"## {title}\n\n```\n{body}\n```")
        else:
            parts.append(f"## {title}\n\n{body}")
    return "\n\n".join(parts) + "\n"


def load_bundle(path) -> tuple[dict, dict, list[dict]]:
    """Reload ``(meta, metrics, timeseries_rows)`` from a bundle dir."""
    root = Path(path)
    meta = json.loads((root / "meta.json").read_text(encoding="utf-8"))
    metrics = json.loads((root / "metrics.json").read_text(encoding="utf-8"))
    rows = [
        json.loads(line)
        for line in (root / "timeseries.jsonl").read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    return meta, metrics, rows
