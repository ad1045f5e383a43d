"""``repro obs top``: live search-dynamics dashboard in the terminal.

``top`` renders the run and the *algorithm*: throughput, heartbeat
and stall state, process resources, a per-cell fitness heatmap of the
toroidal grid and the operator success rates from the ``op.*``
attribution counters — all read from the
:class:`~repro.obs.live.LivePublisher` outputs, so the dashboard costs
a running engine nothing beyond the publisher it already pays for.

Three source spellings are accepted::

    repro obs top out/bundle          # bundle dir -> out/bundle/live.json
    repro obs top out/bundle/live.json
    repro obs top http://127.0.0.1:9100   # LivePublisher endpoint

Interactive mode draws with stdlib :mod:`curses` (``q`` quits);
``--once`` prints one plain-text frame and exits — the headless path
CI renders from a recorded fixture.  :func:`render_frame` is pure
(snapshot dict in, text out), so the frame content is testable without
a terminal.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs.dynamics import attribution_summary

__all__ = ["load_snapshot", "render_heatmap", "render_frame", "top"]

#: fitness ramp, worst cell -> best cell (best is the darkest glyph so
#: the takeover front reads as a growing dark region)
HEAT_RAMP = " .:-=+*#%@"

#: cap on rendered heatmap columns; wider grids are column-subsampled
MAX_HEAT_COLS = 64


def load_snapshot(source: str) -> dict:
    """Load a live snapshot from a bundle dir, a JSON file, or a URL.

    Raises ``OSError`` (file) / ``urllib.error.URLError`` (endpoint) /
    ``json.JSONDecodeError`` on unreadable sources — callers decide
    whether that is fatal (``--once``) or retryable (the live loop).
    """
    if source.startswith(("http://", "https://")):
        from urllib.request import urlopen

        url = source if source.endswith(".json") else source.rstrip("/") + "/live.json"
        with urlopen(url, timeout=5.0) as resp:
            return json.loads(resp.read().decode("utf-8"))
    path = Path(source)
    if path.is_dir():
        path = path / "live.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _heat_char(value: float, lo: float, hi: float) -> str:
    """Map one cell fitness to a ramp glyph (lower fitness = darker)."""
    if hi <= lo:
        return HEAT_RAMP[-1]
    frac = (value - lo) / (hi - lo)  # 0 = best cell, 1 = worst
    idx = int(round((1.0 - frac) * (len(HEAT_RAMP) - 1)))
    return HEAT_RAMP[max(0, min(idx, len(HEAT_RAMP) - 1))]


def render_heatmap(grid_row: dict) -> list[str]:
    """The per-cell fitness field of one grid snapshot as text lines."""
    rows, cols = grid_row["shape"]
    fitness = grid_row["fitness"]
    lo, hi = min(fitness), max(fitness)
    step = max(1, (cols + MAX_HEAT_COLS - 1) // MAX_HEAT_COLS)
    lines = []
    for r in range(rows):
        row = fitness[r * cols : (r + 1) * cols : step]
        lines.append("".join(_heat_char(v, lo, hi) for v in row))
    return lines


def _bar(fraction: float, width: int = 20) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "-" * (width - filled)


def render_frame(snap: dict) -> str:
    """One dashboard frame from a live snapshot (pure; golden-testable)."""
    meta = snap.get("meta", {})
    progress = snap.get("progress", {})
    counters = snap.get("metrics", {}).get("counters", {})
    lines: list[str] = []

    head = " ".join(
        f"{k}={meta[k]}" for k in ("engine", "instance", "n_threads") if k in meta
    )
    lines.append(f"repro obs top  {head}".rstrip())
    lines.append(f"updated {snap.get('updated_t_s', 0.0):.1f}s into the run")
    lines.append("")

    def num(v, digits=2):
        return f"{v:,.{digits}f}" if isinstance(v, float) else f"{v:,}"

    stats = []
    for key, label in (
        ("generation", "gen"),
        ("evaluations", "evals"),
        ("best", "best"),
        ("evals_per_s", "evals/s"),
    ):
        if progress.get(key) is not None:
            stats.append(f"{label} {num(progress[key])}")
    if stats:
        lines.append("  ".join(stats))

    heartbeats = progress.get("heartbeats")
    if heartbeats:
        done = progress.get("workers_done") or [0] * len(heartbeats)
        states = [
            f"w{w}:{'done' if done[w] else int(beat)}"
            for w, beat in enumerate(heartbeats)
        ]
        line = "workers  " + "  ".join(states)
        # currently-stalled = stalls minus recoveries: both counters are
        # cumulative, so a worker that stalled and then recovered must
        # not leave the banner stuck on a stale episode
        stalls = counters.get("watchdog.stalls", 0)
        recoveries = counters.get("watchdog.recoveries", 0)
        active_stalls = max(0, int(stalls) - int(recoveries))
        if active_stalls:
            line += f"  [STALLS: {active_stalls}]"
        lines.append(line)

    res = snap.get("resources")
    if res:
        parts = [
            f"{label} {res[key]:g}{unit}"
            for key, label, unit in (
                ("rss_mb", "rss", "MB"),
                ("peak_rss_mb", "peak rss", "MB"),
                ("cpu_s", "cpu", "s"),
                ("fds", "fds", ""),
                ("shm_mb", "shm", "MB"),
            )
            if key in res
        ]
        lines.append("resources  " + "  ".join(parts))

    attribution = attribution_summary(counters)
    if attribution:
        lines.append("")
        lines.append("operator success rates")
        for row in attribution:
            lines.append(
                f"  {row['phase']:<11} {_bar(row['success_rate'])} "
                f"{100.0 * row['success_rate']:5.1f}%  "
                f"({row['successes']:,}/{row['attempts']:,}  "
                f"delta {row['delta']:,.1f})"
            )

    grid = snap.get("grid")
    if grid:
        rows, cols = grid["shape"]
        lines.append("")
        lines.append(
            f"grid {rows}x{cols}  best {grid['best']:,.2f}  "
            f"takeover {100.0 * grid['takeover_fraction']:.1f}%  "
            f"entropy {grid['fitness_entropy']:.3f}"
        )
        lines.extend("  " + ln for ln in render_heatmap(grid))
        lines.append(f"  [{HEAT_RAMP}]  worst -> best")

    return "\n".join(lines)


def _curses_loop(source: str, interval_s: float) -> int:
    import curses

    def main(screen) -> int:
        curses.curs_set(0)
        screen.nodelay(True)
        screen.timeout(int(interval_s * 1000))
        body = f"(waiting for {source})"
        while True:
            try:
                body = render_frame(load_snapshot(source))
            except Exception as exc:  # noqa: BLE001 - keep polling a live run
                body = f"(unreadable snapshot from {source}: {exc}; retrying)"
            screen.erase()
            max_y, max_x = screen.getmaxyx()
            for y, line in enumerate(body.splitlines()[: max_y - 1]):
                screen.addnstr(y, 0, line, max_x - 1)
            footer = "q to quit"
            screen.addnstr(max_y - 1, 0, footer, max_x - 1)
            screen.refresh()
            key = screen.getch()  # blocks up to interval_s (timeout above)
            if key in (ord("q"), ord("Q")):
                return 0

    return curses.wrapper(main)


def top(source: str, interval_s: float = 1.0, once: bool = False, out=None) -> int:
    """``repro obs top`` entry point; returns a CLI exit code."""
    import sys

    stream = sys.stdout if out is None else out
    if once:
        try:
            snap = load_snapshot(source)
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            stream.write(f"cannot load a live snapshot from {source}: {exc}\n")
            return 1
        stream.write(render_frame(snap) + "\n")
        return 0
    try:
        return _curses_loop(source, interval_s)
    except KeyboardInterrupt:
        return 0
    except ImportError:  # curses unavailable: degrade to a plain loop
        try:
            while True:
                try:
                    body = render_frame(load_snapshot(source))
                except Exception as exc:  # noqa: BLE001
                    body = f"(unreadable snapshot from {source}: {exc}; retrying)"
                stream.write("\x1b[2J\x1b[H" + body + "\n")
                stream.flush()
                time.sleep(interval_s)
        except KeyboardInterrupt:
            return 0
