"""``repro obs``: live + longitudinal telemetry tooling."""

from __future__ import annotations

import sys

__all__ = ["register", "HANDLERS"]


def register(sub) -> None:
    p = sub.add_parser("obs", help="live + longitudinal telemetry tooling")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser(
        "top",
        help=(
            "live search-dynamics dashboard: grid heatmap, operator "
            "success rates, throughput/stall state"
        ),
    )
    q.add_argument(
        "source",
        help="bundle dir, live.json file, or a LivePublisher http:// endpoint",
    )
    q.add_argument("--interval", type=float, default=1.0, help="refresh seconds")
    q.add_argument(
        "--once",
        action="store_true",
        help="print one plain-text frame and exit (no curses; CI-safe)",
    )

    q = obs_sub.add_parser(
        "report", help="render a finished bundle's report in the terminal"
    )
    q.add_argument("bundle", help="telemetry bundle directory")

    q = obs_sub.add_parser(
        "postmortem",
        help=(
            "render a crashed run's black box: flight-ring events, "
            "failing worker stacks, final resource samples"
        ),
    )
    q.add_argument("bundle", help="telemetry bundle directory (may be partial)")
    q.add_argument(
        "--events",
        type=int,
        default=None,
        metavar="N",
        help="flight events shown per ring (default 12)",
    )

    q = obs_sub.add_parser(
        "ingest", help="append a finished bundle's summary to a run history"
    )
    q.add_argument("bundle", help="telemetry bundle directory")
    q.add_argument("--history", required=True, help="JSONL run registry (appended)")

    q = obs_sub.add_parser("history", help="list a JSONL run registry")
    q.add_argument("file")
    q.add_argument(
        "--limit", type=int, default=None, help="show only the newest N runs"
    )

    q = obs_sub.add_parser(
        "diff", help="compare two runs (bundle dirs, summary .json, or history .jsonl)"
    )
    q.add_argument("a")
    q.add_argument("b")

    q = obs_sub.add_parser(
        "check",
        help="regression gate against a baseline; exits nonzero on regression",
    )
    q.add_argument(
        "run", help="run under test: bundle dir, summary .json, or history .jsonl"
    )
    q.add_argument(
        "--baseline",
        required=True,
        help="baseline: summary .json / history .jsonl / BENCH_throughput.json",
    )
    q.add_argument(
        "--tolerance",
        type=float,
        default=10.0,
        metavar="PCT",
        help="allowed makespan (quality) regression in percent",
    )
    q.add_argument(
        "--throughput-tolerance",
        type=float,
        default=None,
        metavar="PCT",
        help="allowed evals/s drop in percent (default: same as --tolerance)",
    )
    q.add_argument(
        "--min-parallel-speedup",
        type=float,
        default=None,
        metavar="RATIO",
        help=(
            "also gate the bench file's parallel_speedup section: every "
            "multi-worker scaling ratio must be at least RATIO"
        ),
    )
    q.add_argument(
        "--min-ls-success-rate",
        type=float,
        default=None,
        metavar="RATE",
        help=(
            "gate the run's local-search success rate (op.ls.* "
            "attribution counters): fail below this fraction"
        ),
    )
    q.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        metavar="MB",
        help=(
            "hard gate: fail if any single process's peak RSS exceeded "
            "this many MiB (needs a run with resource sampling)"
        ),
    )
    q.add_argument(
        "--max-fds",
        type=int,
        default=None,
        metavar="N",
        help="hard gate: fail if the peak open-descriptor count exceeded N",
    )


def _cmd_obs(args) -> int:
    if args.obs_command == "top":
        from repro.obs.top import top

        return top(args.source, interval_s=args.interval, once=args.once)

    if args.obs_command == "report":
        from repro.obs.dynamics import load_grid_rows
        from repro.obs.report import load_bundle, render_terminal

        meta, metrics, rows = load_bundle(args.bundle)
        print(render_terminal(meta, metrics, rows, grid_rows=load_grid_rows(args.bundle)))
        return 0

    if args.obs_command == "postmortem":
        from repro.obs.postmortem import DEFAULT_EVENTS, postmortem

        return postmortem(
            args.bundle,
            last_events=args.events if args.events is not None else DEFAULT_EVENTS,
        )

    from repro.obs import history as hist

    if args.obs_command == "ingest":
        row = hist.append_history(args.history, hist.summarize_bundle(args.bundle))
        print(f"recorded {row['run_id']} -> {args.history}")
        print(hist.render_history([row]))
        return 0

    if args.obs_command == "history":
        rows = hist.load_history(args.file)
        print(hist.render_history(rows, limit=args.limit))
        return 0

    if args.obs_command == "diff":
        a = hist.summarize_source(args.a)
        b = hist.summarize_source(args.b)
        print(hist.render_diff(a, b))
        return 0

    if args.obs_command == "check":
        current = hist.summarize_source(args.run)
        baseline = hist.load_baseline(args.baseline, row=current)
        problems = hist.check_row(
            current,
            baseline,
            tolerance_pct=args.tolerance,
            throughput_tolerance_pct=args.throughput_tolerance,
        )
        if args.min_parallel_speedup is not None:
            # the speedup section lives in a bench-shaped payload; a
            # fresh smoke measurement passed as the run wins over the
            # committed baseline file
            source = current
            if "parallel_speedup" not in source:
                source = hist.summarize_source(args.baseline)
            problems += hist.check_parallel_speedup(
                source, args.min_parallel_speedup
            )
        dyn_problems, warnings = hist.check_dynamics(
            current, min_ls_success_rate=args.min_ls_success_rate
        )
        problems += dyn_problems
        problems += hist.check_resources(
            current, max_rss_mb=args.max_rss_mb, max_fds=args.max_fds
        )
        for warning in warnings:
            print(f"WARNING: {warning}", file=sys.stderr)
        print(
            f"run {current.get('run_id', '?')} vs baseline "
            f"{baseline.get('run_id', args.baseline)}"
        )
        for key in ("best_fitness", "evals_per_s"):
            cur, base = current.get(key), baseline.get(key)
            if cur is not None and base is not None:
                print(f"  {key:<14}: {cur:,.2f} (baseline {base:,.2f})")
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print("OK: within tolerance")
        return 0

    raise AssertionError(
        f"unhandled obs command {args.obs_command!r}"
    )  # pragma: no cover


HANDLERS = {"obs": _cmd_obs}
