"""Shared ``--obs-*`` argument group and its validation.

``repro solve`` and ``repro serve`` expose the same telemetry flags
and must reject bad combinations with the *same* error text — operators
switch between the two constantly, and a drifting error message is a
documentation bug.  Both commands therefore register their obs flags
through :func:`add_obs_arguments` and validate them through
:func:`reject_stray_obs_flags`; there is no second copy to drift.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["add_obs_arguments", "reject_stray_obs_flags"]


def add_obs_arguments(p) -> None:
    """Register ``--obs-out`` and every ``--obs-*`` modifier on ``p``."""
    p.add_argument(
        "--obs-out",
        default=None,
        help="collect run telemetry and write the bundle to this directory",
    )
    # the --obs-* defaults are None sentinels so "flag given without
    # --obs-out" is detectable and rejected with a clear error
    p.add_argument(
        "--obs-trace",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="include a Chrome trace_event timeline in the bundle (default: on)",
    )
    p.add_argument(
        "--obs-sample-every",
        type=int,
        default=None,
        metavar="EVALS",
        help="time-series sampling cadence in evaluations (default: 256)",
    )
    p.add_argument(
        "--obs-live",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "publish live.json into the bundle while running and serve "
            "/metrics (OpenMetrics) + /live.json on this port (0 = ephemeral)"
        ),
    )
    p.add_argument(
        "--obs-stall-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "arm the worker watchdog: report a stall event when a worker's "
            "heartbeat does not advance for this long"
        ),
    )
    p.add_argument(
        "--obs-flight",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "crash-surviving flight recorder: mmap'd per-process event "
            "rings + post-mortem hooks (SIGUSR1 stack dumps, worker "
            "crash records) under <bundle>/flight/ (default: on)"
        ),
    )
    p.add_argument(
        "--obs-resources",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "sample per-process resources (/proc/self RSS, CPU, fds, GC, "
            "/dev/shm) into resources.jsonl + proc.* gauges (default: on)"
        ),
    )
    p.add_argument(
        "--obs-stack-sample",
        type=float,
        default=None,
        metavar="HZ",
        help=(
            "statistical sampling profiler: sample every thread's stack "
            "HZ times/second in every process (forked workers included) "
            "and write merged collapsed stacks to samples.collapsed"
        ),
    )


def reject_stray_obs_flags(args) -> int | None:
    """Exit code 2 when ``--obs-*`` modifiers are given without ``--obs-out``."""
    if args.obs_out is not None:
        return None
    stray = [
        flag
        for flag, value in (
            ("--obs-trace/--no-obs-trace", args.obs_trace),
            ("--obs-sample-every", args.obs_sample_every),
            ("--obs-live", args.obs_live),
            ("--obs-stall-deadline", args.obs_stall_deadline),
            ("--obs-flight/--no-obs-flight", args.obs_flight),
            ("--obs-resources/--no-obs-resources", args.obs_resources),
            ("--obs-stack-sample", args.obs_stack_sample),
        )
        if value is not None
    ]
    if stray:
        print(
            f"error: {', '.join(stray)} configure the telemetry bundle and "
            "require --obs-out DIR (no bundle directory was given)",
            file=sys.stderr,
        )
        return 2
    return None
