"""``repro serve``: run the solve-as-a-service HTTP front end.

Flags mirror ``repro solve`` where the concepts overlap: the obs flag
group comes from :mod:`repro.cli.obsflags` (one flag set, one
validation path), so ``serve`` rejects ``--obs-trace`` without
``--obs-out`` with *exactly* the error text ``solve`` prints.  Flags
whose machinery is per-run rather than per-service (``--obs-trace``,
``--obs-sample-every``, ``--obs-live``, ``--obs-stack-sample``) are
rejected with a pointer to the per-job alternative;
``--obs-stall-deadline`` arms the service's worker watchdog and
``--obs-flight``/``--obs-resources`` toggle the service's own
flight-recorder/resource-sampler usage.

Fault injection (the ``inject`` job field used by the crash-recovery
tests and ``benchmarks/smoke_serve.py``) is gated behind the
``REPRO_SERVE_FAULT_INJECTION=1`` environment variable so a production
service never honors crash requests from clients.
"""

from __future__ import annotations

import os
import sys

from repro.cli.engines import positive_int
from repro.cli.obsflags import add_obs_arguments, reject_stray_obs_flags

__all__ = ["register", "HANDLERS"]

#: obs modifiers that configure a *single run's* bundle and have no
#: meaning for the long-lived service process.
_PER_RUN_ONLY = (
    ("--obs-trace/--no-obs-trace", "obs_trace", "per-run trace timelines"),
    ("--obs-sample-every", "obs_sample_every", "per-run time-series sampling"),
    ("--obs-live", "obs_live", "the live bundle server (serve *is* the server)"),
    ("--obs-stack-sample", "obs_stack_sample", "per-run stack sampling"),
)


def register(sub) -> None:
    p = sub.add_parser(
        "serve",
        help="run the asynchronous solve service (HTTP/JSON API)",
        epilog=(
            "POST /jobs submits a solve job; GET /jobs/<id> streams its "
            "progress; GET /metrics is OpenMetrics. SIGTERM drains "
            "gracefully (in-flight jobs park via checkpoint and resume on "
            "restart). See docs/serving.md and docs/operations.md."
        ),
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8642, help="listen port (0 = ephemeral)"
    )
    p.add_argument(
        "--workers", type=int, default=2, help="engine worker processes"
    )
    p.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="bounded queue depth; beyond it POST /jobs answers 429 + Retry-After",
    )
    p.add_argument(
        "--spool",
        default="serve-spool",
        metavar="DIR",
        help=(
            "durable state directory (job records, checkpoints, flight "
            "rings); restart on the same spool resumes unfinished jobs"
        ),
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="crash retries per job before it is marked failed",
    )
    p.add_argument(
        "--retry-backoff",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="base of the exponential crash-retry backoff",
    )
    p.add_argument(
        "--checkpoint-every",
        type=positive_int,
        default=1,
        metavar="GENS",
        help="job checkpoint cadence in generations",
    )
    add_obs_arguments(p)


def _reject_serve_flags(args) -> int | None:
    """Shared obs validation first, then serve-specific rejections."""
    rc = reject_stray_obs_flags(args)
    if rc is not None:
        return rc
    # identity checks, not membership: `0 == False`, so `--obs-live 0`
    # would slip through an `in (None, False)` test
    offending = [
        (flag, why)
        for flag, attr, why in _PER_RUN_ONLY
        if getattr(args, attr) is not None and getattr(args, attr) is not False
    ]
    if offending:
        detail = "; ".join(f"{flag} configures {why}" for flag, why in offending)
        print(
            f"error: {detail} — not applicable to `repro serve` "
            "(submit per-job telemetry via the job payload instead)",
            file=sys.stderr,
        )
        return 2
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.queue_limit < 1:
        print(
            f"error: --queue-limit must be >= 1, got {args.queue_limit}",
            file=sys.stderr,
        )
        return 2
    return None


def _cmd_serve(args) -> int:
    rc = _reject_serve_flags(args)
    if rc is not None:
        return rc
    from repro.serve.http import run_service
    from repro.serve.service import SolveService

    service = SolveService(
        args.spool,
        workers=args.workers,
        queue_limit=args.queue_limit,
        max_retries=args.max_retries,
        retry_backoff_s=args.retry_backoff,
        stall_deadline_s=args.obs_stall_deadline,
        checkpoint_every=args.checkpoint_every,
        fault_injection=os.environ.get("REPRO_SERVE_FAULT_INJECTION") == "1",
        obs_out=args.obs_out,
        obs_resources=(
            args.obs_out is not None
            and (True if args.obs_resources is None else args.obs_resources)
        ),
    )
    print(f"spool          : {args.spool}", flush=True)
    if args.obs_out is not None:
        print(f"live telemetry : {args.obs_out}/live.json", flush=True)
    return run_service(
        service, host=args.host, port=args.port, ready=lambda line: print(line, flush=True)
    )


HANDLERS = {"serve": _cmd_serve}
