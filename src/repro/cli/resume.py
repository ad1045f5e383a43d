"""``repro resume``: continue a run from a ``solve --checkpoint`` file.

The checkpoint records the engine, configuration, instance name, every
RNG stream and the run's progress, so resuming needs nothing but the
file — the continued run follows the identical stochastic trajectory
and reports the same cumulative counters as an uninterrupted one.
"""

from __future__ import annotations

import sys

from repro.cli.engines import positive_int

__all__ = ["register", "HANDLERS"]


def register(sub) -> None:
    p = sub.add_parser(
        "resume",
        help="resume a run from a checkpoint file",
        epilog=(
            "the stop condition embedded at save time is reused unless "
            "--evals/--vtime/--wall override it"
        ),
    )
    p.add_argument("checkpoint", help="file written by `solve --checkpoint`")
    p.add_argument(
        "--instance",
        default=None,
        metavar="FILE",
        help="ETC instance file (required when the checkpoint is not a benchmark)",
    )
    p.add_argument("--evals", type=positive_int, default=None, help="evaluation budget")
    p.add_argument(
        "--vtime", type=float, default=None, help="virtual seconds (sim engine)"
    )
    p.add_argument("--wall", type=float, default=None, help="wall-clock seconds")
    p.add_argument("--gantt", action="store_true", help="print the best schedule")
    p.add_argument("--out", default=None, help="write the run result as JSON")
    p.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="GENS",
        help="keep checkpointing into the source file every GENS generations",
    )
    p.add_argument(
        "--checkpoint-to",
        default=None,
        metavar="PATH",
        help="redirect continued checkpoints to a different file",
    )


def _cmd_resume(args) -> int:
    from repro.cga import StopCondition
    from repro.runtime import resume_engine, run_with_checkpoints

    instance = None
    if args.instance is not None:
        from repro.etc import load_instance

        instance = load_instance(args.instance)
    try:
        engine, stop = resume_engine(args.checkpoint, instance=instance)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    bounds = {}
    if args.evals is not None:
        bounds["max_evaluations"] = args.evals
    if args.vtime is not None:
        bounds["virtual_time"] = args.vtime
    if args.wall is not None:
        bounds["wall_time_s"] = args.wall
    if bounds:
        stop = StopCondition(**bounds)
    if stop is None:
        print(
            "error: the checkpoint records no stop condition; "
            "pass --evals, --vtime or --wall",
            file=sys.stderr,
        )
        return 2

    ckpt_path = args.checkpoint_to or (
        args.checkpoint if args.checkpoint_every is not None else None
    )
    if ckpt_path is not None:
        result = run_with_checkpoints(
            engine, stop, ckpt_path, every_generations=args.checkpoint_every or 1
        )
    else:
        result = engine.run(stop)

    inst, config = engine.instance, engine.config
    print(f"resumed from  : {args.checkpoint}")
    print(f"instance      : {inst.name}")
    print(f"engine        : {engine.engine_name} ({config.n_threads} thread(s))")
    print(f"best makespan : {result.best_fitness:,.2f}")
    print(f"evaluations   : {result.evaluations:,}")
    print(f"generations   : {result.generations}")
    if args.gantt:
        from repro.util import render_gantt

        print()
        print(render_gantt(result.best_schedule(inst)))
    if args.out:
        from repro.util import save_result

        save_result(result, args.out)
        print(f"result written to {args.out}")
    if ckpt_path is not None:
        print(f"checkpoint    : {ckpt_path}")
    return 0


HANDLERS = {"resume": _cmd_resume}
