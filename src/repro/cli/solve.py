"""``repro solve`` / ``repro run``: one PA-CGA run on one instance."""

from __future__ import annotations

import sys

from repro.cli.engines import alias_epilog, build_config, engine_choices, positive_int
from repro.cli.obsflags import add_obs_arguments, reject_stray_obs_flags

__all__ = ["register", "HANDLERS", "print_result", "stop_from_args"]


def register(sub) -> None:
    for name, help_ in (
        ("solve", "run PA-CGA on an instance"),
        ("run", "alias for solve"),
    ):
        from repro.problems import problem_names

        p = sub.add_parser(name, help=help_, epilog=alias_epilog())
        p.add_argument(
            "--problem",
            choices=problem_names(),
            default="independent",
            help="registered scheduling problem (see `repro problems`)",
        )
        p.add_argument(
            "--instance",
            default=None,
            help="instance name/spec (default: the problem's default instance)",
        )
        p.add_argument("--engine", choices=engine_choices(), default="sim")
        p.add_argument("--threads", type=int, default=3)
        p.add_argument("--crossover", choices=["opx", "tpx", "uniform"], default="tpx")
        p.add_argument(
            "--fitness", choices=["makespan", "makespan+flowtime"], default="makespan"
        )
        p.add_argument("--ls-iters", type=int, default=10)
        p.add_argument("--evals", type=positive_int, default=None, help="evaluation budget")
        p.add_argument(
            "--vtime", type=float, default=None, help="virtual seconds (sim engine)"
        )
        p.add_argument("--wall", type=float, default=None, help="wall-clock seconds")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--gantt", action="store_true", help="print the best schedule")
        p.add_argument("--out", default=None, help="write the run result as JSON")
        p.add_argument(
            "--checkpoint",
            default=None,
            metavar="PATH",
            help=(
                "write a resumable snapshot to this file at every sweep "
                "boundary (resume with `repro resume PATH`; the threads "
                "engine switches to its deterministic lockstep schedule)"
            ),
        )
        p.add_argument(
            "--checkpoint-every",
            type=positive_int,
            default=None,
            metavar="GENS",
            help="checkpoint cadence in generations (default: 1)",
        )
        # --obs-out and the --obs-* modifiers are shared with `repro
        # serve` (one flag set, one validation path: repro.cli.obsflags)
        add_obs_arguments(p)


def _reject_stray_flags(args) -> int | None:
    """Exit code 2 when bundle/checkpoint modifier flags lack their target."""
    rc = reject_stray_obs_flags(args)
    if rc is not None:
        return rc
    if args.checkpoint is None and args.checkpoint_every is not None:
        print(
            "error: --checkpoint-every sets the snapshot cadence and "
            "requires --checkpoint PATH (no checkpoint file was given)",
            file=sys.stderr,
        )
        return 2
    return None


def _build_observer(args, inst, engine_name):
    from repro.obs import Observer

    obs = Observer(
        out=args.obs_out,
        trace=True if args.obs_trace is None else args.obs_trace,
        sample_every_evals=(
            256 if args.obs_sample_every is None else args.obs_sample_every
        ),
        live=args.obs_live is not None,
        live_port=args.obs_live,
        stall_deadline_s=args.obs_stall_deadline,
        flight=True if args.obs_flight is None else args.obs_flight,
        resources=True if args.obs_resources is None else args.obs_resources,
        stack_sample_s=(
            1.0 / args.obs_stack_sample if args.obs_stack_sample else None
        ),
    )
    obs.meta.update({"instance": inst.name, "engine": engine_name, "seed": args.seed})
    if args.obs_live is not None:
        print(f"live telemetry : {args.obs_out}/live.json", flush=True)
        if args.obs_live:
            print(
                f"live endpoint  : http://127.0.0.1:{args.obs_live}/metrics "
                "(OpenMetrics) and /live.json",
                flush=True,
            )
    return obs


def print_result(args, inst, engine_name, config, result, obs=None) -> None:
    """The shared solve/resume report block."""
    print(f"instance      : {inst.name}")
    print(f"engine        : {engine_name} ({config.n_threads} thread(s))")
    print(f"best makespan : {result.best_fitness:,.2f}")
    print(f"evaluations   : {result.evaluations:,}")
    print(f"generations   : {result.generations}")
    if obs is not None:
        paths = obs.finalize()
        print()
        print(obs.summary())
        if paths:
            print(f"telemetry bundle: {args.obs_out}")
            for kind, path in sorted(paths.items()):
                print(f"  {kind:<10} {path}")
    if args.gantt:
        from repro.problems import problem_of

        sched = result.best_schedule(inst)
        print()
        if problem_of(inst).name == "independent":
            from repro.util import render_gantt

            print(render_gantt(sched))
        else:
            # permutation problems have no per-machine task queues to
            # chart; the job order *is* the schedule
            print(f"job order : {' '.join(str(int(j)) for j in sched.s)}")
            print(f"makespan  : {sched.makespan():,.2f}")
    if args.out:
        from repro.util import save_result

        save_result(result, args.out)
        print(f"result written to {args.out}")


def stop_from_args(args, engine: str, stop=None):
    """The run's stop condition: ``--evals``/``--vtime``/``--wall`` when
    any is given, else ``stop``.  Raises ``ValueError`` when there is
    none or ``engine`` enforces none of its bounds."""
    from repro.cga import StopCondition
    from repro.runtime import check_stop

    given = (("max_evaluations", args.evals), ("virtual_time", args.vtime),
             ("wall_time_s", args.wall))
    bounds = {name: value for name, value in given if value is not None}
    if bounds:
        stop = StopCondition(**bounds)
    if stop is None:
        raise ValueError("no stop condition recorded; pass --evals, --vtime or --wall")
    check_stop(engine, stop)
    return stop


def _cmd_solve(args) -> int:
    from repro.cga import StopCondition
    from repro.problems import resolve_problem
    from repro.runtime import resolve_engine, run_with_checkpoints

    rc = _reject_stray_flags(args)
    if rc is not None:
        return rc

    spec = resolve_engine(args.engine)
    problem = resolve_problem(args.problem)
    inst = problem.load_instance(args.instance or problem.default_instance)
    config = build_config(args, spec)
    try:
        stop = stop_from_args(args, spec.name, StopCondition(max_evaluations=5000))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    obs = None
    if args.obs_out is not None:
        obs = _build_observer(args, inst, spec.name)

    extras = {}
    if args.checkpoint is not None and "lockstep" in spec.extra_kwargs:
        # free-running workers are schedule-dependent; only the lockstep
        # schedule quiesces at sweep boundaries
        extras["lockstep"] = True
    engine = spec.create(inst, config, seed=args.seed, obs=obs, **extras)

    # the observer context finalizes a *partial* bundle (with the error
    # and failing-worker identity stamped into meta.json) when the run
    # raises — that bundle is what `repro obs postmortem` renders
    from contextlib import nullcontext

    with obs if obs is not None else nullcontext():
        if args.checkpoint is not None:
            result = run_with_checkpoints(
                engine,
                stop,
                args.checkpoint,
                every_generations=args.checkpoint_every or 1,
            )
        else:
            result = engine.run(stop)
    print_result(args, inst, spec.name, config, result, obs=obs)
    if args.checkpoint is not None:
        print(f"checkpoint    : {args.checkpoint}")
    return 0


HANDLERS = {"solve": _cmd_solve, "run": _cmd_solve}
