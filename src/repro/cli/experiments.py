"""Paper-artifact harness commands (Figs. 4-6, Tables 2-3, campaign)."""

from __future__ import annotations

from repro.cli.engines import positive_int

__all__ = ["register", "HANDLERS"]


def register(sub) -> None:
    p = sub.add_parser("speedup", help="regenerate Fig. 4 (speedup)")
    p.add_argument("--instance", default="u_c_hihi.0")
    p.add_argument("--vtime", type=float, default=0.1)
    p.add_argument("--runs", type=int, default=2)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("operators", help="regenerate Fig. 5 (operator study)")
    p.add_argument("--instance", action="append", default=None)
    p.add_argument("--vtime", type=float, default=0.05)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=5)

    p = sub.add_parser("comparison", help="regenerate Table 2 (vs baselines)")
    p.add_argument("--instance", action="append", default=None)
    p.add_argument("--vtime", type=float, default=0.05)
    p.add_argument("--runs", type=int, default=2)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--protocol", choices=["evals", "time"], default="evals")

    p = sub.add_parser("convergence", help="regenerate Fig. 6 (convergence)")
    p.add_argument("--instance", default="u_c_hihi.0")
    p.add_argument("--vtime", type=float, default=0.1)
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--seed", type=int, default=23)

    p = sub.add_parser("quality", help="optimality gaps vs the LP bound")
    p.add_argument("--instance", action="append", default=None)
    p.add_argument("--evals", type=positive_int, default=5000)
    p.add_argument("--seed", type=int, default=3)

    p = sub.add_parser("calibrate", help="measure this machine's breeding-step costs")
    p.add_argument("--instance", default="u_c_hihi.0")
    p.add_argument("--samples", type=int, default=2000)

    p = sub.add_parser(
        "reproduce", help="regenerate every paper artifact into a directory"
    )
    p.add_argument("--out", default="reproduction")
    p.add_argument("--scale", type=float, default=1.0, help="budget multiplier")
    p.add_argument("--runs", type=int, default=2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--telemetry",
        action="store_true",
        help="also write per-cell observability bundles under <out>/telemetry/",
    )


def _cmd_speedup(args) -> int:
    from repro.experiments import speedup_experiment

    result = speedup_experiment(
        instance=args.instance,
        virtual_time=args.vtime,
        n_runs=args.runs,
        seed=args.seed,
    )
    print(result.table())
    return 0


def _cmd_operators(args) -> int:
    from repro.experiments import operators_experiment

    result = operators_experiment(
        instances=args.instance,
        virtual_time=args.vtime,
        n_runs=args.runs,
        seed=args.seed,
    )
    print(result.table())
    return 0


def _cmd_comparison(args) -> int:
    from repro.experiments import comparison_experiment

    result = comparison_experiment(
        instances=args.instance,
        virtual_time=args.vtime,
        n_runs=args.runs,
        seed=args.seed,
        protocol=args.protocol,
    )
    print(result.table())
    return 0


def _cmd_convergence(args) -> int:
    from repro.experiments import convergence_experiment
    from repro.experiments.report import ascii_chart

    result = convergence_experiment(
        instance=args.instance,
        virtual_time=args.vtime,
        n_runs=args.runs,
        seed=args.seed,
    )
    print(
        ascii_chart(
            {
                f"{n} thread(s)": result.curves[n].tolist()
                for n in sorted(result.curves)
            },
            x_label="generations (common grid)",
            y_label="mean population makespan",
        )
    )
    for n in sorted(result.curves):
        print(
            f"{n} thread(s): final={result.final_mean[n]:,.0f} "
            f"gens={result.generations_reached[n]:.0f}"
        )
    print(f"best thread count: {result.best_thread_count()}")
    return 0


def _cmd_quality(args) -> int:
    from repro.experiments import quality_experiment

    result = quality_experiment(
        instances=args.instance, max_evaluations=args.evals, seed=args.seed
    )
    print(result.table())
    print(f"\nmean PA-CGA gap above LP: {100 * result.mean_gap():.2f}%")
    return 0


def _cmd_calibrate(args) -> int:
    from repro.etc import load_benchmark
    from repro.parallel import XEON_E5440, measure_cost_model

    inst = load_benchmark(args.instance)
    model = measure_cost_model(inst, samples=args.samples)
    print(f"measured on this machine ({args.samples} samples, {inst.name}):")
    print(f"  t_breed   : {model.t_breed:8.2f} us  (paper model: {XEON_E5440.t_breed})")
    print(
        f"  t_ls_iter : {model.t_ls_iter:8.2f} us  (paper model: {XEON_E5440.t_ls_iter})"
    )
    print(f"  t_lock    : {model.t_lock:8.2f} us  (paper model: {XEON_E5440.t_lock})")
    print("contention/cache terms inherited from the paper calibration;")
    print("pass the model to SimulatedPACGA(cost_model=...) to rebuild Fig. 4.")
    return 0


def _cmd_reproduce(args) -> int:
    from repro.experiments import run_campaign
    from repro.rng import DEFAULT_SEED

    report = run_campaign(
        args.out,
        scale=args.scale,
        n_runs=args.runs,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        telemetry=args.telemetry,
    )
    print(report.summary())
    return 0


HANDLERS = {
    "speedup": _cmd_speedup,
    "operators": _cmd_operators,
    "comparison": _cmd_comparison,
    "convergence": _cmd_convergence,
    "quality": _cmd_quality,
    "calibrate": _cmd_calibrate,
    "reproduce": _cmd_reproduce,
}
