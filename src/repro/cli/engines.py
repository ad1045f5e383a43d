"""Registry-driven engine plumbing + the ``repro engines`` listing.

The ``--engine`` choices, the alias legend in ``solve --help``, engine
construction and the ``repro engines`` table are all derived from
:mod:`repro.runtime.registry` — registering a new engine there makes it
appear everywhere in the CLI without further edits.
"""

from __future__ import annotations

import argparse

from repro.runtime.registry import ENGINE_SPECS, engine_aliases, engine_names

__all__ = [
    "engine_choices",
    "alias_epilog",
    "build_config",
    "positive_int",
    "register",
    "HANDLERS",
]


def positive_int(text: str) -> int:
    """argparse ``type=`` for budgets such as ``--evals``: an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def engine_choices() -> list[str]:
    """Valid ``--engine`` values: canonical names, then the aliases."""
    return [*engine_names(), *sorted(engine_aliases())]


def alias_epilog() -> str:
    """The alias legend shown under ``solve --help``."""
    pairs = ", ".join(f"{alias} = {name}" for alias, name in engine_aliases().items())
    return (
        f"engine aliases: {pairs} (the paper's PA-CGA engine on its "
        "three substrates)"
    )


def build_config(args, spec):
    """The :class:`CGAConfig` for one solve/resume invocation.

    ``--threads`` only reaches the config for engines whose spec says
    ``config.n_threads`` maps to real workers.
    """
    from repro.cga import CGAConfig

    return CGAConfig(
        problem=getattr(args, "problem", "independent"),
        n_threads=args.threads if spec.parallelism != "sequential" else 1,
        crossover=args.crossover,
        fitness=args.fitness,
        ls_iterations=args.ls_iters,
    )


def _cmd_engines(args) -> int:
    from repro.experiments import ascii_table

    rows = [
        [
            spec.name,
            ", ".join(spec.aliases) or "-",
            spec.parallelism,
            spec.summary,
        ]
        for spec in ENGINE_SPECS.values()
    ]
    print(
        ascii_table(
            ["engine", "aliases", "parallelism", "summary"], rows
        )
    )
    return 0


def register(sub) -> None:
    sub.add_parser(
        "engines", help="list the engine registry (names, aliases, parallelism)"
    )


HANDLERS = {"engines": _cmd_engines}
