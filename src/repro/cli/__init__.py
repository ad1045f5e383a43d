"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``instances``   — list the twelve benchmark instances and metadata;
* ``heuristics``  — run every constructive heuristic on one instance;
* ``solve``       — run PA-CGA (any engine) on an instance
  (``run`` is an alias); ``--obs-out DIR`` collects a full telemetry
  bundle, ``--obs-live PORT`` serves live OpenMetrics/JSON snapshots,
  and ``--checkpoint PATH`` writes resumable boundary snapshots;
* ``resume``      — continue a run from a ``--checkpoint`` file;
* ``serve``       — run the asynchronous solve service: an HTTP/JSON
  API accepting solve jobs into a bounded queue, dispatching to a
  persistent pool of engine workers with checkpoint durability,
  crash retries and graceful SIGTERM drain (see ``docs/serving.md``);
* ``engines``     — list the engine registry (names, aliases,
  substrate);
* ``problems``    — list the registered scheduling problems (genome
  type, operator families, batch kernels, supported engines);
* ``obs``         — live/longitudinal telemetry tooling: ``top`` over a
  running bundle, ``ingest`` finished bundles into a JSONL run
  history, ``history``/``diff`` past runs, and ``check`` a run against
  a baseline with regression gates (nonzero exit on regression);
* ``generate``    — generate an ETC instance file;
* ``speedup`` / ``operators`` / ``comparison`` / ``convergence`` —
  run the paper-artifact harnesses at CLI-chosen budgets.

Every command prints plain text; ``solve --out`` additionally writes
the run result as JSON (reloadable with ``repro.util.load_result``).

Each subcommand family lives in its own module; engine names, aliases
and construction all come from :mod:`repro.runtime.registry`, so the
CLI needs no per-engine code.
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import engines, experiments, instances, obs, problems, resume, serve, solve

__all__ = ["main", "build_parser"]

#: registration order fixes the order commands appear in ``--help``.
_MODULES = (instances, solve, resume, serve, engines, problems, obs, experiments)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PA-CGA for grid scheduling (Pinel, Dorronsoro & Bouvry 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for module in _MODULES:
        module.register(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    for module in _MODULES:
        handler = module.HANDLERS.get(args.command)
        if handler is not None:
            return handler(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
