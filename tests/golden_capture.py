"""Capture golden best-fitness trajectories for every registered problem.

Run BEFORE and AFTER a refactor; each committed JSON pins every
deterministic engine's trajectory on one problem (history rows, final
best, and a checksum of the final population) so a refactor provably
adds zero behavioral drift.  Usage::

    PYTHONPATH=src python tests/golden_capture.py [--check] [GOLDEN ...]

``GOLDEN`` names a :data:`GOLDENS` entry (``independent``,
``independent_paper``, ``flowshop``, ``flowshop_paper``); with none,
every golden file is captured (or checked).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro.cga import CGAConfig, StopCondition
from repro.etc import make_instance
from repro.etc.registry import load_benchmark
from repro.problems.flowshop import load_flowshop_instance
from repro.runtime.registry import create_engine

DATA = Path(__file__).parent / "data"


class Golden(NamedTuple):
    """One golden file: its problem, instance, run shape and engine set."""

    out: Path
    instance: Callable[[], object]
    #: (engine, n_threads, engine kwargs, config overrides) — deterministic
    #: configurations only.
    engines: list
    problem: str
    #: CGAConfig fields shared by every engine row.
    config: dict = {"grid_rows": 8, "grid_cols": 8, "ls_iterations": 5}
    evals: int = 1280


def row_key(name: str, n_threads: int, overrides: dict) -> str:
    """``engine(n)``, plus ``key=value`` for each per-row config override."""
    return f"{name}({n_threads})" + "".join(f" {k}={v}" for k, v in sorted(overrides.items()))


GOLDENS = {
    "independent": Golden(
        out=DATA / "golden_independent.json",
        instance=lambda: make_instance(64, 8, consistency="i", seed=1),
        engines=[
            ("async", 1, {}, {}),
            ("sync", 1, {}, {}),
            ("vectorized", 1, {}, {}),
            ("sim", 3, {}, {}),
            ("threads", 2, {"lockstep": True}, {}),
            ("shm", 2, {"lockstep": True}, {}),
        ],
        problem="independent",
    ),
    # the paper's scale: 512x16 instance, default 16x16 grid, H2LL(5)
    "independent_paper": Golden(
        out=DATA / "golden_independent_paper.json",
        instance=lambda: load_benchmark("u_c_hihi.0"),
        engines=[
            ("vectorized", 1, {}, {}),
            ("shm", 2, {"lockstep": True}, {}),
            ("vectorized", 1, {}, {"crossover": "opx"}),
        ],
        problem="independent",
        config={"ls_iterations": 5},
        evals=5120,
    ),
    "flowshop": Golden(
        out=DATA / "golden_flowshop.json",
        instance=lambda: load_flowshop_instance("fs20x5.0"),
        engines=[
            ("vectorized", 1, {}, {}),
            ("sync", 1, {}, {}),
            ("shm", 2, {"lockstep": True}, {}),
        ],
        problem="flowshop",
    ),
    # the paper's grid on a 100x20 Taillard-size instance: 128-row batch
    # DP tables, the scale the benchmark's flow-shop workload runs at
    "flowshop_paper": Golden(
        out=DATA / "golden_flowshop_paper.json",
        instance=lambda: load_flowshop_instance("fs100x20.0"),
        engines=[
            ("vectorized", 1, {}, {}),
            ("shm", 2, {"lockstep": True}, {}),
            ("vectorized", 1, {}, {"crossover": "uniform"}),
        ],
        problem="flowshop",
        config={"ls_iterations": 5},
        evals=2560,
    ),
}


def capture(which: str = "independent") -> dict:
    golden = GOLDENS[which]
    inst = golden.instance()
    rows = {}
    for name, n_threads, extras, overrides in golden.engines:
        config = CGAConfig(
            problem=golden.problem, n_threads=n_threads, **golden.config, **overrides
        )
        engine = create_engine(name, inst, config, seed=7, **extras)
        result = engine.run(StopCondition(max_evaluations=golden.evals))
        pop = engine.pop
        rows[row_key(name, n_threads, overrides)] = {
            "best_fitness": result.best_fitness,
            "evaluations": result.evaluations,
            "generations": result.generations,
            "history_best": [row[2] for row in result.history],
            "pop_digest": hashlib.sha256(
                np.ascontiguousarray(pop.s).tobytes()
                + np.ascontiguousarray(pop.fitness).tobytes()
            ).hexdigest(),
        }
    return rows


def main(argv: list[str]) -> int:
    check = "--check" in argv
    names = [a for a in argv if not a.startswith("--")] or list(GOLDENS)
    ok = True
    for which in names:
        out = GOLDENS[which].out
        rows = capture(which)
        if check:
            golden = json.loads(out.read_text())
            for key, row in rows.items():
                if golden.get(key) != row:
                    ok = False
                    print(f"DRIFT in {which} {key}:\n  golden: {golden.get(key)}\n  now:    {row}")
        else:
            out.write_text(json.dumps(rows, indent=2) + "\n")
            print(f"captured {len(rows)} {which} engine trajectories -> {out}")
    if check:
        print("golden check:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
