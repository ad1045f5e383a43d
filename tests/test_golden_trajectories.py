"""Golden-seed trajectory equivalence for every registered problem.

``tests/data/golden_<problem>.json`` pins the best-fitness trajectory
(history rows, final best, population digest) of the deterministic
engines on each workload: ``golden_independent.json`` from before the
problems-layer refactor, ``golden_flowshop.json`` from before the
anti-diagonal flow-shop DP, ``golden_independent_paper.json`` (the
paper-scale ETC run: u_c_hihi.0, 16x16 grid, tpx and opx) from before
the flat-index ETC breeding kernels, and ``golden_flowshop_paper.json``
(fs100x20.0, 16x16 grid, default and uniform crossover: 128-row DP
tables) from before the index-once flow-shop DP and the flat-index mask
fill.  This test replays the same seeds and demands bit-identical results — the "zero behavioral drift" acceptance
gate for any refactor or kernel rewrite.  Regenerate with::

    PYTHONPATH=src python tests/golden_capture.py [GOLDEN ...]
"""

import json

from tests.golden_capture import GOLDENS, capture, row_key


def test_trajectories_match_golden_seeds():
    for which, golden_spec in GOLDENS.items():
        golden = json.loads(golden_spec.out.read_text())
        rows = capture(which)
        assert set(rows) == set(golden), f"{which}: engine set drifted from the capture file"
        for key, row in rows.items():
            assert row == golden[key], f"{which}: trajectory drift in {key}"


def test_golden_file_covers_every_deterministic_engine():
    for golden_spec in GOLDENS.values():
        golden = json.loads(golden_spec.out.read_text())
        expected = {row_key(name, n, cfg) for name, n, _, cfg in golden_spec.engines}
        assert set(golden) == expected
