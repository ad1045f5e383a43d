"""PeakTracker: O(1) peak reads over a live completion-time vector.

Every peak query must match the equivalent ``np.max`` expression
exactly, under any chain of mutations reported through ``notify``.
"""

import numpy as np

from repro.scheduling import PeakTracker, compute_completion_times


class TestPeakTracker:
    def test_max_is_ct_max(self, tiny_instance, rng):
        ct = compute_completion_times(
            tiny_instance, rng.integers(0, tiny_instance.nmachines, tiny_instance.ntasks)
        )
        assert PeakTracker(ct).max() == ct.max()

    def test_max_excluding_matches_np_delete(self, tiny_instance, rng):
        ct = compute_completion_times(
            tiny_instance, rng.integers(0, tiny_instance.nmachines, tiny_instance.ntasks)
        )
        peaks = PeakTracker(ct)
        m = tiny_instance.nmachines
        for a in range(m):
            for b in range(m):
                expect = np.delete(ct, list({a, b})).max(initial=0.0)
                assert peaks.max_excluding(a, b) == expect

    def test_notify_tracks_mutations(self, rng):
        ct = rng.random(8) * 100
        peaks = PeakTracker(ct)
        for _ in range(500):
            m = int(rng.integers(0, 8))
            ct[m] = float(rng.random() * 200)
            peaks.notify((m,))
            assert peaks.max() == ct.max()
            a, b = rng.integers(0, 8, 2)
            assert peaks.max_excluding(int(a), int(b)) == np.delete(
                ct, list({int(a), int(b)})
            ).max(initial=0.0)

    def test_all_machines_excluded_returns_zero(self):
        peaks = PeakTracker(np.array([3.0, 7.0]))
        assert peaks.max_excluding(0, 1) == 0.0
