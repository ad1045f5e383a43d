"""Schedule representation and objectives for independent-task scheduling.

Implements the paper's solution representation (§3.3): an assignment
vector ``S`` (``S[t] = m``) plus an incrementally maintained
completion-time vector ``CT`` (``CT[m]`` = ready time of ``m`` + sum of
ETCs of the tasks assigned to it).  Makespan evaluation is then just
``CT.max()``.

:func:`compute_completion_times` is the one-schedule recompute every
incremental update is checked against; the whole-population recompute
the engines run is :func:`repro.kernels.batch_ct.batch_completion_times`,
which accumulates in the same order and so matches it bit for bit.
:class:`PeakTracker` gives O(1) peak reads over a live ``CT``.
"""

from repro.scheduling.schedule import Schedule, compute_completion_times
from repro.scheduling.delta import PeakTracker
from repro.scheduling.objectives import (
    flowtime,
    load_imbalance,
    machine_loads,
    makespan,
    utilization,
)
from repro.scheduling.validation import (
    InvalidScheduleError,
    check_completion_times,
    validate_assignment,
)

__all__ = [
    "Schedule",
    "compute_completion_times",
    "PeakTracker",
    "makespan",
    "flowtime",
    "machine_loads",
    "utilization",
    "load_imbalance",
    "InvalidScheduleError",
    "validate_assignment",
    "check_completion_times",
]
