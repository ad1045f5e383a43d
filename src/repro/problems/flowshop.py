"""Permutation flow shop as a :class:`SchedulingProblem`.

The second registered workload, proving the problem abstraction: the
same cGA engines (scalar, vectorized, threaded, shared-memory) run
``F | perm | Cmax`` — the permutation flow-shop problem of Taillard
(1993) — without knowing they left the ETC world.  The mapping onto the
universal (S, CT) buffers:

* genome ``s`` — a permutation of the ``njobs`` jobs (``ntasks`` =
  ``njobs``, so every engine buffer keeps its shape);
* ``ct`` row — per-machine completion time of the **last** job in the
  permutation.  The DP recurrence makes rows nondecreasing across
  machines, so ``ct.max() == ct[-1]`` is the makespan and the engines'
  shared ``ct.max()`` fitness fast path stays valid.

Operator analogs keep the paper's canonical names so one
:class:`~repro.cga.config.CGAConfig` drives either problem:

* crossover ``opx``/``tpx``/``uniform`` — the independent problem's
  inheritance masks (same RNG draws) feeding an order-preserving
  mask-fill: the child takes parent 2's jobs at mask positions and
  fills the rest with parent 1's remaining jobs in parent-1 order
  (feasible for *any* mask because a parent row is a permutation);
* mutation ``move`` — remove-and-reinsert one job (the permutation
  analog of moving a task to another machine); ``swap`` — exchange two
  positions;
* local search ``h2ll`` — the H2LL analog: take a random job out and
  re-insert it at the best of all positions, evaluated in O(n·m) with
  Taillard's head/tail (e, q, f) acceleration instead of n separate DP
  sweeps;
* seeding — NEH (Nawaz–Enscore–Ham 1983) replaces Min-min as the
  constructive heuristic planted at position 0.

The batch DP tables take the dtype of :attr:`FlowShopInstance.pT`:
int32 when every time is an integer and ``2·Σp < 2**31``, float64
otherwise.  Every table cell is a lattice-path length, at most ``Σp``,
and an insertion's ``f + q`` is at most ``2·Σp``, so the int32 tables
are exact and the float64 results they return are bit-identical to a
float64 DP, at half the memory traffic.  The scalar :func:`flowshop_ct`
always runs in float64.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.cga.fitness import makespan_fitness
from repro.kernels.batch_fitness import batch_makespan
from repro.kernels.batch_variation import BATCH_CROSSOVER_MASKS
from repro.problems.base import SchedulingProblem
from repro.scheduling.validation import InvalidScheduleError

__all__ = [
    "FLOWSHOP",
    "FlowShopInstance",
    "FlowShopSchedule",
    "make_flowshop",
    "load_flowshop_instance",
    "save_flowshop_instance",
    "flowshop_ct",
    "batch_flowshop_ct",
    "insertion_makespans",
    "neh_order",
]

#: spec pattern for deterministically regenerable instances.
_GEN_PATTERN = re.compile(r"fs(\d+)x(\d+)\.(\d+)")


@dataclass(frozen=True)
class FlowShopInstance:
    """Immutable permutation flow-shop instance.

    Parameters
    ----------
    p:
        ``(njobs, nmachines)`` array of positive processing times
        (job-major, like the ETC matrix's task-major layout).
    name:
        Human-readable instance name (``fs20x5.0`` for generated ones).
    """

    p: np.ndarray
    name: str = ""
    #: ``(m, njobs)`` times in the batch DP's table dtype, and the same
    #: with its machines reversed appended as ``njobs`` more columns
    #: (the stack :func:`insertion_makespans` runs heads and tails on)
    pT: np.ndarray = field(init=False, repr=False)
    pT_stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p = np.ascontiguousarray(self.p, dtype=np.float64)
        if p.ndim != 2:
            raise ValueError(f"processing times must be 2-D, got shape {p.shape}")
        if p.shape[0] < 2 or p.shape[1] < 1:
            raise ValueError(f"need >= 2 jobs and >= 1 machine, got shape {p.shape}")
        if not np.all(np.isfinite(p)) or np.any(p <= 0):
            raise ValueError("processing times must be finite and strictly positive")
        object.__setattr__(self, "p", p)
        # a DP path crosses each job at most once, so no table cell exceeds
        # sum(p) and no insertion's f + q exceeds 2 * sum(p): integral
        # times under that bound run exactly in int32
        exact = np.array_equal(p, np.rint(p)) and 2.0 * float(p.sum()) < 2.0**31
        pT = np.ascontiguousarray(p.T, dtype=np.int32 if exact else np.float64)
        object.__setattr__(self, "pT", pT)
        object.__setattr__(self, "pT_stack", np.hstack([pT, pT[::-1]]))

    # engine-facing geometry: genome length and aux-row width
    @property
    def ntasks(self) -> int:
        """Genome length — the number of jobs."""
        return self.p.shape[0]

    @property
    def njobs(self) -> int:
        """Number of jobs (alias of :attr:`ntasks`)."""
        return self.p.shape[0]

    @property
    def nmachines(self) -> int:
        """Number of machines — the width of the CT row."""
        return self.p.shape[1]

    def makespan_lower_bound(self) -> float:
        """Machine-load bound: each machine's work plus min head/tail."""
        p = self.p
        best = 0.0
        for k in range(self.nmachines):
            head = float(p[:, :k].sum(axis=1).min()) if k else 0.0
            tail = float(p[:, k + 1 :].sum(axis=1).min()) if k + 1 < self.nmachines else 0.0
            best = max(best, head + float(p[:, k].sum()) + tail)
        return best

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowShopInstance):
            return NotImplemented
        return self.p.shape == other.p.shape and bool(np.array_equal(self.p, other.p))

    def __hash__(self) -> int:
        # content only, like __eq__: equal instances under two names hash alike
        return hash((self.p.shape, float(self.p.sum())))

    def __repr__(self) -> str:
        label = self.name or "<unnamed>"
        return f"FlowShopInstance({label}, {self.njobs}x{self.nmachines})"


class FlowShopSchedule:
    """A standalone permutation schedule (the flow-shop ``Schedule``)."""

    __slots__ = ("instance", "s")

    def __init__(self, instance: FlowShopInstance, s: np.ndarray):
        s = np.ascontiguousarray(s, dtype=np.int32)
        check_permutation(instance, s)
        self.instance = instance
        self.s = s

    def completion_times(self) -> np.ndarray:
        """Per-machine completion time of the last permutation job."""
        return flowshop_ct(self.instance, self.s)

    def makespan(self) -> float:
        """Completion time of the last job on the last machine."""
        return float(flowshop_ct(self.instance, self.s)[-1])


# ----------------------------------------------------------------------
# instance generation and I/O
# ----------------------------------------------------------------------
def make_flowshop(njobs: int, nmachines: int, seed: int = 0, name: str = "") -> FlowShopInstance:
    """Taillard-style random instance: integer times uniform in [1, 99]."""
    rng = np.random.default_rng(seed)
    p = rng.integers(1, 100, size=(njobs, nmachines)).astype(np.float64)
    return FlowShopInstance(p=p, name=name or f"fs{njobs}x{nmachines}.{seed}")


def save_flowshop_instance(instance: FlowShopInstance, path) -> None:
    """Write the annotated text format (header + one row per job)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        if instance.name:
            fh.write(f"# {instance.name}\n")
        fh.write(f"{instance.njobs} {instance.nmachines}\n")
        for row in instance.p:
            fh.write(" ".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def _load_file(path: Path) -> FlowShopInstance:
    name = ""
    with path.open("r", encoding="utf-8") as fh:
        line = fh.readline()
        if line.startswith("#"):
            name = line[1:].strip()
            line = fh.readline()
        try:
            njobs, nmachines = (int(tok) for tok in line.split())
        except ValueError as exc:
            raise ValueError(f"{path}: malformed dimension line {line!r}") from exc
        data = np.loadtxt(fh, dtype=np.float64, ndmin=2)
    if data.shape != (njobs, nmachines):
        raise ValueError(
            f"{path}: header says {njobs}x{nmachines} but body has shape {data.shape}"
        )
    return FlowShopInstance(p=data, name=name)


def load_flowshop_instance(spec: str) -> FlowShopInstance:
    """Resolve a spec: ``fs<jobs>x<machines>.<seed>`` or a file path.

    Generated specs are deterministic, so checkpoints referencing them
    resume against bit-identical instances with no file on disk.
    """
    match = _GEN_PATTERN.fullmatch(spec)
    if match:
        return make_flowshop(int(match[1]), int(match[2]), seed=int(match[3]))
    if Path(spec).is_file():
        return _load_file(Path(spec))
    raise ValueError(
        f"unknown flow-shop instance {spec!r}: expected a generator spec like "
        f"'fs20x5.0' (jobs x machines . seed) or a path to an instance file"
    )


# ----------------------------------------------------------------------
# evaluation — the makespan DP, scalar and batch
# ----------------------------------------------------------------------
def flowshop_ct(instance: FlowShopInstance, s: np.ndarray) -> np.ndarray:
    """Completion-time row of one permutation (the scalar reference).

    The classic O(n·m) recurrence over Python floats (ndarray element
    access dominated a profiled NumPy version at benchmark sizes); the
    op-for-op order matches :func:`batch_flowshop_ct`, so scalar and
    batch evaluation agree bit-exactly.
    """
    p = instance.p
    m = instance.nmachines
    c = [0.0] * m
    for j in s:
        row = p[int(j)]
        c[0] += row[0]
        prev = c[0]
        for k in range(1, m):
            ck = c[k]
            if prev > ck:
                ck = prev
            prev = c[k] = ck + row[k]
    return np.asarray(c, dtype=np.float64)


#: rows per batch_flowshop_ct table: caps its memory at a half population
#: of the default 16x16 grid, where the per-row cost has levelled off
_CT_BLOCK = 128


def _dp_table(pT: np.ndarray, R: np.ndarray, lead: int) -> np.ndarray:
    """Completion-time table of every row of ``R``, one anti-diagonal per step.

    ``pT`` is the ``(m, njobs)`` time matrix, ``R`` a ``(P, N)`` job matrix,
    ``lead`` zero-time jobs are prepended.  ``V[i + k, k]`` of the returned
    ``(lead + N + m - 1, m, P)`` table is position ``i``'s completion on
    machine ``k``.  A diagonal's cells are independent and contiguous, and
    ``V[d, 1:] += max(V[d-1, 1:], V[d-1, :-1])`` gives each the same
    ``max``-then-``+`` on the same operands as a cell-by-cell sweep, so the
    table is bit-identical to it for any float times.  The table takes
    ``pT``'s dtype: an int32 ``pT`` whose path sums fit (see
    :class:`FlowShopInstance`) gives the same values exactly.
    """
    m = pT.shape[0]
    P, N = R.shape
    V = np.zeros((lead + N + m - 1, m, P), dtype=pT.dtype)
    d, k, r = V.strides
    cells = as_strided(V[lead], (m, N, P), (d + k, d, r))  # (k, i) -> V[i + k, k]
    # one intp index for every machine: a gather converts any other index
    # array afresh on each call.  Each machine's strided cells are filled
    # from a one-machine temporary (out= would stage through one too), and
    # plain indexing keeps the IndexError on an out-of-range job id.
    idx = np.ascontiguousarray(R.T, dtype=np.intp)
    for row, out in zip(pT, cells):
        out[...] = row[idx]
    np.cumsum(V[:, 0], axis=0, out=V[:, 0])
    step = np.empty((m - 1, P), dtype=V.dtype)
    for prev, cur in zip(V[:-1], V[1:]):
        np.maximum(prev[1:], prev[:-1], out=step)
        cur[1:] += step
    return V


def batch_flowshop_ct(instance: FlowShopInstance, S: np.ndarray) -> np.ndarray:
    """CT rows for a whole ``(P, njobs)`` permutation matrix.

    The DP table is evaluated by anti-diagonals (:func:`_dp_table`) in
    ``n + m - 1`` vector steps per block of up to ``_CT_BLOCK`` rows, in
    the instance's table dtype; the float64 result is bit-identical to
    the cell-by-cell recurrence of :func:`flowshop_ct`.
    """
    S = np.asarray(S)
    P, n = S.shape
    pT = instance.pT
    k = np.arange(pT.shape[0])
    CT = np.empty((P, k.size))
    for c in range(0, P, _CT_BLOCK):  # one block's table alive at a time
        CT[c : c + _CT_BLOCK] = _dp_table(pT, S[c : c + _CT_BLOCK], 0)[k + n - 1, k].T
    return CT


def check_permutation(instance: FlowShopInstance, s: np.ndarray) -> None:
    """Raise unless ``s`` is a valid int32 permutation of the jobs."""
    n = instance.njobs
    if s.shape != (n,):
        raise InvalidScheduleError(f"genome shape {s.shape} != ({n},)")
    if s.dtype != np.int32:
        raise InvalidScheduleError(f"genome dtype {s.dtype} != int32")
    seen = np.zeros(n, dtype=bool)
    valid = (s >= 0) & (s < n)
    if not valid.all():
        raise InvalidScheduleError("genome contains out-of-range job ids")
    seen[s] = True
    if not seen.all():
        raise InvalidScheduleError("genome is not a permutation (repeated jobs)")


def check_flowshop_ct(instance: FlowShopInstance, s: np.ndarray, ct: np.ndarray) -> None:
    """Raise unless the cached CT row matches a fresh DP sweep."""
    expected = flowshop_ct(instance, s)
    if not np.allclose(ct, expected, rtol=1e-9, atol=1e-6):
        raise InvalidScheduleError(f"stale completion times: {ct} != {expected}")


# ----------------------------------------------------------------------
# Taillard (e, q, f) insertion acceleration
# ----------------------------------------------------------------------
def insertion_makespans(
    instance: FlowShopInstance, R: np.ndarray, jobs: np.ndarray
) -> np.ndarray:
    """Makespans of inserting ``jobs[r]`` at every position of ``R[r]``.

    ``R`` is a ``(P, L)`` matrix of partial permutations and the result
    is ``(P, L + 1)``.  Taillard's acceleration: heads ``e`` (prefix
    completion times), tails ``q`` (time from each suffix's start to
    the end), and the inserted job's own completion ``f`` give the
    makespan at position ``i`` as ``max_k(f[i, k] + q[i, k])`` — all
    n + 1 insertions in one O(n·m) pass instead of n DP sweeps.  ``e`` and
    ``q`` share one anti-diagonal table (:func:`_dp_table`) and ``f`` folds
    into a running max over machines, all in the instance's table dtype:
    the float64 result is bit-identical to a cell-by-cell pass.
    """
    R = np.asarray(R)
    P, L = R.shape
    pT = instance.pT
    m, n = pT.shape
    # one table holds both: columns P: run on the reversed input
    eq = _dp_table(instance.pT_stack, np.vstack([R, R[:, ::-1] + n]), 1)
    e, q = eq[..., :P], eq[..., P:]
    pj = pT[:, jobs]
    # times are positive, so starting f and the max at zero is exact
    f, ms, fq = np.zeros((3, L + 1, P), pT.dtype)  # fq: f + q, reused per machine
    for k in range(m):
        np.maximum(f, e[k : k + L + 1, k], out=f)
        f += pj[k]
        r = m - 1 - k  # q holds machine k of position i at [r + L - i, r]
        np.add(f, q[r : r + L + 1, r][::-1], out=fq)
        np.maximum(ms, fq, out=ms)
    return np.asarray(ms.T, dtype=np.float64)


def _delete_positions(S: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Row-wise ``np.delete``: drop ``pos[r]`` from every row of ``S``."""
    P, n = S.shape
    cols = np.arange(n - 1)[None, :]
    take = np.where(cols < pos[:, None], cols, cols + 1)
    return np.take_along_axis(S, take, axis=1)


def _insert_positions(R: np.ndarray, pos: np.ndarray, jobs: np.ndarray) -> np.ndarray:
    """Row-wise ``np.insert``: place ``jobs[r]`` at ``pos[r]`` in ``R[r]``."""
    P, L = R.shape
    cols = np.arange(L + 1)[None, :]
    take = np.where(cols < pos[:, None], cols, cols - 1)
    out = np.take_along_axis(R, np.clip(take, 0, L - 1), axis=1)
    out[np.arange(P), pos] = jobs
    return out


# ----------------------------------------------------------------------
# seeding — NEH
# ----------------------------------------------------------------------
def neh_order(instance: FlowShopInstance) -> np.ndarray:
    """NEH constructive heuristic: the flow-shop analog of Min-min.

    Jobs sorted by descending total processing time, each inserted at
    its best position (Taillard-accelerated, O(n²·m) total).
    """
    totals = instance.p.sum(axis=1)
    order = np.argsort(-totals, kind="stable")
    seq = np.asarray([order[0]], dtype=np.int32)
    for job in order[1:]:
        ms = insertion_makespans(instance, seq[None, :], np.asarray([job]))[0]
        pos = int(ms.argmin())
        seq = np.insert(seq, pos, np.int32(job))
    return np.ascontiguousarray(seq, dtype=np.int32)


def _seed_schedules(instance: FlowShopInstance, config) -> list | None:
    # the config's "seed with a constructive heuristic" switch keeps its
    # paper name; for flow shop the heuristic is NEH instead of Min-min
    if not getattr(config, "seed_with_minmin", True):
        return None
    return [FlowShopSchedule(instance, neh_order(instance))]


# ----------------------------------------------------------------------
# scalar operators
# ----------------------------------------------------------------------
def _ox_fill(p1: np.ndarray, p2: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Order-preserving mask fill (generalized OX)."""
    taken = np.zeros(p1.shape[0], dtype=bool)
    taken[p2[mask]] = True
    child = np.empty_like(p1)
    child[mask] = p2[mask]
    child[~mask] = p1[~taken[p1]]
    return child


def fs_one_point(p1: np.ndarray, p2: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """opx analog: p2's suffix jobs keep their places, prefix refilled."""
    n = p1.shape[0]
    cut = int(rng.integers(1, n))
    return _ox_fill(p1, p2, np.arange(n) >= cut)


def fs_two_point(p1: np.ndarray, p2: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """tpx analog: p2's jobs inside a random window keep their places."""
    n = p1.shape[0]
    cuts = rng.integers(0, n + 1, size=2)
    a, b = (int(cuts.min()), int(cuts.max()))
    cols = np.arange(n)
    return _ox_fill(p1, p2, (cols >= a) & (cols < b))


def fs_uniform(p1: np.ndarray, p2: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """uniform analog: each position from p2 with p = 1/2, rest refilled."""
    return _ox_fill(p1, p2, rng.random(p1.shape[0]) < 0.5)


def fs_recombine(instance, p1_s, p1_ct, p2_s, op, rng):
    """Apply a crossover and derive the child's CT by one DP sweep.

    The flow-shop counterpart of :func:`repro.cga.crossover.child_with_ct`;
    a permutation has no O(changed) CT delta, but the DP sweep is O(n·m).
    """
    child = op(p1_s, p2_s, rng)
    return child, flowshop_ct(instance, child)


def fs_insertion_mutation(s, ct, instance, rng) -> None:
    """``move`` analog: remove one random job, reinsert at a random slot."""
    n = instance.ntasks
    i = int(rng.integers(0, n))
    j = int(rng.integers(0, n))
    if i == j:
        return
    if j < i:
        s[j : i + 1] = np.roll(s[j : i + 1], 1)
    else:
        s[i : j + 1] = np.roll(s[i : j + 1], -1)
    ct[:] = flowshop_ct(instance, s)


def fs_swap_mutation(s, ct, instance, rng) -> None:
    """``swap`` analog: exchange the jobs at two random positions."""
    n = instance.ntasks
    a, b = rng.choice(n, size=2, replace=False)
    if s[a] == s[b]:
        return
    s[a], s[b] = s[b], s[a]
    ct[:] = flowshop_ct(instance, s)


def fs_insertion_ls(
    s, ct, instance, rng, iterations: int = 5, n_candidates=None
) -> int:
    """``h2ll`` analog: best reinsertion of a random job, if improving.

    Each pass takes one job out and evaluates all n insertion points
    with the Taillard acceleration — the same "one targeted move per
    pass, no full re-evaluation" budget as H2LL.  ``n_candidates`` is
    accepted for signature parity and ignored (every position is a
    candidate at the same O(n·m) cost).
    """
    if iterations <= 0 or instance.ntasks < 2:
        return 0
    moves = 0
    picks = rng.random(iterations)  # one pre-drawn uniform per pass
    n = instance.ntasks
    for it in range(iterations):
        i = int(picks[it] * n)
        job = np.asarray([s[i]])
        rest = np.delete(s, i)
        ms = insertion_makespans(instance, rest[None, :], job)[0]
        pos = int(ms.argmin())
        if ms[pos] < float(ct[-1]):
            s[:] = np.insert(rest, pos, job[0])
            ct[:] = flowshop_ct(instance, s)
            moves += 1
    return moves


def _random_move(s, ct, instance, rng) -> float:
    """One random reinsertion through the DP/Taillard delta machinery."""
    n = instance.ntasks
    i = int(rng.integers(0, n))
    j = int(rng.integers(0, n))
    if i == j:
        return float(ct[-1])
    job = np.asarray([s[i]])
    rest = np.delete(s, i)
    predicted = float(insertion_makespans(instance, rest[None, :], job)[0][j])
    s[:] = np.insert(rest, j, job[0])
    ct[:] = flowshop_ct(instance, s)
    return predicted


# ----------------------------------------------------------------------
# batch kernels
# ----------------------------------------------------------------------
def _batch_ox_fill(p1: np.ndarray, p2: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row-wise order-preserving mask fill for ``(P, n)`` matrices.

    :func:`_ox_fill` on every row at once, through flat row-offset
    indices.  Row ``r`` has as many free slots as untaken jobs (its
    parents are permutations), and boolean selection walks both in
    row-major order, so the ``k``-th free slot of the matrix gets the
    ``k``-th untaken job of the same row.
    """
    P, n = p1.shape
    base = np.arange(0, P * n, n)[:, None]  # flat offset of each row
    taken = np.zeros(P * n, dtype=bool)
    taken[(p2 + base)[mask]] = True
    child = p2.copy()
    child[~mask] = p1[~taken[p1 + base]]
    return child


def fs_batch_recombine(instance, child_s, child_ct, p2_s, mask) -> np.ndarray:
    """Mask-fill every crossed row, then refresh its CT by one DP pass."""
    r = np.flatnonzero(mask.any(axis=1))
    if r.size == 0:
        return child_s
    new_s = child_s.copy()
    new_s[r] = _batch_ox_fill(child_s[r], p2_s[r], mask[r])
    child_ct[r] = batch_flowshop_ct(instance, new_s[r])
    return new_s


def fs_batch_insertion_mutation(s, ct, instance, rng, active) -> None:
    """Remove-and-reinsert one random job in every active row."""
    P, n = s.shape
    i = rng.integers(0, n, size=P)
    j = rng.integers(0, n, size=P)
    r = np.flatnonzero(active & (i != j))
    if r.size == 0:
        return
    jobs = s[r, i[r]]
    rest = _delete_positions(s[r], i[r])
    s[r] = _insert_positions(rest, j[r], jobs)
    ct[r] = batch_flowshop_ct(instance, s[r])


def fs_batch_swap_mutation(s, ct, instance, rng, active) -> None:
    """Exchange two random distinct positions in every active row."""
    P, n = s.shape
    a = rng.integers(0, n, size=P)
    b = rng.integers(0, n - 1, size=P)
    b += b >= a  # distinct pair, uniform over the other n-1 positions
    r = np.flatnonzero(active)
    if r.size == 0:
        return
    s[r, a[r]], s[r, b[r]] = s[r, b[r]], s[r, a[r]]
    ct[r] = batch_flowshop_ct(instance, s[r])


def fs_batch_insertion_ls(s, ct, instance, rng, iterations: int = 5, n_candidates=None) -> int:
    """Batch best-reinsertion local search (``h2ll`` analog).

    Per pass: one random job out per row, all insertion points of every
    row scored in a single Taillard pass, improving rows rebuilt and
    re-evaluated.  Returns the total number of accepted moves.
    """
    if iterations <= 0:
        return 0
    P, n = s.shape
    rows = np.arange(P)
    moves = 0
    for _ in range(iterations):
        i = (rng.random(P) * n).astype(np.int64)
        jobs = s[rows, i]
        rest = _delete_positions(s, i)
        ms = insertion_makespans(instance, rest, jobs)
        pos = ms.argmin(axis=1)
        best = ms[rows, pos]
        r = np.flatnonzero(best < ct[:, -1])
        if r.size:
            s[r] = _insert_positions(rest[r], pos[r], jobs[r])
            ct[r] = batch_flowshop_ct(instance, s[r])
            moves += int(r.size)
    return moves


def _random_genomes(instance: FlowShopInstance, rng: np.random.Generator, shape) -> np.ndarray:
    pop, n = shape
    base = np.tile(np.arange(n, dtype=np.int32), (pop, 1))
    return rng.permuted(base, axis=1)


FLOWSHOP = SchedulingProblem(
    name="flowshop",
    summary="permutation flow shop, F|perm|Cmax (Taillard 1993)",
    instance_type=FlowShopInstance,
    load_instance=load_flowshop_instance,
    default_instance="fs20x5.0",
    alphabet=lambda instance: instance.njobs,
    random_genomes=_random_genomes,
    evaluate=flowshop_ct,
    population_ct=batch_flowshop_ct,
    random_move=_random_move,
    check_genome=check_permutation,
    check_ct=check_flowshop_ct,
    seed_schedules=_seed_schedules,
    as_schedule=FlowShopSchedule,
    fitness={"makespan": makespan_fitness},
    crossovers={"opx": fs_one_point, "tpx": fs_two_point, "uniform": fs_uniform},
    mutations={"move": fs_insertion_mutation, "swap": fs_swap_mutation},
    local_searches={"h2ll": fs_insertion_ls},
    recombine=fs_recombine,
    batch_fitness={"makespan": batch_makespan},
    batch_mutations={"move": fs_batch_insertion_mutation, "swap": fs_batch_swap_mutation},
    batch_local_searches={"h2ll": fs_batch_insertion_ls},
    batch_cross_masks=BATCH_CROSSOVER_MASKS,
    batch_recombine=fs_batch_recombine,
)
