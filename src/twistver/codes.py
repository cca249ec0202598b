"""Linear codes from embedded point sets: exact parameters, dependent-set
search, and minimum-weight support classification.

The parity-check matrix H has one column per embedded point, in the fixed
point-enumeration order.  The minimum distance equals the size of the
smallest linearly dependent column subset.  min_distance runs one search
routine for every size w = 2, 3, ...: a scan of w-subsets in
lexicographic order that stops at the first dependent one, so the first
level with a hit gives delta and the lexicographically first minimal
dependent set as witness.  The labels in the stage log name what a level
establishes:

* "general-position" for w <= d+1 (every w-subset independent);
* "minimal-dependent" for w = d+2, where the dependent sets are expected
  on fixed-subfield sublines;
* "lex-search" above.

Column symmetries.  For M in GL(n, q^t) the embedding satisfies
nu(Mv) = (M^{s_0} (x) ... (x) M^{s_{d-1}}) nu(v), so M permutes the
columns of H up to nonzero scalars through an invertible linear map, and
a column subset is dependent exactly when its image is.  Once per
min_distance call, one array pass reads each generator M listed by
_gl_generators off the point list as a column permutation and per-column
scales lead^norm (every basis monomial has degree norm), and one rank
test of H against all their images, _is_column_symmetry, proves the set;
nothing rests on the identity above.  If the test fails, k = 0 and no
level is reduced.  Otherwise a stabiliser chain over the nu columns
gives k, stored in the report as orbit_prefix: the largest k such that,
for every i < k, the permutations that fix columns 0 .. i-1 move column
i onto every column >= i, so any k distinct columns map onto
(0, ..., k-1).  On a line (n = 2) PGL(2, q^t) is 3-transitive and
k = 3 (more on the tiniest fields); for n >= 3 the generators that fix
columns 0 and 1 fix column 2 too, and the chain stops at 2.

A level then scans only the C(nu-k', w-k') w-subsets that contain the
columns 0 .. k'-1, k' = min(k, w) (McKay's "one representative per
orbit", B. D. McKay, J. Algorithms 26, 1998).  This is exact for two
reasons:

* every w-subset is mapped by a symmetry onto one containing them, so a
  level with no dependent superset of the prefix is empty (restriction
  "orbit:k'" in the stage log);
* these supersets are the lexicographically first C(nu-k', w-k')
  w-subsets, so the first hit among them is the global lex-first
  witness, found after the same number of checks as by the full scan
  (restriction "none").

The subline structure is an output, not a shortcut: classify_min_words
lists the h supports through the columns 0 .. k'-1, k' = min(k, d+2)
(all of them if k = 0), counts h C(nu, k') / C(d+2, k') by double
counting, since every k'-set of columns lies in h, and checks all listed
ones for collinear pre-images on a common PG(1, q') subline in one array
pass, pg.on_common_subline; the scalar pg geometry (is_collinear,
subline_through) serves only as its reference in the tests.  The proved
symmetries come from matrices, which map sublines to sublines, so the
listed ones speak for all.

Each level walks a depth-first tree of independent column
prefixes in one incremental elimination per min_distance call, whose
frame holds the columns 0 .. k'-1: each is pushed once, and its push
settles the level w = k' <= k; every later level and task starts from
it.  One vectorized scan per prefix classifies every extension column as
in-span or independent, so a level that nominally checks C(nu, w)
subsets only does C(nu, w-1) eliminations.  A prefix with three columns
left pushes none of its children: one pair_groups call classifies the
2-extensions of a whole run of them, and the runs double in length
(1, 2, 4, ...), so an early hit costs about as much as the scan before
it while an empty level makes a few calls per prefix.

Everything is deterministic: a level is split into tasks on the column
after the prefix, or, with three columns left, on runs of such columns
of doubling length; the tasks run and are read back in lexicographic
order (the first in this process, the rest in order through a fork pool
of at most one worker per usable CPU when the level is large and
workers > 1), and reported check counts are closed-form, so a report is
bit-identical for any worker count.

An unstructured brute-force oracle (plain subset enumeration, scalar
arithmetic, no staging, no symmetry) cross-validates the search on small
codes: the same delta and the same lexicographically first witness.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from bisect import bisect_left
from contextlib import closing, suppress
from dataclasses import (asdict, dataclass, field as dc_field, fields,
                         replace)
from itertools import combinations
from math import comb
from multiprocessing import get_context
from typing import Optional, Sequence

import numpy as np

from .ff import Field
from .linalg import IncrementalElim, is_independent, kernel_basis, rank
from .pg import on_common_subline
from .veronese import Twist, VarietyMatrix

PARALLEL_MIN_CHECKS = 200_000  # below this a pool costs more than it saves
LEAF_ENTRIES = 1 << 18  # reduced entries per batched pair_groups call
SUPPORTS_LISTED = 1_000  # lex-first supports a report lists; all are checked
DEFAULT_BUDGET = 100_000_000
DEFAULT_ORACLE_CAP = 2_000_000


class DependencyInvariantError(RuntimeError):
    """A dependent subset smaller than the current level was encountered.

    Earlier exhaustive levels rule this out, so seeing one means a bug;
    the search must not continue silently.
    """

    def __init__(self, subset):
        super().__init__(f"unexpected dependent subset {subset}")
        self.subset = tuple(subset)

    def __reduce__(self):  # keep the subset across process boundaries
        return (DependencyInvariantError, (self.subset,))


class BudgetExceeded(RuntimeError):
    pass


@dataclass
class Code:
    """A linear code handled entirely through its parity-check matrix."""

    variety: VarietyMatrix
    H: np.ndarray      # effective_N x nu, columns = embedded points
    nu: int
    kappa: int

    @property
    def field(self) -> Field:
        return self.variety.field

    @property
    def twist(self) -> Twist:
        return self.variety.twist

    @property
    def effective_N(self) -> int:
        return self.variety.basis.effective_N


def build_code(variety: VarietyMatrix) -> Code:
    n_eff = variety.basis.effective_N
    if variety.rank_ != n_eff:
        raise ValueError(
            f"point table has rank {variety.rank_}, expected {n_eff}; "
            "the check matrix would be rank deficient")
    nu = variety.num_points
    return Code(variety=variety, H=variety.coords.T.copy(), nu=nu,
                kappa=nu - n_eff)


@dataclass(frozen=True)
class SearchPlan:
    """Budgets and parallelism for the staged search.

    budget caps the number of subsets any single level may check; a level
    whose exact cost exceeds it runs truncated, and a truncated level that
    finds nothing yields a lower bound instead of an exact distance.
    """

    w_max: Optional[int] = None
    budget: int = DEFAULT_BUDGET
    workers: int = 1

    def __post_init__(self):
        if self.w_max is not None and self.w_max < 2:
            raise ValueError(f"w_max must be at least 2, got {self.w_max}")
        if self.budget < 1:
            raise ValueError(f"budget must be at least 1, got {self.budget}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")


@dataclass
class StageRecord:
    label: str
    w: int
    restriction: str
    checked: int
    dependent_found: int
    early_exit: bool
    capped: bool
    seconds: float = 0.0

    def payload(self) -> dict:
        d = asdict(self)
        d.pop("seconds")
        return d


@dataclass
class CodeReport:
    field: dict
    n: int
    sigma_exponents: list
    q_fixed: int
    nu: int
    kappa: int
    expected_N: int
    effective_N: int
    singleton_bound: int
    orbit_prefix: int = 0
    delta: Optional[int] = None
    delta_exact: bool = False
    delta_lower_bound: int = 1
    status: str = "unresolved"
    witness: Optional[list] = None
    witness_points: Optional[list] = None
    min_weight_support_count: Optional[int] = None
    supports: Optional[list] = None
    violations: list = dc_field(default_factory=list)
    stage_log: list = dc_field(default_factory=list)
    timings: dict = dc_field(default_factory=dict)

    @property
    def capped(self) -> bool:
        """Whether a budget cap stopped a level before it was settled: the
        one test for "budget exhausted".  Derived, so not in payload."""
        return any(s.capped for s in self.stage_log)

    def payload(self) -> dict:
        """Canonical content: everything except timings and the hash."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "timings"}
        out["stage_log"] = [s.payload() for s in self.stage_log]
        return out

    def canonical_hash(self) -> str:
        blob = json.dumps(self.payload(), sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_json(self) -> dict:
        out = self.payload()
        out["timings"] = self.timings
        out["canonical_hash"] = self.canonical_hash()
        return out


# ---------------------------------------------------------------------------
# Level scan: all w-subsets via independent (w-1)-prefixes
# ---------------------------------------------------------------------------

def _lex_rank(subset: Sequence[int], nu: int) -> int:
    """Number of |subset|-subsets of range(nu) strictly lex-before subset."""
    w = len(subset)
    r = 0
    prev = -1
    for i, s in enumerate(subset):
        for c in range(prev + 1, s):
            r += comb(nu - c - 1, w - i - 1)
        prev = s
    return r


def _scan_subtree(elim: IncrementalElim, head: tuple[int, ...], w: int,
                  early_exit: bool, cap: Optional[int]):
    """Scan one task of a level (see _level_tasks): the w-subsets through
    head.  Returns the dependent w-subsets found (only the first with
    early exit) and the number of w-subsets covered.  A cap stops the scan
    once that many are checked; a vectorized leaf is checked whole.  With
    two columns left after head, a cap carries the scan on through the
    later siblings of head[-1], in lexicographic order.

    Visits independent prefixes in lexicographic order.  At prefix size
    w-1 one vectorized scan classifies every remaining column; at prefix
    size w-3 pair_groups classifies the 2-extensions of a run of children
    in one call, the runs doubling in length (1, 2, 4, ...) so that an
    early hit costs about as much as the scan before it.  A dependent
    subset smaller than w raises DependencyInvariantError.
    """
    checked = int(len(head) == w)  # a whole head is one subset
    hits: list[tuple[int, ...]] = []
    ncols = elim.ncols
    sibling_run = cap is not None and w - len(head) == 2
    run = ncols if sibling_run else 1  # children per pair_groups call
    prefix = list(head[:-1] if sibling_run else head)
    push, pop, split, pairs = (elim.push, elim.pop, elim.split_extensions,
                               elim.pair_groups)
    area = max(1, LEAF_ENTRIES // elim.rows)  # children x width per call

    def leaves(lo: int, hi: int) -> bool:
        """The 2-extensions of prefix + (c,) for the children c in
        range(lo, hi), each outside the span of prefix; True once the cap
        is reached."""
        nonlocal checked, run

        def through(a, b):  # the subsets through the children a .. b-1
            return comb(ncols - a, 3) - comb(ncols - b, 3)

        if cap is not None:  # the child whose subsets reach the cap is last
            hi = min(hi, lo + 1 + bisect_left(
                range(lo, hi), cap - checked, key=lambda c: through(lo, c + 1)))
        base = tuple(prefix)
        while lo < hi:
            stop = min(hi, lo + max(1, min(run, area // max(1, ncols - lo))))
            dead, groups = pairs(range(lo, stop), early_exit)
            bad = np.flatnonzero(dead >= 0)
            first = int(bad[0]) if bad.size else stop - lo
            if early_exit and groups and groups[0][0] < first:
                i, g = groups[0]
                checked += through(lo, lo + i + 1)
                hits.append(base + (lo + i, g[0], g[1]))
                return True
            if bad.size:
                raise DependencyInvariantError(
                    base + (lo + first, int(dead[first])))
            checked += through(lo, stop)
            for i, g in groups:
                hits.extend(base + (lo + i,) + pair
                            for pair in combinations(g, 2))
            lo, run = stop, 2 * run
        return cap is not None and checked >= cap

    def rec(remaining: int) -> bool:
        nonlocal checked
        if remaining == 1:
            deps, indeps = split()
            checked += int(deps.size) + int(indeps.size)
            if deps.size:
                base = tuple(prefix)
                if early_exit:
                    hits.append(base + (int(deps[0]),))
                    return True
                hits.extend(base + (int(c),) for c in deps.tolist())
            return cap is not None and checked >= cap
        if remaining == 2:
            dead, groups = pairs()
            if dead.size:
                raise DependencyInvariantError(tuple(prefix) + (int(dead[0]),))
            width = ncols - 1 - (prefix[-1] if prefix else -1)
            checked += width * (width - 1) // 2
            if groups:
                base = tuple(prefix)
                if early_exit:
                    hits.append(base + tuple(groups[0][:2]))
                    return True
                for g in groups:
                    hits.extend(base + pair for pair in combinations(g, 2))
            return cap is not None and checked >= cap
        deps, indeps = split()
        if deps.size:
            raise DependencyInvariantError(tuple(prefix) + (int(deps[0]),))
        if remaining == 3:
            return leaves(prefix[-1] + 1 if prefix else 0, ncols)
        for c in indeps.tolist():
            push(c)
            prefix.append(c)
            stop = rec(remaining - 1)
            prefix.pop()
            pop()
            if stop:
                return True
        return False

    try:  # the frame holds head[:elim.frame] already
        for i in range(elim.frame, len(prefix)):
            if not push(head[i]):
                if i + 1 < w:
                    raise DependencyInvariantError(head[:i + 1])
                return [tuple(head)], 1  # the head is the subset
        if sibling_run:
            # head[-1] and its later siblings are children of prefix; those
            # before the first one in its span are scanned first
            deps, _ = split()
            bad = deps[deps >= head[-1]] if deps.size else deps
            end = int(bad[0]) if bad.size else ncols
            if not leaves(head[-1], end) and bad.size:
                raise DependencyInvariantError(tuple(prefix) + (end,))
        elif len(head) < w:
            rec(w - len(head))
    finally:
        elim.reset()
    return hits, checked


def _level_tasks(nu: int, k: int, w: int, budget: int):
    """(head, cap) tasks, in lexicographic order, covering at least the
    lexicographically first `budget` w-subsets of range(nu) that contain
    range(k); cap None is a head's whole subtree.  With at most two
    columns left to choose, the one task (range(k), None) is one
    vectorized scan of the level.  Otherwise a head is range(k) plus a
    next column a.  With three left, a task is a run of next columns from
    a, 1, 2, 4, ... long, which one pair_groups call settles, and its cap
    is the subsets through the run; with more, the task is a's subtree.
    The last task is cut at the budget."""
    prefix, left = tuple(range(k)), w - k
    if left <= 2:
        return [(prefix, None)]
    tasks: list[tuple[tuple[int, ...], Optional[int]]] = []
    a, length, end = k, 1, nu - left + 1
    while a < end and budget > 0:
        b = min(a + length, end) if left == 3 else a + 1
        count = comb(nu - a, left) - comb(nu - b, left)
        tasks.append((prefix + (a,), min(count, budget)
                      if left == 3 or count > budget else None))
        budget -= count
        a, length = b, 2 * length
    return tasks


# The scan of the level a fork pool is running; its workers inherit it,
# IncrementalElim and its frame included, through the fork.
_forked_scan = None


def _call_forked_scan(task):
    return _forked_scan(task)


def _task_results(scan, tasks, workers: int):
    """scan(task) for each task, in task order: the first in this process,
    the rest through map or, with workers > 1, a fork pool's ordered imap.
    A pool is started only when the caller asks for the second result."""
    global _forked_scan
    yield scan(tasks[0])
    rest = tasks[1:]
    if workers == 1 or not rest:
        yield from map(scan, rest)
        return
    _forked_scan = scan
    try:
        size = min(workers, len(rest), len(os.sched_getaffinity(0)))
        with get_context("fork").Pool(size) as pool:
            # subtrees shrink along the task list: a few ordered chunks
            # per worker keep the workers evenly loaded
            yield from pool.imap(_call_forked_scan, rest,
                                 chunksize=-(-len(rest) // (4 * size)))
    finally:
        _forked_scan = None


def _scan_columns(elim: IncrementalElim, w: int,
                  tasks: list[tuple[tuple[int, ...], Optional[int]]],
                  early_exit: bool, workers: int):
    """Scan the tasks' subtrees in lexicographic task order.  Early exit
    stops at the first task with a hit, which lex-dominates every later
    one: a level whose first task hits starts no pool, and a later hit
    stops every worker.  Returns the sorted hits and the number of
    w-subsets covered."""

    def scan(task):
        head, cap = task
        return _scan_subtree(elim, head, w, early_exit, cap)

    hits, covered = [], 0
    with closing(_task_results(scan, tasks, workers)) as results:
        for task_hits, checked in results:
            hits += task_hits
            covered += checked
            if early_exit and task_hits:
                break
    return sorted(hits), covered


def _run_level(elim: IncrementalElim, w: int, plan: SearchPlan, *,
               early_exit: bool, label: str, k: int = 0):
    """One level of w-subsets in lexicographic order: exhaustive, or with
    early exit at the first dependent subset.

    With k > 0 the level scans only the subsets that contain the columns
    0 .. k'-1, k' = min(k, w), which are the lexicographically first
    C(nu-k', w-k').  The caller must have proved, by column_orbit_prefix,
    that every w-subset maps onto one of them under a symmetry of H, so
    the hits meet every orbit of dependent sets (restriction "orbit:k'"),
    and an early-exit hit is the one the unrestricted scan stops at
    (restriction "none").  The frame of elim, a prefix of 0 .. k'-1,
    grows to all of them here (a column in the span of those before it
    stays out, and the first task reports it); every task starts from it.
    """
    nu, k = elim.ncols, min(k, w)
    start = time.perf_counter()
    while elim.frame < k and elim.push(elim.frame):
        elim.freeze()
    total = comb(nu - k, w - k)
    workers = plan.workers if total >= PARALLEL_MIN_CHECKS else 1
    tasks = _level_tasks(nu, k, w, plan.budget)
    hits, checked = _scan_columns(elim, w, tasks, early_exit, workers)

    # the budget truncated the scan and no early-exit hit settled the level
    capped = checked < total and not (early_exit and hits)
    if early_exit and hits:
        # deterministic count: every subset scanned up to and including
        # the leaf that produced the lexicographically first hit
        checked = _lex_rank(hits[0][:-1] + (nu - 1,), nu) + 1

    restriction = f"orbit:{k}" if k and not (early_exit and hits) else "none"
    record = StageRecord(label=label, w=w, restriction=restriction,
                         checked=checked, dependent_found=len(hits),
                         early_exit=early_exit, capped=capped,
                         seconds=time.perf_counter() - start)
    return record, hits


# ---------------------------------------------------------------------------
# Column symmetries
# ---------------------------------------------------------------------------

def _gl_generators(field: Field, n: int) -> list[np.ndarray]:
    """diag(g, 1, ..., 1), the cyclic coordinate shift, I + E_01,
    I + E_{n-1,0} and, for n >= 3, the cyclic shift of the first n-1
    coordinates.  They generate GL(n, q^t), whose projective image is
    2-transitive on the points of PG(n-1, q^t).  All but the full shift
    and, for n = 2, I + E_01 fix e_{n-1}, the point of column 0, and those
    generate a group transitive on the other points."""
    eye = np.eye(n, dtype=np.int64)
    diag, transvection, into_last, head_shift = (eye.copy() for _ in range(4))
    diag[0, 0] = field.generator
    transvection[0, 1] = 1
    into_last[n - 1, 0] = 1
    head_shift[:n - 1, :n - 1] = np.roll(eye[:n - 1, :n - 1], 1, axis=1)
    gens = [diag, np.roll(eye, 1, axis=1), transvection, into_last]
    return gens + [head_shift] if n >= 3 else gens


def _induced_permutation(code: Code, mats: np.ndarray):
    """(perms, scales), g x nu each, for a g x n x n stack of matrices M_i
    with M_i . points[j] = lead_ij . points[perms[i, j]]: perms[i, j] is
    -1 where M_i . points[j] is zero or not a listed point, and
    scales[i, j] = lead_ij ** norm.  Every basis monomial has total degree
    norm, so the embedding of M_i . points[j] is scales[i, j] times column
    perms[i, j] of H, and the basis need not be evaluated again."""
    field, ops = code.field, code.field.ops
    pts = np.asarray(code.variety.points, dtype=np.int64)
    terms = ops.mul[pts[None, :, None, :], mats[:, None, :, :]]
    img = terms[..., 0]
    for s in range(1, mats.shape[2]):
        img = ops.add[img, terms[..., s]]
    lead = np.take_along_axis(img, (img != 0).argmax(axis=2)[..., None],
                              axis=2)[..., 0]
    canon = ops.div[img, lead[..., None]]
    place = field.order ** np.arange(pts.shape[1] - 1, -1, -1,
                                     dtype=np.int64)
    keys, want = pts @ place, canon @ place  # keys ascend with the points
    perms = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    perms[(keys[perms] != want) | (lead == 0)] = -1
    # lead ** norm, the one monomial x^norm evaluated at each lead (0 -> 0)
    scales = field.eval_monomials(lead.reshape(-1, 1), [[code.twist.norm]])
    return perms, scales.reshape(lead.shape)


def _is_column_symmetry(code: Code, perms: np.ndarray,
                        scales: np.ndarray) -> bool:
    """True iff, for every candidate i, an invertible linear map sends
    column j of H to scales[i, j] times column perms[i, j], so that every
    column subset keeps its dependence.  One proof on H covers all:

    * each perms[i] is a bijection and no scale is zero, so each block
      images_i = D_i P_i H^T has rank(H) = effective_N (see build_code);
    * rank([H^T | images_0 | ... | images_{g-1}]) = effective_N puts
      every block in the column space of H^T: images_i = H^T B_i;
    * rank(images_i) = effective_N makes B_i invertible.

    The candidates come from _induced_permutation; nothing here relies
    on the embedding identity that produced them."""
    if not ((np.sort(perms, axis=1) == np.arange(code.nu)).all()
            and scales.all()):
        return False
    h_t = code.H.T
    images = code.field.ops.mul[scales[..., None], h_t[perms]]
    return rank(code.field, np.hstack([h_t, *images])) == code.effective_N


def _orbit(nu: int, start: int, perms: Sequence[np.ndarray]) -> np.ndarray:
    """Mask of the orbit of column `start` under the group the perms
    generate.  Each round adds to the whole mask its preimages under the
    perms (their inverses generate the same group) and under the next
    squared power p^(2^r) of each, so a long cycle is covered in log2
    rounds; the powers lie in the group, and the search stops once the
    perms themselves leave the mask unchanged."""
    seen = np.zeros(nu, dtype=bool)
    seen[start] = True
    powers = perms
    while True:
        size = np.count_nonzero(seen)
        for p in perms:
            seen |= seen[p]
        if np.count_nonzero(seen) == size:
            return seen
        powers = [q[q] for q in powers]
        for q in powers:
            seen |= seen[q]


def _orbit_prefix(nu: int, perms: Sequence[np.ndarray]) -> int:
    """The largest k such that, for every i < k, the perms that fix the
    columns 0 .. i-1 move column i onto all nu - i columns >= i: a
    stabiliser chain, each step one orbit search over the perms of the
    step before that fix column i-1.  Then any k distinct columns
    (a_0, ..., a_{k-1}) map onto (0, ..., k-1): a product of the first
    step's perms moves a_0 onto 0, one of the second step's moves the
    image of a_1 onto 1 while 0 stays put, and so on."""
    k = 0
    while k < nu and np.count_nonzero(_orbit(nu, k, perms)) == nu - k:
        perms = [p for p in perms if p[k] == k]
        k += 1
    return k


def column_orbit_prefix(code: Code) -> int:
    """Length k of the column prefix (0, ..., k-1) that every subset of
    k or more columns can be mapped onto by a verified symmetry of H.
    The generators are proved as one set, and used all or not at all:
    if _is_column_symmetry fails, k = 0 and the levels scan everything."""
    mats = np.stack(_gl_generators(code.field, code.variety.n))
    perms, scales = _induced_permutation(code, mats)
    if not _is_column_symmetry(code, perms, scales):
        return 0
    return _orbit_prefix(code.nu, list(perms))


# ---------------------------------------------------------------------------
# Exact minimum distance
# ---------------------------------------------------------------------------

def min_distance(code: Code, plan: Optional[SearchPlan] = None) -> CodeReport:
    """Exact minimum distance by one lexicographic scan per level (see
    the module docstring), or a proven lower bound.

    The returned report carries the per-level log; delta_exact is False
    when a budget cap stopped the search first (report.capped), or when
    no level up to plan.w_max holds a dependent set.
    """
    plan = plan or SearchPlan()
    n_eff = code.effective_N
    if code.nu <= n_eff:
        raise ValueError("code has dimension 0; minimum distance undefined")
    w_cap = n_eff + 1
    if plan.w_max is not None:
        if plan.w_max > w_cap:
            raise ValueError(f"w_max {plan.w_max} exceeds effective_N + 1 = {w_cap}")
        w_cap = plan.w_max

    report = CodeReport(
        field=code.field.describe(), n=code.variety.n,
        sigma_exponents=list(code.twist.exponents),
        q_fixed=code.twist.q_fixed, nu=code.nu, kappa=code.kappa,
        expected_N=code.variety.basis.expected_N, effective_N=n_eff,
        singleton_bound=code.nu - code.kappa + 1,
    )
    t0 = time.perf_counter()
    k = report.orbit_prefix = column_orbit_prefix(code)
    report.timings["symmetry"] = round(time.perf_counter() - t0, 6)
    d = code.twist.d
    elim = IncrementalElim(code.field, code.H)  # every level grows its frame
    for w in range(2, w_cap + 1):
        label = ("general-position" if w <= d + 1 else
                 "minimal-dependent" if w == d + 2 else "lex-search")
        record, hits = _run_level(elim, w, plan, early_exit=True,
                                  label=label, k=k)
        report.stage_log.append(record)
        report.timings[f"w{w}"] = round(record.seconds, 6)
        if hits:
            report.delta = w
            report.delta_exact = True
            report.delta_lower_bound = w
            witness = hits[0]
            report.witness = list(witness)
            report.witness_points = [list(code.variety.points[i])
                                     for i in witness]
            problem = _minimality_problem(code, witness)
            if problem:
                raise AssertionError(f"witness {witness} is not a minimal "
                                     f"dependent set: {problem}")
            break
        if record.capped:
            # level w not exhausted: only the bound from completed levels holds
            report.delta_lower_bound = w
            break
        report.delta_lower_bound = w + 1
    report.timings["total"] = round(time.perf_counter() - t0, 6)
    if report.delta_exact:
        report.status = mds_status(report)
    return report


def _minimality_problem(code: Code, subset: Sequence[int]) -> Optional[str]:
    """None if the columns `subset` of H are a minimal dependent set, else
    what is wrong.  Minimal means the kernel of H[:, subset] is
    one-dimensional and its vector has no zero entry: a zero at i would
    make the subset without i dependent."""
    kb = kernel_basis(code.field, code.H[:, list(subset)])
    if len(kb) != 1:
        return f"kernel dimension {len(kb)}"
    if not kb[0].all():
        return "kernel vector not fully supported"
    return None


def mds_status(report: CodeReport) -> str:
    """MDS / almost-MDS / other, from an exactly resolved distance."""
    if not report.delta_exact or report.delta is None:
        raise ValueError("status requires an exactly resolved minimum distance")
    singleton = report.nu - report.kappa + 1
    if report.delta == singleton:
        return "MDS"
    if report.delta == singleton - 1:
        return "almost-MDS"
    return "other"


# ---------------------------------------------------------------------------
# Minimum-weight support classification
# ---------------------------------------------------------------------------

def classification_scan(code: Code, report: CodeReport) -> tuple[int, int]:
    """(k', checks) of classify_min_words' scan: the C(nu-k', d+2-k')
    supersets of the columns 0 .. k'-1, k' = min(k, d+2) for the k that
    min_distance proved and stored in the report."""
    k = min(report.orbit_prefix, code.twist.d + 2)
    return k, comb(code.nu - k, code.twist.d + 2 - k)


def classify_min_words(code: Code, report: CodeReport,
                       plan: Optional[SearchPlan] = None) -> CodeReport:
    """Count the dependent (d+2)-subsets, find them (k' = 0) or the h
    through the columns 0 .. k'-1 (see classification_scan and the module
    docstring), and check all h in one on_common_subline pass: collinear
    pre-images on one PG(1, q') subline.  Records every violation, but
    lists only the lexicographically first SUPPORTS_LISTED supports; h is
    the classify record's dependent_found.  Over the budget, raises
    BudgetExceeded.

    Each listed support is a minimal dependent set without a check of its
    own.  The guard requires an exact delta = d+2, so every (d+1)-set of
    columns was proved independent; the scan proved each hit dependent
    past an independent (d+1)-prefix, so a hit has rank d+1 and a
    one-dimensional kernel, whose vector has no zero entry, since a zero
    would leave a dependent (d+1)-set."""
    start = time.perf_counter()
    plan = plan or SearchPlan()
    d = code.twist.d
    if report.delta != d + 2 or not report.delta_exact:
        raise ValueError(
            "support classification applies only when the exact minimum "
            "distance equals d + 2")
    k, cost = classification_scan(code, report)
    if cost > plan.budget:
        raise BudgetExceeded(
            f"classification needs {cost} checks, budget is {plan.budget}")
    record, hits = _run_level(IncrementalElim(code.field, code.H), d + 2,
                              plan, early_exit=False, label="classify", k=k)
    checks = time.perf_counter()

    cols = np.array(hits, dtype=np.int64).reshape(-1, d + 2)
    pts = np.asarray(code.variety.points, dtype=np.int64)[cols]
    collinear, on_sub = on_common_subline(code.field, pts,
                                          code.twist.q_fixed)
    violations = [{"columns": cols[i].tolist(), "problem": (
        "pre-images not on a common subline" if collinear[i]
        else "pre-images not collinear")}
        for i in np.flatnonzero(~on_sub).tolist()]
    listed = slice(SUPPORTS_LISTED)  # the true h is the record's dependent_found
    supports = [{"columns": subset, "points": row, "collinear": line,
                 "on_subline": sub}
                for subset, row, line, sub in zip(
                    cols[listed].tolist(), pts[listed].tolist(),
                    collinear[listed].tolist(), on_sub[listed].tolist())]
    # C(nu, k) k-sets in h supports each, C(d+2, k) per support
    count, rest = divmod(len(hits) * comb(code.nu, k), comb(d + 2, k))
    if rest:  # an invariant, checked also under python -O
        raise AssertionError("supports not spread evenly over k-sets")
    report.min_weight_support_count = count
    report.supports = supports
    report.violations = violations
    report.stage_log.append(record)
    report.timings.update(classify_scan=round(record.seconds, 6),
                          classify_check=round(time.perf_counter() - checks, 6),
                          classify=round(time.perf_counter() - start, 6))
    return report


def analyze(code: Code, plan: Optional[SearchPlan] = None) -> CodeReport:
    """The whole pipeline: min_distance, then classify_min_words when the
    distance is exactly d + 2 (over the budget, the count stays null)."""
    plan = plan or SearchPlan()
    report = min_distance(code, plan)
    if report.delta_exact and report.delta == code.twist.d + 2:
        with suppress(BudgetExceeded):
            report = classify_min_words(code, report, plan)
    return report


# ---------------------------------------------------------------------------
# Unstructured brute-force oracle
# ---------------------------------------------------------------------------

def _scalar_rank(field: Field, rows: list[list[int]]) -> int:
    """Plain Gaussian elimination with scalar field ops (oracle path)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rk = 0
    for c in range(ncols):
        piv = None
        for i in range(rk, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = field.inv(rows[rk][c])
        prow = [field.mul(inv, x) for x in rows[rk]]
        rows[rk] = prow
        for i in range(len(rows)):
            if i != rk and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(rows[i], prow)]
        rk += 1
    return rk


def oracle_min_distance(code: Code, w_max: Optional[int] = None,
                        max_checks: int = DEFAULT_ORACLE_CAP):
    """Smallest dependent column-subset size by plain enumeration.

    No geometric restriction, no staging, no shared elimination state:
    every subset is rank-checked from scratch.  Returns (delta, witness);
    delta is None if no dependent subset exists up to w_max.
    """
    n_eff = code.effective_N
    w_cap = min(w_max or n_eff + 1, n_eff + 1, code.nu)
    total = sum(comb(code.nu, w) for w in range(2, w_cap + 1))
    if total > max_checks:
        raise BudgetExceeded(
            f"oracle would enumerate {total} subsets, cap is {max_checks}")
    field = code.field
    hdata = code.H.tolist()
    for w in range(2, w_cap + 1):
        for subset in combinations(range(code.nu), w):
            sub = [[row[c] for c in subset] for row in hdata]
            if _scalar_rank(field, sub) < w:
                return w, subset
    return None, None


# ---------------------------------------------------------------------------
# Verification entry points
# ---------------------------------------------------------------------------

@dataclass
class GeneralPositionResult:
    ok: bool
    k: int
    checked: int
    witness: Optional[tuple] = None


def _settled(report: CodeReport) -> CodeReport:
    """The report, unless a budget cap left a level unsettled."""
    if report.capped:
        level = next(s for s in report.stage_log if s.capped)
        raise BudgetExceeded(
            f"level w={level.w} was cut off by the budget after "
            f"{level.checked} checks; only delta >= "
            f"{report.delta_lower_bound} is proven; raise the budget "
            "explicitly to proceed")
    return report


def verify_general_position(code: Code, k: int,
                            plan: Optional[SearchPlan] = None) -> GeneralPositionResult:
    """Test every k-subset of columns for independence: min_distance up
    to w_max = k.

    Returns ok=True, or ok=False with the lexicographically first
    dependent k-subset as witness.  Raises BudgetExceeded when a level
    was capped before it was settled.
    """
    plan = plan or SearchPlan()
    if not 2 <= k <= code.effective_N + 1:
        raise ValueError(f"k = {k} is outside [2, effective_N + 1]")
    report = _settled(min_distance(code, replace(plan, w_max=k)))
    if report.delta is None:
        return GeneralPositionResult(True, k, report.stage_log[-1].checked)
    if report.delta < k:  # level k never ran, so no k-subset was checked
        return GeneralPositionResult(False, k, 0, _lex_first_dependent(code, k))
    return GeneralPositionResult(False, k, report.stage_log[-1].checked,
                                 tuple(report.witness))


def _lex_first_dependent(code: Code, k: int) -> tuple:
    """Direct lex scan; only called when a dependent k-subset must exist."""
    for subset in combinations(range(code.nu), k):
        if not is_independent(code.field, code.H, subset):
            return subset
    raise AssertionError("no dependent subset found where one was implied")


def verify_oracle_equivalence(code: Code, plan: Optional[SearchPlan] = None,
                              max_checks: int = DEFAULT_ORACLE_CAP):
    """Search and brute-force oracle must agree exactly: on delta and on
    the lexicographically first dependent set.  A capped search raises
    BudgetExceeded."""
    report = _settled(min_distance(code, plan))
    oracle_delta, oracle_witness = oracle_min_distance(code,
                                                       max_checks=max_checks)
    ok = (report.delta_exact and report.delta == oracle_delta
          and report.witness == list(oracle_witness))
    return ok, report.delta, oracle_delta


def verify_dep_classification(code: Code, plan: Optional[SearchPlan] = None):
    """Run the search plus classification; pass iff no violations.  A
    capped search raises BudgetExceeded."""
    report = _settled(min_distance(code, plan))
    if report.delta != code.twist.d + 2:
        return False, report, "minimum distance is not d + 2"
    report = classify_min_words(code, report, plan)
    if report.violations:
        return False, report, f"{len(report.violations)} support violations"
    return True, report, None
