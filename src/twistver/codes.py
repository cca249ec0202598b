"""Linear codes from embedded point sets: exact parameters, dependent-set
search, and minimum-weight support classification.

The parity-check matrix H has one column per embedded point, in the fixed
point-enumeration order: the table of embedded points, row-reduced once
by build_code to systematic form, H[:, P] = I for its pivot columns P.
It has the kernel of the table, so the same code and the same dependent
column sets.  The minimum distance equals the size of the smallest
linearly dependent column subset.  min_distance runs one search
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
a column subset is dependent exactly when its image is.  The points
and the action of the generators on them do not depend on sigma:
pg.space(p, m, n), built once per process, reads each generator M of
pg._gl_generators off the point list as a column permutation with
leads, M v_j = lead_j v_perm(j), and runs the stabiliser chain of those
permutations for k.  column_orbit_prefix adds what is this code's: the
per-column scales lead^norm (every basis monomial has degree norm) and
one certificate product, _is_column_symmetry, which proves the set on
every call: the permuted and scaled H, X_i, equals A_i H with
A_i = X_i[:, P], so the invertible A_i moves the columns as claimed;
nothing rests on the identity above or on the cache, and H is not
eliminated again.  If the test fails, k = 0 and no level is reduced.
Otherwise k is the space's: the largest k such that, for every i < k,
the permutations that fix columns 0 .. i-1 move column i onto every
column >= i, so any k distinct columns map onto (0, ..., k-1).  On a
line (n = 2) PGL(2, q^t) is 3-transitive and k = 3 (more on the tiniest
fields); for n >= 3 the generators that fix columns 0 and 1 fix column 2
too, and the chain stops at 2.

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

Only the first reason rests on the symmetries, so min_distance proves
them only when a level ends without a hit.  Until then a level runs at
the space's k, and whatever k' it runs at, a hit, its witness and its
check count are those of the full scan.  The first level that ends
empty or capped runs the proof; if the certificate fails (k = 0), that
level is scanned again unreduced from a fresh elimination, so every
logged row is the one the proved k gives.  The report keeps k as
orbit_prefix, null when no conclusion used the symmetries;
classification_scan proves k the same way when the search did not.

Singer-cyclic bound.  Let Q = p^m be the field order, so that
nu = (Q^n - 1)/(Q - 1).  The points of PG(n-1, Q) are the classes of
omega^i, i < nu, for omega primitive in GF(Q^n) (J. Singer, Trans. AMS
43, 1938).  Over a GF(Q)-basis of GF(Q^n), each coordinate of x is a
trace, a sum of constants times x^(Q^l), l < n, and x -> x^(p^s) is
additive, so each basis monomial is a GF(Q^n)-combination of the
characters x^e, e = sum_j p^s_j Q^l_j, the base-Q number whose digits
are a monomial's exponent vector: one e per monomial (see singer_zeros),
so the two spans are equal.  Write
e = norm + (Q - 1) f; then (omega^i)^e = (omega^i)^norm z^(i f) for
z = omega^(Q-1), of order nu.  Let column c hold the point
lambda_c omega^i(c), lambda_c in GF(Q)^*.  A codeword x, moved to
position i(c) and rescaled to x_c lambda_c^norm (omega^i(c))^norm,
keeps its weight and is a word of the cyclic code of length nu over
GF(Q^n) whose zeros are z^f for every f in F.  The BCH bound
(MacWilliams and Sloane 1977, ch. 7) on F gives
b = cyclic_bound(basis): every dependent set has at least b columns.
F depends only on (p, m, n, sigma), so b costs integer arithmetic, no
field and no matrix.  No run-time certificate checks it, since Field
models no GF(Q) inside GF(Q^n); the tests check b <= delta against the
oracle and the unreduced scan.  min_distance, its one caller, stores b
in the report as cyclic_bound, logs the levels 2 .. b-1 with restriction
"bch:b" and 0 subsets checked, starts the scan at level b, and records
the bound's seconds in timings["bound"], outside the hash.  A search
with no level from b on, or whose level b hits, proves no symmetries.
On nrc-27, GF(27), n = 2, sigma = (0,0,1), b = 7 = effective_N + 1, and
the first leaf of level 7 holds the witness (0, ..., 6), found without
the symmetries:

    general-position   w=2..4  bch:7  checked 0
    minimal-dependent  w=5     bch:7  checked 0
    lex-search         w=6     bch:7  checked 0
    lex-search         w=7     none   checked 22  dependent 1

The subline structure is an output, not a shortcut: classify_min_words
finds the h supports through the columns 0 .. k'-1, k' = min(k, d+2)
(all of them if k = 0) as runs of the scan, counts h C(nu, k') /
C(d+2, k') by double counting, since every k'-set of columns lies in h,
and checks all h for collinear pre-images on a common PG(1, q') subline
in one pg.on_common_subline call over each run's star (see
classify_min_words); the scalar pg geometry serves only as its reference
in the tests.  The proved symmetries come from matrices, which map
sublines to sublines, so the h speak for all.

Each level walks a depth-first tree of independent column prefixes in
one incremental elimination per min_distance call (a second one for the
rescan at the proved k, if any), whose frame holds the columns
0 .. k'-1: each is pushed once, a level w = k' <= k is the frame's one
subset, and every later level and task starts from it.  A task is a run
of the frame's children c in range(lo, hi), covering the w-subsets
through the frame and c.  With one or two columns left after
the frame, the level is one task and one call: split_extensions
classifies every remaining column as in-span or independent, and
pair_groups every pair of them as dependent or not.  With three, a task
is a run of 1, 2, 4, ... children, whose 2-extensions pair_groups
classifies at once without pushing them, so an early hit costs about as
much as the scan before it.  With more, a task is one child, and one
walk pushes it and the columns below it down to the nodes with three
columns left, whose children pair_groups settles in runs that double in
length from 1 along the task.  A level of C(nu, w) subsets thus pushes
only prefixes of w-3 columns or fewer.

Everything is deterministic: the tasks are read back in lexicographic
order, whether this process or a forked worker ran them (see
_scan_columns), only the last, cut at the budget, has a cap, and
reported check counts are closed-form, so a report is bit-identical for
any worker count.

An unstructured brute-force oracle cross-validates the search on small
codes: the same delta and the same lexicographically first witness.  Its
one level scan, _first_dependent, enumerates the w-subsets in
lexicographic order and rank-checks each from scratch with scalar
arithmetic on the raw point table, not H: no staging, no symmetry, no
shared elimination.  verify_general_position calls the same scan, under
the plan's budget, for a witness at a level the search never ran.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass, field as dc_field, fields, replace
from heapq import merge
from itertools import combinations, islice
from math import comb, gcd
from multiprocessing import get_context
from operator import mul
from typing import Optional, Sequence

import numpy as np

from .ff import Field
from .linalg import IncrementalElim, kernel_basis, matmul, systematic_form
from .pg import on_common_subline, space
from .veronese import MonomialBasis, Twist, VarietyMatrix

PARALLEL_MIN_CHECKS = 200_000  # below this workers cost more than they save
LEAF_ENTRIES = 1 << 18  # reduced entries per batched pair_groups call
SUPPORTS_LISTED = 1_000  # lex-first supports a report lists; all are checked
DEFAULT_BUDGET = 100_000_000
DEFAULT_ORACLE_CAP = 2_000_000


class DependencyInvariantError(RuntimeError):
    """A dependent subset smaller than the current level was encountered.

    The levels below are ruled out either by an exhaustive scan or, below
    cyclic_bound, by the BCH bound alone without a scan, so seeing one
    means a bug; the search must not continue silently.  It is also the
    only run-time sign that the bound was wrong.
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
    """A linear code handled entirely through its parity-check matrix H,
    the variety's point table in systematic form; build_code makes it.
    Length nu is the number of points, dimension kappa = nu - effective_N."""

    variety: VarietyMatrix
    H: np.ndarray      # effective_N x nu, the point table in systematic form
    pivots: np.ndarray  # the columns P with H[:, P] = I

    @property
    def nu(self) -> int:
        return self.variety.num_points

    @property
    def kappa(self) -> int:
        return self.nu - self.effective_N

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
    """The code whose parity-check matrix H is the variety's point table
    reduced to systematic form: the same row space, so the same kernel and
    the same dependent column sets.  This is the one reduction of the
    table; a table of rank below effective_N is refused."""
    H, pivots = systematic_form(variety.field, variety.coords.T)
    n_eff = variety.basis.effective_N
    if len(pivots) != n_eff:
        raise ValueError(
            f"point table has rank {len(pivots)}, expected {n_eff}; "
            "the check matrix would be rank deficient")
    return Code(variety=variety, H=H, pivots=pivots)


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
        """Every field except the seconds."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "seconds"}


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
    cyclic_bound: int
    orbit_prefix: Optional[int] = None  # None: no conclusion used it
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
        """Canonical content: everything except the timings (the timings
        dict and each stage's seconds) and the hash."""
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
        out["stage_log"] = [{**s.payload(), "seconds": round(s.seconds, 6)}
                            for s in self.stage_log]
        out["timings"] = self.timings
        out["canonical_hash"] = self.canonical_hash()
        return out


# ---------------------------------------------------------------------------
# Level scan: all w-subsets via independent (w-1)-prefixes
# ---------------------------------------------------------------------------

def _through(nu: int, r: int, a: int, b: int) -> int:
    """Number of r-subsets of range(nu) whose least column lies in
    range(a, b): the subsets through the children a .. b-1."""
    return comb(nu - a, r) - comb(nu - b, r)


def _lex_rank(subset: Sequence[int], nu: int) -> int:
    """Number of |subset|-subsets of range(nu) strictly lex-before subset:
    at each position i, those that agree before i and hold a smaller
    column at i."""
    return sum(_through(nu, len(subset) - i, prev + 1, s) for i, (prev, s)
               in enumerate(zip((-1, *subset), subset)))


def _subsets(runs, w: int):
    """The w-subsets of the runs (base, group), in lexicographic order:
    each base plus any w - |base| columns of its ascending group."""
    return merge(*(map(base.__add__, combinations(g, w - len(base)))
                   for base, g in runs))


def _scan_subtree(elim: IncrementalElim, w: int,
                  task: tuple[int, int, Optional[int]], early_exit: bool):
    """Scan one task (lo, hi, cap) of a level (see _level_tasks) from the
    frame.  Returns the runs of dependent w-subsets found (see _subsets;
    only the first subset with early exit) and the number of w-subsets
    covered; a cap stops the scan once that many are covered, and a
    vectorized leaf is covered whole.
    With one or two columns left after the frame, the task is one
    split_extensions or pair_groups call; with three, leaves settles the
    children before the first one in the frame's span as one run; with
    more, walk pushes each child and recurses down to the nodes with
    three left, whose children leaves settles in runs that double in
    length from 1 along the whole task.
    A dependent subset smaller than w raises DependencyInvariantError.
    """
    lo, hi, cap = task
    ncols, left = elim.ncols, w - elim.frame
    prefix = list(range(elim.frame))
    runs: list[tuple[tuple[int, ...], list[int]]] = []
    checked, run = 0, 1  # run: children per pair_groups call
    push, pop, split, pairs = (elim.push, elim.pop, elim.split_extensions,
                               elim.pair_groups)
    area = max(1, LEAF_ENTRIES // elim.rows)  # children x width per call

    def leaves(lo: int, hi: int) -> bool:
        """The 2-extensions of prefix + (c,) for the children c in
        range(lo, hi), each outside the span of prefix; True once the cap
        is reached."""
        nonlocal checked, run
        if cap is not None:  # the child whose subsets reach the cap is last
            hi = min(hi, lo + 1 + bisect_left(
                range(lo, hi), cap - checked,
                key=lambda c: _through(ncols, 3, lo, c + 1)))
        base = tuple(prefix)
        while lo < hi:
            stop = min(hi, lo + max(1, min(run, area // max(1, ncols - lo))))
            dead, groups = pairs(range(lo, stop))
            bad = np.flatnonzero(dead >= 0)
            first = int(bad[0]) if bad.size else stop - lo
            if early_exit and groups and groups[0][0] < first:
                i, g = groups[0]
                checked += _through(ncols, 3, lo, lo + i + 1)
                runs.append((base + (lo + i,), g[:2]))
                return True
            if bad.size:
                raise DependencyInvariantError(
                    base + (lo + first, int(dead[first])))
            checked += _through(ncols, 3, lo, stop)
            runs.extend((base + (lo + i,), g) for i, g in groups)
            lo, run = stop, 2 * run
        return cap is not None and checked >= cap

    def walk(children, left: int) -> bool:
        """Push each child in turn, left >= 4 columns to choose with it,
        and scan below it; True once the scan stops."""
        for c in children:
            if not push(c):
                raise DependencyInvariantError((*prefix, c))
            prefix.append(c)
            deps, _ = split()
            if deps.size:
                raise DependencyInvariantError((*prefix, int(deps[0])))
            # no column right of c is in the span: all are children
            stop = (leaves(c + 1, ncols) if left == 4
                    else walk(range(c + 1, ncols), left - 1))
            prefix.pop()
            pop()
            if stop:
                return True
        return False

    try:
        if left == 1:
            deps, indeps = split()
            checked = deps.size + indeps.size
            if early_exit:
                deps = deps[:1]
            runs = [(tuple(prefix), deps.tolist())] if deps.size else []
        elif left == 2:
            (dead,), groups = pairs()
            if dead >= 0:
                raise DependencyInvariantError((*prefix, int(dead)))
            checked = comb(ncols - lo, 2)
            if early_exit:
                groups = [(i, g[:2]) for i, g in groups[:1]]
            runs = [(tuple(prefix), g) for _, g in groups]
        elif left == 3:
            deps, _ = split()
            deps = deps[(deps >= lo) & (deps < hi)]  # children in the span
            run = ncols  # the task is one run
            if not leaves(lo, int(deps[0]) if deps.size else hi) and deps.size:
                raise DependencyInvariantError((*prefix, int(deps[0])))
        else:
            walk(range(lo, hi), left)
    finally:
        elim.reset()
    return runs, checked


def _level_tasks(nu: int, k: int, w: int, budget: int):
    """(lo, hi, cap) tasks, in lexicographic order: the w-subsets of
    range(nu) through range(k) + (c,) for c in range(lo, hi).  The tasks
    tile range(k, nu - left + 1), left = w - k, and cover at least the
    lexicographically first `budget` of the C(nu - k, left) supersets of
    range(k).  With at most two columns left, one task is the level,
    one vectorized scan whatever the budget.  With three, a task is a
    run of 1, 2, 4, ... next columns, which pair_groups settles at once;
    with more, it is one next column, so that the workers get many
    subtrees to balance.  Only the last task, cut at the budget, has a
    cap: the budget left for it."""
    left, end = w - k, nu - (w - k) + 1
    if left <= 2:
        return [(k, end, None)]
    tasks: list[tuple[int, int, Optional[int]]] = []
    lo, length = k, 1
    while lo < end and budget > 0:
        hi = min(lo + length, end) if left == 3 else lo + 1
        count = _through(nu, left, lo, hi)
        tasks.append((lo, hi, budget if count > budget else None))
        budget -= count
        lo, length = hi, 2 * length
    return tasks


def usable_cpus() -> int:
    """The CPUs this process may run on, which a container can limit
    below the machine's count; the machine's count where the OS has no
    affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerTraceback(Exception):
    """The formatted traceback of an error a search worker sent: the
    cause of that error when it is raised again in this process."""


def _serve(elim, w: int, early_exit: bool, tasks, conn) -> None:
    """A forked worker: the _scan_subtree result of each task in order,
    or the exception that stopped it with its formatted traceback, sent
    down conn."""
    try:
        for task in tasks:
            conn.send(_scan_subtree(elim, w, task, early_exit))
    except Exception as err:
        conn.send((err, traceback.format_exc()))


def _scan_columns(elim: IncrementalElim, w: int,
                  tasks: list[tuple[int, int, Optional[int]]],
                  early_exit: bool, workers: int):
    """Scan the tasks' subtrees in lexicographic task order: the first in
    this process and, with workers > 1, the rest in size = min(workers,
    tasks left, usable_cpus()) forked workers, which inherit elim and its
    frame.  Worker i sends the results of rest[i::size] down its own
    pipe, read back in task order.  Early exit stops at the first task
    with a hit, which lex-dominates every later one, so a level whose
    first task hits starts no worker.  Killing the workers when the level
    ends is safe at any moment: none shares a lock with this process.
    A worker's error is raised here from a WorkerTraceback of its stack.
    Returns the sorted runs of hits (in a level all share |base|, so the
    first holds the lex-first hit) and the number of w-subsets covered."""
    hits, covered, pool = [], 0, []  # (receive end, process) per worker
    try:
        for j, task in enumerate(tasks):
            if j == 1 and workers > 1:
                ctx = get_context("fork")
                size = min(workers, len(tasks) - 1, usable_cpus())
                for i in range(size):
                    recv, send = ctx.Pipe(duplex=False)
                    proc = ctx.Process(target=_serve, daemon=True, args=(
                        elim, w, early_exit, tasks[1 + i::size], send))
                    proc.start()
                    pool.append((recv, proc))
                    # closed before the next fork, so that no other
                    # process holds it: a dead worker's pipe reports EOF
                    send.close()
            if not pool:
                result = _scan_subtree(elim, w, task, early_exit)
            else:
                recv, proc = pool[(j - 1) % len(pool)]
                try:
                    result = recv.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(f"a search worker died with exit "
                                       f"code {proc.exitcode}") from None
                if isinstance(result[0], Exception):
                    raise result[0] from WorkerTraceback(result[1])
            task_hits, checked = result
            hits += task_hits
            covered += checked
            if early_exit and task_hits:
                break
    finally:
        for recv, proc in pool:
            proc.kill()
            proc.join()
            recv.close()
    return sorted(hits), covered


def _run_level(elim: IncrementalElim, w: int, plan: SearchPlan, *,
               early_exit: bool, label: str, k: int = 0):
    """One level of w-subsets in lexicographic order: exhaustive, or with
    early exit at the first dependent subset.

    With k > 0 the level scans only the subsets that contain the columns
    0 .. k'-1, k' = min(k, w), which are the lexicographically first
    C(nu-k', w-k'), so an early-exit hit is the one the unrestricted scan
    stops at (restriction "none"), whatever k is.  A level that ends
    without one (restriction "orbit:k'") stands only once the caller has
    proved, by column_orbit_prefix, that every w-subset maps onto one of
    them under a symmetry of H, so that the hits meet every orbit of
    dependent sets.  The frame of elim, a prefix of 0 .. k'-1, grows to
    all of them here, and every task starts from it.  A level
    w = k' is the frame's one subset.  A frame column f in the span of
    those before it stays out: range(f + 1) is then the hit at
    w = f + 1, and larger levels raise DependencyInvariantError.
    Returns the record and the sorted runs (base, group) of the hits (see
    _subsets); dependent_found counts their subsets.
    """
    nu, k = elim.ncols, min(k, w)
    start = time.perf_counter()
    while elim.frame < k and elim.push(elim.frame):
        elim.freeze()
    if elim.frame < k and elim.frame + 1 < w:
        raise DependencyInvariantError(range(elim.frame + 1))
    total = comb(nu - k, w - k)
    if k == w:  # the frame's subset, as a run
        hits = [(tuple(range(w - 1)), [w - 1])] if elim.frame < w else []
        checked = 1
    else:
        workers = plan.workers if total >= PARALLEL_MIN_CHECKS else 1
        tasks = _level_tasks(nu, k, w, plan.budget)
        hits, checked = _scan_columns(elim, w, tasks, early_exit, workers)

    # the budget truncated the scan and no early-exit hit settled the level
    capped = checked < total and not (early_exit and hits)
    if early_exit and hits:
        # deterministic count: every subset scanned up to and including
        # the leaf that produced the lexicographically first hit
        first = next(_subsets(hits, w))
        checked = _lex_rank(first[:-1] + (nu - 1,), nu) + 1

    restriction = f"orbit:{k}" if k and not (early_exit and hits) else "none"
    found = sum(comb(len(g), w - len(base)) for base, g in hits)
    record = StageRecord(label=label, w=w, restriction=restriction,
                         checked=checked, dependent_found=found,
                         early_exit=early_exit, capped=capped,
                         seconds=time.perf_counter() - start)
    return record, hits


# ---------------------------------------------------------------------------
# Column symmetries
# ---------------------------------------------------------------------------

def _is_column_symmetry(code: Code, perms: np.ndarray,
                        scales: np.ndarray) -> bool:
    """True iff, for every candidate i, an invertible linear map sends
    column j of H to scales[i, j] times column perms[i, j], so that every
    column subset keeps its dependence.  One certificate covers all:

    * each perms[i] is a bijection and no scale is zero, so each
      X_i = H[:, perms[i]] diag(scales[i]) has rank(H) = effective_N
      (see build_code);
    * one product checks X_i = A_i H for A_i = X_i[:, P], so A_i sends
      column j to scales[i, j] times column perms[i, j];
    * rank(X_i) = effective_N makes the N x N matrix A_i invertible.

    That is sound for any H and P, and complete because H[:, P] = I: a
    row x lies in the row space of H exactly when x = x[P] H.  The
    candidates come from pg.space's point action; nothing here relies on
    the embedding identity that produced them."""
    if not ((np.sort(perms, axis=1) == np.arange(code.nu)).all()
            and scales.all()):
        return False
    ops, h = code.field.ops, code.H
    images = ops.mul[scales[:, None], h[:, perms].swapaxes(0, 1)]
    coef = images[:, :, code.pivots]  # A_i, g x N x N
    return bool((matmul(code.field, coef, h) == images).all())


def _proved_prefix(code: Code, report: CodeReport) -> int:
    """The report's orbit_prefix, proved by column_orbit_prefix and stored
    with its seconds in timings["symmetry"] the first time it is needed."""
    if report.orbit_prefix is None:
        start = time.perf_counter()
        report.orbit_prefix = column_orbit_prefix(code)
        report.timings["symmetry"] = round(time.perf_counter() - start, 6)
    return report.orbit_prefix


def column_orbit_prefix(code: Code) -> int:
    """Length k of the column prefix (0, ..., k-1) that every subset of
    k or more columns can be mapped onto by a verified symmetry of H.
    The point permutations, their leads and the chain length k come from
    the code's pg.space, shared by every twist of that field and n; only
    the scales lead^norm and the certificate are this code's.  The
    generators are proved as one set, on every call, and used all or not
    at all: if _is_column_symmetry fails, k = 0 and the levels scan
    everything."""
    action = space(code.field.p, code.field.m, code.variety.n)
    scales = code.field.pow(action.leads, code.twist.norm)  # 0 at a 0 lead
    if not _is_column_symmetry(code, action.perms, scales):
        return 0
    return action.k


# ---------------------------------------------------------------------------
# Singer-cyclic bound
# ---------------------------------------------------------------------------

def singer_zeros(basis: MonomialBasis) -> set[int]:
    """F, the zeros of the Singer-cyclic code that holds every codeword of
    the code of the basis, rescaled entrywise (see the module docstring):
    f = sum_l e_l (Q^l - 1)/(Q - 1) = (e - norm)/(Q - 1) for the exponent
    vector (e_0, ..., e_{n-1}) of each basis monomial, read as the base-Q
    number e = sum_l e_l Q^l.  Its digits sum to norm < Q and n >= 2, so
    e < Q^n - 1 and f < nu, and distinct monomials give distinct f:
    |F| = effective_N."""
    big = basis.twist.p ** basis.twist.m
    repunits = [(big ** l - 1) // (big - 1) for l in range(basis.n)]
    return {sum(map(mul, e, repunits)) for e in basis.monomials}


def cyclic_bound(basis: MonomialBasis) -> int:
    """The BCH bound of the Singer-cyclic code (MacWilliams and Sloane,
    ch. 7): 1 + the longest run f, f+s, ..., f+(L-1)s mod nu inside
    F = singer_zeros(basis) with gcd(s, nu) = 1.  Every dependent set
    of columns has at least this many.  A run of two or more starts at a
    pair a, b of F, with a - s outside F for s = b - a, so each run is
    walked once and the work is O(|F|^2) integer operations."""
    zeros = singer_zeros(basis)
    big = basis.twist.p ** basis.twist.m
    nu = (big ** basis.n - 1) // (big - 1)
    longest = 1
    for a in zeros:
        for b in zeros:  # the run with step b - a through a, b
            step = (b - a) % nu
            if (a - step) % nu in zeros or gcd(step, nu) != 1:
                continue  # a is not its first zero, or a == b
            run, c = 2, b
            while (c := (c + step) % nu) in zeros:
                run += 1
            longest = max(longest, run)
    return 1 + longest


# ---------------------------------------------------------------------------
# Exact minimum distance
# ---------------------------------------------------------------------------

def min_distance(code: Code, plan: Optional[SearchPlan] = None) -> CodeReport:
    """Exact minimum distance by one lexicographic scan per level (see
    the module docstring), or a proven lower bound.

    The levels below the report's cyclic_bound b are proved empty
    without a scan (restriction "bch:b", 0 subsets checked), so the scan
    starts at level b, and delta_lower_bound is at least b.

    A level runs at the orbit prefix k of the code's pg.space until one
    is proved: a hit does not depend on k.  The first level that ends
    without a hit proves k (column_orbit_prefix, stored as orbit_prefix,
    its seconds in timings["symmetry"]) and, if the certificate failed
    (k = 0), scans that level again unreduced from a fresh elimination.
    A search that ends on a hit at its first scanned level, or scans
    none, leaves orbit_prefix null.

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

    t0 = time.perf_counter()
    bound, d = cyclic_bound(code.variety.basis), code.twist.d
    bound_s = round(time.perf_counter() - t0, 6)
    report = CodeReport(
        field=code.field.describe(), n=code.variety.n,
        sigma_exponents=list(code.twist.exponents),
        q_fixed=code.twist.q_fixed, nu=code.nu, kappa=code.kappa,
        expected_N=code.variety.basis.expected_N, effective_N=n_eff,
        singleton_bound=code.nu - code.kappa + 1,
        cyclic_bound=bound, timings={"bound": bound_s},
    )
    elim = IncrementalElim(code.field, code.H)  # every level grows its frame
    # the space's k until the symmetries are proved
    k = space(code.field.p, code.field.m, code.variety.n).k
    for w in range(2, w_cap + 1):
        label = ("general-position" if w <= d + 1 else
                 "minimal-dependent" if w == d + 2 else "lex-search")
        if w < bound:
            record, hits = StageRecord(
                label=label, w=w, restriction=f"bch:{bound}", checked=0,
                dependent_found=0, early_exit=True, capped=False), []
        else:
            record, hits = _run_level(elim, w, plan, early_exit=True,
                                      label=label, k=k)
            if not hits and report.orbit_prefix is None:
                proved = _proved_prefix(code, report)
                if proved != k:  # the certificate failed: rescan unreduced
                    elim = IncrementalElim(code.field, code.H)
                    record, hits = _run_level(elim, w, plan, early_exit=True,
                                              label=label, k=proved)
                k = proved
        report.stage_log.append(record)
        if hits:
            report.delta = w
            report.delta_exact = True
            report.delta_lower_bound = w
            witness = next(_subsets(hits, w))
            report.witness = list(witness)
            report.witness_points = code.variety.point_array[
                list(witness)].tolist()
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
    # above a w_max below the bound, the bound is the stronger proof
    report.delta_lower_bound = max(report.delta_lower_bound, bound)
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
    if report.delta == report.singleton_bound:
        return "MDS"
    if report.delta == report.singleton_bound - 1:
        return "almost-MDS"
    return "other"


# ---------------------------------------------------------------------------
# Minimum-weight support classification
# ---------------------------------------------------------------------------

def classification_scan(code: Code, report: CodeReport) -> tuple[int, int]:
    """(k', checks) of classify_min_words' scan: the C(nu-k', d+2-k')
    supersets of the columns 0 .. k'-1, k' = min(k, d+2) for the k stored
    in the report.  Every count rests on the symmetries, so when the
    search proved none (its first scanned level hit), k is proved here
    and stored in the report with its seconds, as min_distance would."""
    k = min(_proved_prefix(code, report), code.twist.d + 2)
    return k, comb(code.nu - k, code.twist.d + 2 - k)


def classify_min_words(code: Code, report: CodeReport,
                       plan: Optional[SearchPlan] = None) -> CodeReport:
    """Count the dependent (d+2)-subsets, find them (k' = 0) or the h
    through the columns 0 .. k'-1 (see classification_scan and the module
    docstring) as runs (base, group), and check all h with
    on_common_subline: collinear pre-images on one PG(1, q') subline.
    Records every violation, but lists only the lexicographically first
    SUPPORTS_LISTED supports; h is the classify record's dependent_found.
    Over the budget, raises BudgetExceeded.

    A run's supports are base plus any r = d+2 - |base| columns of g.
    Its star rows, base + g[:r-1] + (x,) for x in g[r-1:], are supports,
    and all its supports lie on one subline iff all star rows do: with
    |base| >= 3 the base fixes the subline, with |base| = 2 the star
    forces one coset of GF(q')^*, and else d+2 = 3, so d = 1 and q' = Q,
    where only collinearity counts.  So one call over the star rows and
    the listed supports checks every k', 0 included; only a run with a
    failing star row is expanded and checked support by support.

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
    w, points = d + 2, code.variety.point_array
    record, runs = _run_level(IncrementalElim(code.field, code.H), w, plan,
                              early_exit=False, label="classify", k=k)
    checks = time.perf_counter()

    def check(subsets):
        cols = np.array(subsets, dtype=np.int64).reshape(-1, w)
        return (cols, *on_common_subline(code.field, points[cols],
                                         code.twist.q_fixed))

    rs = [w - len(base) for base, _ in runs]
    star = [base + tuple(g[:r - 1]) + (x,)
            for (base, g), r in zip(runs, rs) for x in g[r - 1:]]
    cols, collinear, on_sub = check(
        star + list(islice(_subsets(runs, w), SUPPORTS_LISTED)))
    violations, listed = [], slice(len(star), None)
    if not on_sub[:len(star)].all():  # check the failing runs' supports
        owner = np.repeat(np.arange(len(runs)),
                          [len(g) - r + 1 for (_, g), r in zip(runs, rs)])
        bad = [runs[i] for i in np.unique(owner[~on_sub[:len(star)]])]
        every, line, sub = check(list(_subsets(bad, w)))
        violations = [{"columns": every[i].tolist(), "problem": (
            "pre-images not on a common subline" if line[i]
            else "pre-images not collinear")}
            for i in np.flatnonzero(~sub).tolist()]
    supports = [{"columns": subset, "points": row, "collinear": line,
                 "on_subline": sub}
                for subset, row, line, sub in zip(
                    cols[listed].tolist(), points[cols[listed]].tolist(),
                    collinear[listed].tolist(), on_sub[listed].tolist())]
    # C(nu, k) k-sets in h supports each, C(d+2, k) per support
    count, rest = divmod(record.dependent_found * comb(code.nu, k),
                         comb(w, k))
    if rest:  # an invariant, checked also under python -O
        raise AssertionError("supports not spread evenly over k-sets")
    report.min_weight_support_count = count
    report.supports = supports
    report.violations = violations
    report.stage_log.append(record)
    report.timings.update(
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


def _first_dependent(code: Code, w: int, limit: int) -> Optional[tuple]:
    """The lexicographically first dependent w-subset of the columns, or
    None if every w-subset is independent, by plain enumeration: each
    subset is rank-checked from scratch with scalar arithmetic on the raw
    point table, variety.coords, never H.  It must stay that way: the
    oracle is worth something only while it shares no matrix, elimination
    or arithmetic path with the search it cross-checks.  Raises
    BudgetExceeded before ranking subset limit + 1."""
    table = code.variety.coords.T.tolist()
    for ranked, subset in enumerate(combinations(range(code.nu), w), 1):
        if ranked > limit:
            raise BudgetExceeded(
                f"no dependent {w}-subset among the first {limit} "
                "ranked; raise the budget explicitly to proceed")
        cols = [[row[c] for c in subset] for row in table]
        if _scalar_rank(code.field, cols) < w:
            return subset
    return None


def oracle_min_distance(code: Code):
    """Smallest dependent column-subset size by plain enumeration.

    No geometric restriction, no staging, no shared elimination state:
    one _first_dependent scan per level.  Returns (delta, witness); delta
    is None if no dependent subset exists.  Over DEFAULT_ORACLE_CAP
    subsets in all, raises BudgetExceeded before checking any.
    """
    w_cap = min(code.effective_N + 1, code.nu)
    total = sum(comb(code.nu, w) for w in range(2, w_cap + 1))
    if total > DEFAULT_ORACLE_CAP:
        raise BudgetExceeded(f"oracle would enumerate {total} subsets, "
                             f"cap is {DEFAULT_ORACLE_CAP}")
    for w in range(2, w_cap + 1):
        subset = _first_dependent(code, w, total)
        if subset is not None:
            return w, subset
    return None, None


# ---------------------------------------------------------------------------
# Verification entry points
# ---------------------------------------------------------------------------
# Each returns (ok, detail): detail holds exactly the fields that
# `twistver verify` prints for the property, beside "property" and "pass".

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
                            plan: Optional[SearchPlan] = None
                            ) -> tuple[bool, dict]:
    """Decide whether every k-subset of columns is independent:
    min_distance up to w_max = k.

    detail is {"k", "checked", "bound", "witness"}.  bound is the
    report's cyclic_bound b; levels below b are proved empty by the BCH
    bound, not scanned.  checked is the subsets level k checked: 0 when
    k < b (ok by the bound alone), and 0 when level k never ran.
    witness is None when ok, else the lexicographically first dependent
    k-subset as a list.  When level k never ran, it comes from the
    oracle's level scan, _first_dependent, on the point table.  Raises
    BudgetExceeded when a level was capped before it was settled, or
    when that scan needs more than plan.budget subsets ranked.
    """
    plan = plan or SearchPlan()
    if not 2 <= k <= code.effective_N + 1:
        raise ValueError(f"k = {k} is outside [2, effective_N + 1]")
    report = _settled(min_distance(code, replace(plan, w_max=k)))
    detail = {"k": k, "checked": report.stage_log[-1].checked,
              "bound": report.cyclic_bound, "witness": report.witness}
    if report.delta is not None and report.delta < k:
        witness = _first_dependent(code, k, plan.budget)
        if witness is None:
            raise AssertionError(
                "no dependent subset found where one was implied")
        detail.update(checked=0, witness=list(witness))
    return report.delta is None, detail


def verify_oracle_equivalence(code: Code, plan: Optional[SearchPlan] = None
                              ) -> tuple[bool, dict]:
    """Search and brute-force oracle must agree exactly: on delta and on
    the lexicographically first dependent set.  detail is
    {"staged_delta", "oracle_delta"}.  A capped search raises
    BudgetExceeded."""
    report = _settled(min_distance(code, plan))
    oracle_delta, oracle_witness = oracle_min_distance(code)
    ok = (report.delta_exact and report.delta == oracle_delta
          and report.witness == list(oracle_witness))
    return ok, {"staged_delta": report.delta, "oracle_delta": oracle_delta}


def verify_dep_classification(code: Code, plan: Optional[SearchPlan] = None
                              ) -> tuple[bool, dict]:
    """Run the search plus classification; pass iff delta = d + 2 and no
    support is a violation.  detail is {"delta", "supports",
    "violations", "reason"}, reason None on a pass.  A capped search
    raises BudgetExceeded."""
    report = _settled(min_distance(code, plan))
    reason = None
    if report.delta != code.twist.d + 2:
        reason = "minimum distance is not d + 2"
    else:
        report = classify_min_words(code, report, plan)
        if report.violations:
            reason = f"{len(report.violations)} support violations"
    return reason is None, {"delta": report.delta,
                            "supports": report.min_weight_support_count,
                            "violations": report.violations,
                            "reason": reason}
