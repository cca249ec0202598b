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

Every level scans all w-subsets (restriction "none") except one: for
n >= 3 and q' <= d no PG(1, q') subline holds d+2 points, so the d+2
level holds no dependent set, and an unrestricted scan would have to
visit all C(nu, d+2) subsets to show it.  That level scans only the
(d+2)-subsets of each line in full (restriction "collinear"), relying on
the paper's result that dependent (d+2)-sets are collinear; tier-1
cross-checks it against the unrestricted scan and the oracle.  Otherwise
the subline structure is an output, not a shortcut: classify_min_words
scans the d+2 level in full and checks every support for collinear
pre-images on a common PG(1, q') subline.

Each level walks a depth-first tree of independent column
prefixes, reusing the incremental elimination workspace; one vectorized
scan per prefix classifies every extension column as in-span or
independent, so a level that nominally checks C(nu, w) subsets only does
C(nu, w-1) eliminations.

Everything is deterministic: subsets are visited in lexicographic order,
parallel runs partition the tree by first column and reduce by
lexicographic minimum, and reported check counts are closed-form, so a
report is bit-identical for any worker count.

An unstructured brute-force oracle (plain subset enumeration, scalar
arithmetic, no staging) cross-validates the search on small codes: the
same delta and the same lexicographically first witness.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field as dc_field, asdict
from itertools import combinations
from math import comb
from multiprocessing import get_context
from typing import Optional, Sequence

import numpy as np

from .ff import Field
from .linalg import IncrementalElim, Matrix, kernel_basis
from .pg import all_lines, is_collinear, on_common_subline
from .veronese import Twist, VarietyMatrix

PARALLEL_MIN_CHECKS = 200_000  # below this a pool costs more than it saves
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
    H: Matrix          # effective_N x nu, columns = embedded points
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
    h = Matrix(variety.field, variety.coords.T.copy())
    nu = variety.num_points
    return Code(variety=variety, H=h, nu=nu, kappa=nu - n_eff)


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

    def payload(self) -> dict:
        """Canonical content: everything except timings and the hash."""
        return {
            "field": self.field, "n": self.n,
            "sigma_exponents": self.sigma_exponents, "q_fixed": self.q_fixed,
            "nu": self.nu, "kappa": self.kappa,
            "expected_N": self.expected_N, "effective_N": self.effective_N,
            "singleton_bound": self.singleton_bound,
            "delta": self.delta, "delta_exact": self.delta_exact,
            "delta_lower_bound": self.delta_lower_bound,
            "status": self.status,
            "witness": self.witness, "witness_points": self.witness_points,
            "min_weight_support_count": self.min_weight_support_count,
            "supports": self.supports, "violations": self.violations,
            "stage_log": [s.payload() for s in self.stage_log],
        }

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


def _scan_subtree(elim: IncrementalElim, first_col: int, w: int,
                  early_exit: bool, cap: Optional[int]):
    """DFS below one first column.  Returns (checked, hits, stopped_early).

    Visits independent prefixes in lexicographic order; at prefix size
    w-1 every remaining column is classified in one vectorized scan.
    A dependent subset smaller than w raises DependencyInvariantError.
    """
    checked = 0
    hits: list[tuple[int, ...]] = []
    limit = cap if cap is not None else None
    capped = False
    prefix = [first_col]
    ncols = elim.ncols
    push, pop, split, pairs = (elim.push, elim.pop, elim.split_extensions,
                               elim.pair_groups)

    if not push(first_col):
        raise DependencyInvariantError((first_col,))

    def rec(remaining: int) -> bool:
        nonlocal checked, capped
        if remaining == 1:  # only for w == 2
            deps, indeps = split()
            checked += int(deps.size) + int(indeps.size)
            if deps.size:
                base = tuple(prefix)
                if early_exit:
                    hits.append(base + (int(deps[0]),))
                    return True
                hits.extend(base + (int(c),) for c in deps.tolist())
            if limit is not None and checked >= limit:
                capped = True
                return True
            return False
        if remaining == 2:
            dead, groups = pairs()
            if dead.size:
                raise DependencyInvariantError(tuple(prefix) + (int(dead[0]),))
            width = ncols - 1 - prefix[-1]
            checked += width * (width - 1) // 2
            if groups:
                base = tuple(prefix)
                if early_exit:
                    g = groups[0]
                    hits.append(base + (int(g[0]), int(g[1])))
                    return True
                for g in groups:
                    gl = g.tolist()
                    hits.extend(base + (gl[i], gl[j])
                                for i in range(len(gl))
                                for j in range(i + 1, len(gl)))
            if limit is not None and checked >= limit:
                capped = True
                return True
            return False
        deps, indeps = split()
        if deps.size:
            raise DependencyInvariantError(tuple(prefix) + (int(deps[0]),))
        for c in indeps.tolist():
            push(c)
            prefix.append(c)
            stop = rec(remaining - 1)
            prefix.pop()
            pop()
            if stop:
                return True
        return False

    try:
        rec(w - 1)
    finally:
        pop()
    return checked, hits, capped


def _scan_tasks(field: Field, h: np.ndarray, w: int,
                tasks: list[tuple[int, Optional[int]]],
                early_exit: bool):
    """Scan several first-column subtrees in order.  Early exit stops at
    the first hit, which lex-dominates everything later in the task list."""
    elim = IncrementalElim(field, h)
    checked = 0
    hits: list[tuple[int, ...]] = []
    capped = False
    for first_col, cap in tasks:
        c, hh, cp = _scan_subtree(elim, first_col, w, early_exit, cap)
        checked += c
        hits.extend(hh)
        capped = capped or cp
        if early_exit and hh:
            break
    return checked, hits, capped


_POOL_STATE: dict = {}


def _pool_init(p: int, m: int, e: int, h: np.ndarray) -> None:
    _POOL_STATE["field"] = Field(p, m, e=e)
    _POOL_STATE["h"] = h


def _pool_scan(args):
    w, tasks, early_exit = args
    return _scan_tasks(_POOL_STATE["field"], _POOL_STATE["h"], w,
                       tasks, early_exit)


def _first_column_tasks(ncols: int, w: int, budget: int):
    """(first column, cap) tasks covering the lexicographically first
    `budget` w-subsets of range(ncols); cap None is the whole subtree."""
    tasks: list[tuple[int, Optional[int]]] = []
    for c1 in range(ncols - w + 1):
        if budget <= 0:
            break
        size = comb(ncols - 1 - c1, w - 1)
        tasks.append((c1, None if size <= budget else budget))
        budget -= size
    return tasks


def _scan_columns(field: Field, h: np.ndarray, w: int,
                  tasks: list[tuple[int, Optional[int]]], early_exit: bool,
                  workers: int):
    """Scan the tasks' subtrees of h's columns, serially or split across
    a fork pool.  Returns (sorted distinct hits, any task capped)."""
    if workers > 1 and len(tasks) > 1:
        chunks = [tasks[i::workers] for i in range(workers)]
        chunks = [c for c in chunks if c]
        ctx = get_context("fork")
        with ctx.Pool(len(chunks), initializer=_pool_init,
                      initargs=(field.p, field.m, field.e, h)) as pool:
            parts = pool.map(_pool_scan,
                             [(w, chunk, early_exit) for chunk in chunks])
        return (sorted({hh for _, part_hits, _ in parts for hh in part_hits}),
                any(cp for _, _, cp in parts))
    _, hits, capped = _scan_tasks(field, h, w, tasks, early_exit)
    return sorted(set(hits)), capped


def _run_level(code: Code, w: int, plan: SearchPlan, *, early_exit: bool,
               label: str, lines: Optional[Sequence[Sequence[int]]] = None):
    """One level of w-subsets in lexicographic order: exhaustive, or with
    early exit at the first dependent subset.

    Every w-subset is a candidate (restriction "none"), or, given `lines`
    as sorted column lists, only the w-subsets of one line (restriction
    "collinear"); each line is then scanned in full, since the
    lexicographically first hit may lie on any of them.
    """
    assert lines is None or not early_exit, "a collinear level runs in full"
    nu = code.nu
    start = time.perf_counter()
    if lines is None:
        groups, restriction = [range(nu)], "none"
    else:
        groups, restriction = [g for g in lines if len(g) >= w], "collinear"
    total = sum(comb(len(g), w) for g in groups)
    # one pool per level, and only for the unrestricted scan: a line is
    # too small to be worth one
    workers = (plan.workers if lines is None and total >= PARALLEL_MIN_CHECKS
               else 1)

    hits: list[tuple[int, ...]] = []
    any_capped = False
    remaining = plan.budget
    for cols in groups:
        tasks = _first_column_tasks(len(cols), w, remaining)
        if not tasks:
            break
        remaining -= comb(len(cols), w)
        h = code.H.data if lines is None else code.H.data[:, cols]
        try:
            part, capped = _scan_columns(code.field, h, w, tasks, early_exit,
                                         workers)
        except DependencyInvariantError as exc:
            raise DependencyInvariantError(
                tuple(cols[i] for i in exc.subset)) from exc
        hits.extend(tuple(cols[i] for i in hh) for hh in part)
        any_capped = any_capped or capped
    hits.sort()

    if early_exit and hits:
        hits = hits[:1]
        # deterministic count: every subset scanned up to and including
        # the leaf that produced the lexicographically first hit
        checked = _lex_rank(hits[0][:-1] + (nu - 1,), nu) + 1
        capped = False
    elif total > plan.budget:
        checked = plan.budget
        capped = True
    else:
        checked = total
        capped = any_capped

    record = StageRecord(label=label, w=w, restriction=restriction,
                         checked=checked, dependent_found=len(hits),
                         early_exit=early_exit, capped=capped,
                         seconds=time.perf_counter() - start)
    return record, hits


def _subset_dependent(elim: IncrementalElim, subset: Sequence[int]) -> bool:
    elim.reset()
    try:
        for c in subset:
            if not elim.push(c):
                return True
        return False
    finally:
        elim.reset()


# ---------------------------------------------------------------------------
# Exact minimum distance
# ---------------------------------------------------------------------------

def _dispatch_level(code: Code, w: int, plan: SearchPlan):
    d = code.twist.d
    if w == d + 2 and code.variety.n >= 3 and code.twist.q_fixed <= d:
        # no dependent set here: prove it on the lines only (see above)
        return _run_level(code, w, plan, early_exit=False,
                          label="minimal-dependent",
                          lines=all_lines(code.field, code.variety.points))
    label = ("general-position" if w <= d + 1 else
             "minimal-dependent" if w == d + 2 else "lex-search")
    return _run_level(code, w, plan, early_exit=True, label=label)


def min_distance(code: Code, plan: Optional[SearchPlan] = None) -> CodeReport:
    """Exact minimum distance by one lexicographic scan per level (see
    the module docstring), or a proven lower bound.

    The returned report carries the per-level log; delta_exact is False
    only when a budget cap stopped the search first.
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
    for w in range(2, w_cap + 1):
        record, hits = _dispatch_level(code, w, plan)
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
            _check_witness(code, witness)
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


def _check_witness(code: Code, witness: Sequence[int]) -> None:
    """A found minimal dependent set must have every proper subset
    independent and a one-dimensional kernel."""
    elim = IncrementalElim(code.field, code.H.data)
    for drop in range(len(witness)):
        sub = [c for i, c in enumerate(witness) if i != drop]
        if _subset_dependent(elim, sub):
            raise DependencyInvariantError(tuple(sub))
    kb = kernel_basis(code.H.submatrix_cols(list(witness)))
    if len(kb) != 1:
        raise AssertionError(
            f"witness {tuple(witness)} has kernel dimension {len(kb)}, expected 1")


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

def classify_min_words(code: Code, report: CodeReport,
                       plan: Optional[SearchPlan] = None) -> CodeReport:
    """Enumerate every dependent (d+2)-subset exhaustively (no geometric
    restriction) and verify each against the expected structure: collinear
    pre-images lying on one fixed-subfield subline.  Violations are
    recorded, never dropped."""
    plan = plan or SearchPlan()
    d = code.twist.d
    if report.delta != d + 2 or not report.delta_exact:
        raise ValueError(
            "support classification applies only when the exact minimum "
            "distance equals d + 2")
    record, hits = _run_level(code, d + 2, plan, early_exit=False,
                              label="classify")
    if record.capped:
        raise BudgetExceeded(
            f"classification needs {comb(code.nu, d + 2)} checks, "
            f"budget is {plan.budget}")

    field = code.field
    qf = code.twist.q_fixed
    supports = []
    violations = []
    for subset in hits:
        pts = [code.variety.points[i] for i in subset]
        kb = kernel_basis(code.H.submatrix_cols(list(subset)))
        if len(kb) != 1:
            violations.append({"columns": list(subset),
                               "problem": f"kernel dimension {len(kb)}"})
        elif any(int(x) == 0 for x in kb[0]):
            violations.append({"columns": list(subset),
                               "problem": "kernel vector not fully supported"})
        collinear = is_collinear(field, pts)
        on_sub = collinear and qf + 1 >= len(pts) and on_common_subline(
            field, pts, qf)
        if not collinear:
            violations.append({"columns": list(subset),
                               "problem": "pre-images not collinear"})
        elif not on_sub:
            violations.append({"columns": list(subset),
                               "problem": "pre-images not on a common subline"})
        supports.append({
            "columns": list(subset),
            "points": [list(p) for p in pts],
            "collinear": collinear,
            "q_fixed": qf,
            "subline_frame": [list(p) for p in pts[:3]],
            "on_subline": on_sub,
        })
    report.min_weight_support_count = len(hits)
    report.supports = supports
    report.violations = violations
    report.stage_log.append(record)
    report.timings["classify"] = round(record.seconds, 6)
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
    hdata = code.H.data.tolist()
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


def verify_general_position(code: Code, k: int,
                            plan: Optional[SearchPlan] = None) -> GeneralPositionResult:
    """Exhaustively test every k-subset of columns for independence.

    Returns ok=True, or ok=False with the lexicographically first
    dependent k-subset as witness.  Levels 2 .. k each stop at their
    first dependent subset, so a level sees one smaller than itself only
    through a bug, and the DependencyInvariantError propagates.
    """
    plan = plan or SearchPlan()
    if not 2 <= k <= code.effective_N + 1:
        raise ValueError(f"k = {k} is outside [2, effective_N + 1]")
    # every level must run in full: a truncated one could leave a smaller
    # dependent set for the next level to trip over
    largest = max(comb(code.nu, w) for w in range(2, k + 1))
    if largest > plan.budget:
        raise BudgetExceeded(
            f"{largest} subsets exceed the budget {plan.budget}; "
            "raise it explicitly to proceed")
    for w in range(2, k + 1):
        record, hits = _run_level(code, w, plan, early_exit=True,
                                  label="general-position")
        if hits and w < k:  # level k never ran, so no k-subset was checked
            return GeneralPositionResult(False, k, 0,
                                         _lex_first_dependent(code, k))
        if hits:
            return GeneralPositionResult(False, k, record.checked, hits[0])
    return GeneralPositionResult(True, k, record.checked)


def _lex_first_dependent(code: Code, k: int) -> tuple:
    """Direct lex scan; only called when a dependent k-subset must exist."""
    elim = IncrementalElim(code.field, code.H.data)
    for subset in combinations(range(code.nu), k):
        if _subset_dependent(elim, subset):
            return subset
    raise AssertionError("no dependent subset found where one was implied")


def verify_oracle_equivalence(code: Code, plan: Optional[SearchPlan] = None,
                              max_checks: int = DEFAULT_ORACLE_CAP):
    """Search and brute-force oracle must agree exactly: on delta and on
    the lexicographically first dependent set."""
    report = min_distance(code, plan)
    oracle_delta, oracle_witness = oracle_min_distance(code,
                                                       max_checks=max_checks)
    ok = (report.delta_exact and report.delta == oracle_delta
          and report.witness == list(oracle_witness))
    return ok, report.delta, oracle_delta


def verify_dep_classification(code: Code, plan: Optional[SearchPlan] = None):
    """Run the search plus classification; pass iff no violations."""
    report = min_distance(code, plan)
    if report.delta != code.twist.d + 2:
        return False, report, "minimum distance is not d + 2"
    report = classify_min_words(code, report, plan)
    if report.violations:
        return False, report, f"{len(report.violations)} support violations"
    return True, report, None
