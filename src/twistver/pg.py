"""Projective geometry over a finite field: PG(n-1, q^t) points and the
action of GL(n, q^t) on them, lines, collinearity, and subfield sublines
of a projective line.

A point is a tuple of element encodings in canonical form: not all zero,
first nonzero coordinate equal to 1.  The point list returned by
enum_points is sorted ascending by coordinate tuple; this fixed order
defines the column order of every matrix built from it, making all
downstream outputs byte-reproducible.

The program tests collinearity and a common PG(1, q') subline with
on_common_subline, one array pass over a stack of point tuples.  The
scalar is_collinear and subline_through are its references in the
tests; subline_through constructs the unique PG(1, q') subline through
three frame points, which get the parameters infinity, 0 and 1.

A Space is PG(n-1, p^m) with the point action of GL(n, p^m): the
sorted point array and, for each generator of _gl_generators, the
permutation of the points and the leads by which it moves them, and the
length k of the stabiliser chain of those permutations (_orbit_prefix).
None of it depends on a twist, so space(p, m, n) builds it once per
process and every code of that field and n shares it, read-only:
build_variety takes its points from it and codes.column_orbit_prefix
its permutations, leads and k, which it uses only once its certificate
has proved the permutations on that code's H.  An LRU cache keeps the
SPACE_CACHE_SIZE spaces used last, and a forked search worker inherits
it.  A space holds at most 8 (n + 2g) bytes a point, g <= 5
generators (the leads have the field's element type): at the 65,536
points of veronese.MAX_POINTS at most 5 MiB for n = 2 and 7.5 MiB for
n = 5, and the cache at most SPACE_CACHE_SIZE times that; the sweep's
spaces, nu <= 5,000, hold under 0.6 MiB each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Sequence

import numpy as np

from .ff import Field
from .linalg import canonical, kernel_basis, matmul, rank

SPACE_CACHE_SIZE = 16  # spaces whose points and point action a process keeps

ProjPoint = tuple[int, ...]


def canonicalize(field: Field, coords: Sequence[int]) -> ProjPoint:
    """Scale so that the first nonzero coordinate is 1."""
    coords = [field.check_element(int(c)) for c in coords]
    for c in coords:
        if c:
            if c == 1:
                return tuple(coords)
            inv = field.inv(c)
            return tuple(field.mul(inv, x) for x in coords)
    raise ValueError("the zero vector is not a projective point")


def point_count(field: Field, n: int) -> int:
    return (field.order ** n - 1) // (field.order - 1)


def enum_points(field: Field, n: int) -> list[ProjPoint]:
    """All points of PG(n-1, order), canonical, sorted ascending."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pts: list[ProjPoint] = []
    for lead in range(n):
        free = n - lead - 1
        for tail in product(field.elements(), repeat=free):
            pts.append((0,) * lead + (1,) + tail)
    pts.sort()
    if len(pts) != point_count(field, n):  # checked also under python -O
        raise AssertionError(f"{len(pts)} points enumerated, expected "
                             f"{point_count(field, n)}")
    return pts


def is_collinear(field: Field, points: Sequence[ProjPoint]) -> bool:
    if len(points) < 2:
        raise ValueError("collinearity needs at least 2 points")
    return rank(field, points) <= 2


def line_through(field: Field, p0: ProjPoint, p1: ProjPoint) -> tuple[ProjPoint, ...]:
    """The q^t + 1 points of the line spanned by two distinct points, sorted."""
    if p0 == p1:
        raise ValueError("two distinct points are needed to span a line")
    pts = {canonicalize(field, p1)}
    for lam in field.elements():
        v = [field.add(a, field.mul(lam, b)) for a, b in zip(p0, p1)]
        pts.add(canonicalize(field, v))
    if len(pts) != field.order + 1:
        raise AssertionError(f"line through {p0}, {p1} has {len(pts)} points")
    return tuple(sorted(pts))


def all_lines(field: Field, points: Sequence[ProjPoint]) -> list[tuple[int, ...]]:
    """All lines of PG(n-1) as sorted tuples of indices into `points`."""
    index = {p: i for i, p in enumerate(points)}
    covered = np.zeros((len(points), len(points)), dtype=bool)
    lines: list[tuple[int, ...]] = []
    for i in range(len(points)):
        for j in (np.flatnonzero(~covered[i, i + 1:]) + i + 1).tolist():
            if covered[i, j]:  # on a line found earlier in this row
                continue
            line = sorted(index[p] for p in line_through(field, points[i],
                                                          points[j]))
            covered[np.ix_(line, line)] = True
            lines.append(tuple(line))
    return sorted(lines)


def subline_through(field: Field, p0: ProjPoint, p1: ProjPoint, p2: ProjPoint,
                    q_sub: int) -> tuple[ProjPoint, ...]:
    """The q'+1 points of the unique PG(1, q') subline through the frame.

    The frame points receive parameters infinity, 0, 1; the subline is the
    set of points with parameter in F_{q'} plus the point at infinity.
    """
    if len({p0, p1, p2}) != 3:
        raise ValueError("subline frame must consist of 3 distinct points")
    if q_sub not in field.subfield_orders():
        raise ValueError(f"{q_sub} is not a subfield order of GF({field.order})")
    # k0 p0 + k1 p1 + k2 p2 = 0, all nonzero: p2 = alpha p0 + beta p1
    kernel = kernel_basis(field, np.array([p0, p1, p2]).T)
    if len(kernel) != 1 or not kernel[0].all():
        raise ValueError("frame points are not collinear")
    k0, k1, k2 = kernel[0].tolist()
    alpha, beta = field.div(field.neg(k0), k2), field.div(field.neg(k1), k2)
    q0 = [field.mul(alpha, x) for x in p0]
    q1 = [field.mul(beta, x) for x in p1]
    pts = {canonicalize(field, q0)}
    for theta in field.subfield_elements(q_sub):
        v = [field.add(field.mul(theta, a), b) for a, b in zip(q0, q1)]
        pts.add(canonicalize(field, v))
    if len(pts) != q_sub + 1:
        raise AssertionError(f"subline through {p0}, {p1}, {p2} has "
                             f"{len(pts)} points, expected {q_sub + 1}")
    return tuple(sorted(pts))


def on_common_subline(field: Field, points, q_sub: int):
    """(collinear, on_subline), boolean arrays over the rows of an
    h x m x n stack of points, m >= 3 pairwise distinct points per row:
    whether the row's points lie on one line, and on one PG(1, q') subline.

    With P, R the first two points of a row and D the first nonzero 2 x 2
    minor of (P, R), Cramer's rule solves X = alpha P + beta R for every
    point X of the row; the row is collinear iff that holds on every
    coordinate.  Every later X then has alpha, beta != 0.  The first three
    points frame the one subline that could hold the row, and X is on it
    iff beta/alpha lies in the coset of GF(q')^* that it lies in for the
    third point: iff (beta/alpha)^(q'-1) agrees, as log(beta/alpha) does
    mod (Q-1)/(q'-1)."""
    if q_sub not in field.subfield_orders():
        raise ValueError(f"{q_sub} is not a subfield order of GF({field.order})")
    pts = np.asarray(points, dtype=np.int64)
    if pts.shape[1] < 3:
        raise ValueError("subline membership needs rows of at least 3 points")
    ops, rows = field.ops, np.arange(len(pts))
    p, r = pts[:, 0], pts[:, 1]
    i, j = np.array(list(combinations(range(pts.shape[2]), 2))).T
    minors = ops.sub[ops.mul[p[:, i], r[:, j]], ops.mul[p[:, j], r[:, i]]]
    first = (minors != 0).argmax(axis=1)
    det, i, j = minors[rows, first][:, None], i[first], j[first]
    x_i, x_j = pts[rows, :, i], pts[rows, :, j]
    p_i, p_j, r_i, r_j = (a[rows, c][:, None] for a in (p, r) for c in (i, j))
    alpha = ops.div[ops.sub[ops.mul[x_i, r_j], ops.mul[x_j, r_i]], det]
    beta = ops.div[ops.sub[ops.mul[p_i, x_j], ops.mul[p_j, x_i]], det]
    span = ops.add[ops.mul[alpha[:, :, None], p[:, None]],
                   ops.mul[beta[:, :, None], r[:, None]]]
    collinear = (span == pts).all(axis=(1, 2))
    ratio = ops.div[beta[:, 2:], alpha[:, 2:]]
    coset = field.pow(ratio, q_sub - 1)
    return collinear, collinear & (coset == coset[:, :1]).all(axis=1)


def sublines_of_line(field: Field, line_points: Sequence[ProjPoint],
                     q_sub: int) -> list[tuple[ProjPoint, ...]]:
    """All distinct PG(1, q') sublines of a line, by frame enumeration."""
    seen: set[tuple[ProjPoint, ...]] = set()
    for frame in combinations(line_points, 3):
        seen.add(subline_through(field, *frame, q_sub))
    return sorted(seen)


# ---------------------------------------------------------------------------
# The point action of GL(n, q^t), once per space
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Space:
    """PG(n-1, p^m) and the point action of _gl_generators(field, n), all
    read-only: with M_i the generators, M_i . points[j] =
    leads[i, j] . points[perms[i, j]], and k = _orbit_prefix(nu, perms).
    perms[i, j] is -1 where the image is zero or not a listed point."""

    points: np.ndarray  # nu x n, enum_points' rows
    perms: np.ndarray   # g x nu
    leads: np.ndarray   # g x nu, 0 where the image is zero
    k: int


@lru_cache(maxsize=SPACE_CACHE_SIZE)
def space(p: int, m: int, n: int) -> Space:
    """The Space of PG(n-1, p^m), built once and kept for the
    SPACE_CACHE_SIZE spaces used last in this process (see the module
    docstring)."""
    if n < 2:
        raise ValueError(f"n = {n}: PG(n-1, q) needs n >= 2 coordinates")
    field = Field(p, m)
    points = np.array(enum_points(field, n), dtype=np.int64)
    perms, leads = _point_action(field, points, _gl_generators(field, n))
    for a in (points, perms, leads):
        a.setflags(write=False)
    return Space(points, perms, leads, _orbit_prefix(len(points), perms))


def _gl_generators(field: Field, n: int) -> np.ndarray:
    """The g x n x n stack of diag(g, 1, ..., 1), the cyclic coordinate
    shift, I + E_01, I + E_{n-1,0} and, for n >= 3, the cyclic shift of
    the first n-1 coordinates.  They generate GL(n, q^t), whose
    projective image is 2-transitive on the points of PG(n-1, q^t).  All
    but the full shift and, for n = 2, I + E_01 fix e_{n-1}, the first
    point, and those generate a group transitive on the other points."""
    mats = np.zeros((5 if n >= 3 else 4, n, n), dtype=np.int64)
    i = np.arange(n)
    mats[:, i, i] = 1
    mats[0, 0, 0] = field.generator
    mats[1] = mats[1, (i + 1) % n]  # row i of a shift is e_{i+1}
    mats[2, 0, 1] = mats[3, n - 1, 0] = 1
    if n >= 3:
        mats[4, :-1] = mats[4, (i[:-1] + 1) % (n - 1)]
    return mats


def _point_action(field: Field, points: np.ndarray, mats: np.ndarray):
    """(perms, leads), g x nu each, for a g x n x n stack of matrices M_i
    and the sorted canonical points: M_i . points[j] = leads[i, j] .
    points[perms[i, j]], with perms[i, j] = -1 where M_i . points[j] is
    zero or not a listed point."""
    canon, lead = canonical(field, matmul(field, points, mats.swapaxes(1, 2)))
    place = field.order ** np.arange(points.shape[1] - 1, -1, -1,
                                     dtype=np.int64)
    keys, want = points @ place, canon @ place  # keys ascend with the points
    perms = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    perms[(keys[perms] != want) | (lead == 0)] = -1
    return perms, lead


def _orbit(nu: int, start: int, perms: Sequence[np.ndarray]) -> np.ndarray:
    """Mask of the orbit of point `start` under the group the perms
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
    points 0 .. i-1 move point i onto all nu - i points >= i: a
    stabiliser chain, each step one orbit search over the perms of the
    step before that fix point i-1.  Then any k distinct points
    (a_0, ..., a_{k-1}) map onto (0, ..., k-1): a product of the first
    step's perms moves a_0 onto 0, one of the second step's moves the
    image of a_1 onto 1 while 0 stays put, and so on."""
    k = 0
    while k < nu and np.count_nonzero(_orbit(nu, k, perms)) == nu - k:
        perms = [p for p in perms if p[k] == k]
        k += 1
    return k
