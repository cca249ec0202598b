"""Projective geometry over a finite field: PG(n-1, q^t) points, lines,
collinearity, and subfield sublines of a projective line.

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
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Sequence

import numpy as np

from .ff import Field
from .linalg import kernel_basis, rank

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
