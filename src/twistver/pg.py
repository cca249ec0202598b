"""Projective geometry over a finite field: PG(n-1, q^t) points, lines,
collinearity, and subfield sublines of a projective line.

A point is a tuple of element encodings in canonical form: not all zero,
first nonzero coordinate equal to 1.  The point list returned by
enum_points is sorted ascending by coordinate tuple; this fixed order
defines the column order of every matrix built from it, making all
downstream outputs byte-reproducible.

A subline is constructed explicitly through its first three frame points
(parameters infinity, 0, 1 under the unique projectivity) rather than via
cross-ratio arithmetic; any three distinct collinear points determine
exactly one PG(1, q') subline.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Sequence

import numpy as np

from .ff import Field
from .linalg import rank

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


def _frame_coefficients(field: Field, p0: ProjPoint, p1: ProjPoint,
                        p2: ProjPoint) -> tuple[int, int]:
    """(alpha, beta) with p2 = alpha*p0 + beta*p1, both nonzero."""
    n = len(p0)
    # 2-unknown system over n equations; solve from two independent rows
    for i in range(n):
        for j in range(n):
            d = field.sub(field.mul(p0[i], p1[j]), field.mul(p0[j], p1[i]))
            if d:
                dinv = field.inv(d)
                alpha = field.mul(dinv, field.sub(field.mul(p2[i], p1[j]),
                                                  field.mul(p2[j], p1[i])))
                beta = field.mul(dinv, field.sub(field.mul(p0[i], p2[j]),
                                                 field.mul(p0[j], p2[i])))
                # consistency on the remaining coordinates
                for k in range(n):
                    lhs = field.add(field.mul(alpha, p0[k]), field.mul(beta, p1[k]))
                    if lhs != p2[k]:
                        raise ValueError("frame points are not collinear")
                if alpha == 0 or beta == 0:
                    raise ValueError("frame points are not pairwise distinct")
                return alpha, beta
    raise ValueError("first two frame points coincide")


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
    alpha, beta = _frame_coefficients(field, p0, p1, p2)
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


def on_common_subline(field: Field, points: Sequence[ProjPoint], q_sub: int) -> bool:
    """True iff the points are collinear and lie on one PG(1, q') subline."""
    pts = list(points)
    distinct: list[ProjPoint] = []
    for p in pts:
        if p not in distinct:
            distinct.append(p)
    if len(distinct) < 3:
        raise ValueError("subline membership needs at least 3 distinct points")
    if not is_collinear(field, pts):
        return False
    sub = set(subline_through(field, *distinct[:3], q_sub))
    return all(p in sub for p in pts)


def sublines_of_line(field: Field, line_points: Sequence[ProjPoint],
                     q_sub: int) -> list[tuple[ProjPoint, ...]]:
    """All distinct PG(1, q') sublines of a line, by frame enumeration."""
    seen: set[tuple[ProjPoint, ...]] = set()
    for frame in combinations(line_points, 3):
        seen.add(subline_through(field, *frame, q_sub))
    return sorted(seen)
