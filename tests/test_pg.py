import dataclasses
import itertools
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistver import Field, Twist, build_variety
from twistver.ff import is_prime
from twistver.pg import (SPACE_CACHE_SIZE, _gl_generators, all_lines,
                         canonicalize, enum_points, is_collinear,
                         line_through, on_common_subline, point_count,
                         space, subline_through, sublines_of_line)

from conftest import get_field, mat_vec


# -- point enumeration -------------------------------------------------------

def test_point_counts():
    assert len(enum_points(get_field(3, 3), 2)) == 28
    assert len(enum_points(get_field(2, 2), 3)) == 21
    assert len(enum_points(get_field(5, 1), 1)) == 1


def test_points_canonical_distinct_sorted(gf16):
    pts = enum_points(gf16, 2)
    assert len(set(pts)) == point_count(gf16, 2) == 17
    assert pts == sorted(pts)
    for p in pts:
        nz = [c for c in p if c]
        assert nz and nz[0] == 1


# -- the per-process space ---------------------------------------------------

def test_one_space_is_shared_across_e_and_sigma():
    # every twist and every (e, t) split of one (p, m, n) reads one point
    # array and one action
    a = build_variety(Field(3, 4), 2, Twist(3, 4, (0, 0, 3)))
    b = build_variety(Field(3, 4, e=2), 2, Twist(3, 4, (0, 1)))
    assert a.point_array is b.point_array is space(3, 4, 2).points
    assert space(3, 4, 2) is space(3, 4, 2)
    assert space(3, 4, 3) is not space(3, 4, 2) is not space(3, 2, 2)


def test_a_space_needs_two_coordinates():
    # the point action's generator I + E_01 needs two coordinates, and
    # build_variety reaches the check before anything else that uses n
    with pytest.raises(ValueError, match="n >= 2"):
        space(2, 2, 1)
    with pytest.raises(ValueError, match="n >= 2"):
        build_variety(Field(2, 2), 1, Twist(2, 2, (0,)))


@pytest.mark.parametrize("p,m,n", [(3, 3, 2), (2, 2, 3)])
def test_space_arrays_are_read_only(p, m, n):
    s = space(p, m, n)
    for a in (s.points, s.perms, s.leads):
        with pytest.raises(ValueError):
            a[0, 0] = a[0, 0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.k = 0


@pytest.mark.parametrize("p,m,n", [(3, 3, 2), (2, 2, 3), (3, 1, 4)])
def test_space_action_moves_the_points(p, m, n):
    # M_i . points[j] = leads[i, j] . points[perms[i, j]], every perm a
    # bijection, and the chain length 3 on a line (4 over GF(3)), else 2
    f, s = Field(p, m), space(p, m, n)
    assert s.points.tolist() == [list(pt) for pt in enum_points(f, n)]
    for mat, perm, lead in zip(_gl_generators(f, n), s.perms, s.leads):
        assert sorted(perm.tolist()) == list(range(len(s.points)))
        for pt, j, c in zip(s.points, perm.tolist(), lead.tolist()):
            assert mat_vec(f, mat, pt) == [f.mul(c, x) for x in s.points[j]]
    assert s.k == (2 if n >= 3 else 4 if p ** m == 3 else 3)


@pytest.mark.parametrize("p,m,n", [(3, 3, 2), (2, 2, 3), (2, 11, 2)])
def test_cached_space_equals_a_fresh_build(p, m, n):
    cached = space(p, m, n)
    space.cache_clear()
    fresh = space(p, m, n)
    assert fresh is not cached and fresh.k == cached.k
    for name in ("points", "perms", "leads"):
        old, new = getattr(cached, name), getattr(fresh, name)
        assert old is not new
        assert (old.dtype, old.shape) == (new.dtype, new.shape), name
        assert old.tobytes() == new.tobytes(), name


def test_the_space_cache_evicts_the_least_recently_used_space():
    primes = [p for p in range(2, 100) if is_prime(p)][:SPACE_CACHE_SIZE + 1]
    space.cache_clear()
    first = [space(p, 1, 2) for p in primes[:-1]]
    assert space.cache_info().currsize == SPACE_CACHE_SIZE
    space(primes[0], 1, 2)  # now the most recently used
    space(primes[-1], 1, 2)  # one space too many: evicts primes[1]
    assert space.cache_info().currsize == SPACE_CACHE_SIZE
    assert space(primes[0], 1, 2) is first[0]
    assert all(space(p, 1, 2) is s
               for p, s in zip(primes[2:-1], first[2:]))
    rebuilt = space(primes[1], 1, 2)
    assert rebuilt is not first[1]
    assert np.array_equal(rebuilt.perms, first[1].perms)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_canonicalize_lands_in_enumeration(data):
    f = get_field(3, 2)
    pts = set(enum_points(f, 3))
    coords = data.draw(st.lists(st.integers(0, f.order - 1), min_size=3,
                                max_size=3).filter(lambda v: any(v)))
    assert canonicalize(f, coords) in pts


def test_canonicalize_zero_rejected(gf27):
    with pytest.raises(ValueError):
        canonicalize(gf27, [0, 0, 0])


def test_canonicalize_scaling_invariant(gf27):
    p = canonicalize(gf27, [2, 5, 0])
    for lam in range(1, 27):
        scaled = [gf27.mul(lam, c) for c in p]
        assert canonicalize(gf27, scaled) == p


# -- collinearity and lines --------------------------------------------------

def test_collinear_examples(gf27):
    assert is_collinear(gf27, [(1, 0, 0), (0, 1, 0)])
    assert not is_collinear(gf27, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    line = [(0, 1, 0), (1, 0, 0)] + [(1, z, 0) for z in range(1, 27)]
    assert is_collinear(gf27, line)
    with pytest.raises(ValueError):
        is_collinear(gf27, [(1, 0, 0)])


def test_line_through_size_and_membership():
    f = get_field(2, 2)
    line = line_through(f, (1, 0, 0), (0, 1, 0))
    assert len(line) == 5
    assert all(p[2] == 0 for p in line)


def test_all_lines_of_pg2_gf4():
    f = get_field(2, 2)
    pts = enum_points(f, 3)
    lines = all_lines(f, pts)
    assert len(lines) == 21  # PG(2,4) has as many lines as points
    assert all(len(ln) == 5 for ln in lines)
    # every pair of points on exactly one line
    for i, j in itertools.combinations(range(21), 2):
        assert sum(1 for ln in lines if i in ln and j in ln) == 1


def test_all_lines_of_pg3_gf3():
    # in PG(3,3) lines are not hyperplanes
    f = get_field(3, 1)
    pts = enum_points(f, 4)
    lines = all_lines(f, pts)
    assert len(lines) == 130 and lines == sorted(lines)
    assert all(len(ln) == 4 and list(ln) == sorted(ln) for ln in lines)
    for i, j in itertools.combinations(range(len(pts)), 2):
        assert sum(1 for ln in lines if i in ln and j in ln) == 1


# -- sublines ----------------------------------------------------------------

def test_subline_canonical_frame_f2(gf16):
    sub = subline_through(gf16, (1, 0), (0, 1), (1, 1), 2)
    assert set(sub) == {(1, 0), (0, 1), (1, 1)}


def test_subline_canonical_frame_f4(gf16):
    sub = subline_through(gf16, (1, 0), (0, 1), (1, 1), 4)
    expected = {(0, 1)} | {(1, z) for z in gf16.subfield_elements(4)}
    assert set(sub) == expected


def test_subline_rescaled_frame(gf16):
    g = gf16.generator
    sub = subline_through(gf16, (1, 0), (0, 1), (1, g), 4)
    assert len(sub) == 5
    # direct parametrization: theta*(1,0) + (0,g) for theta in F_4, plus (1,0)
    expected = {canonicalize(gf16, (theta, g))
                for theta in gf16.subfield_elements(4)} | {(1, 0)}
    assert set(sub) == expected


def test_subline_contains_frame_and_is_frame_order_invariant(gf16):
    pts = enum_points(gf16, 2)
    frame = (pts[0], pts[5], pts[11])
    base = set(subline_through(gf16, *frame, 4))
    assert set(frame) <= base
    for perm in itertools.permutations(frame):
        assert set(subline_through(gf16, *perm, 4)) == base


def test_subline_errors(gf16):
    with pytest.raises(ValueError):
        subline_through(gf16, (1, 0), (1, 0), (0, 1), 4)
    with pytest.raises(ValueError):
        subline_through(gf16, (1, 0), (0, 1), (1, 1), 8)
    with pytest.raises(ValueError):
        subline_through(gf16, (1, 0, 0), (0, 1, 0), (0, 0, 1), 4)


def test_three_collinear_points_always_on_common_subline(gf16):
    pts = enum_points(gf16, 2)
    frames = list(itertools.combinations(pts[:8], 3))
    collinear, on_sub = on_common_subline(gf16, frames, 4)
    assert collinear.all() and on_sub.all()


def test_on_common_subline_counterexample(gf16):
    g = gf16.generator
    assert g not in gf16.subfield_elements(4)
    collinear, on_sub = on_common_subline(
        gf16, [[(1, 0), (0, 1), (1, 1), (1, g)]], 4)
    assert collinear.tolist() == [True] and on_sub.tolist() == [False]


def test_on_common_subline_needs_three_distinct(gf16):
    with pytest.raises(ValueError):
        on_common_subline(gf16, [[(1, 0), (0, 1)]], 4)
    with pytest.raises(ValueError):
        on_common_subline(gf16, [[(1, 0), (0, 1), (1, 1)]], 8)


def _random_rows(field, n, q_sub, m, rng, count):
    """count rows of m distinct points each, in random order: in turn on
    a random PG(1, q') subline (when it has m points), on a random line,
    and anywhere."""
    def point():
        while True:
            v = [rng.randrange(field.order) for _ in range(n)]
            if any(v):
                return canonicalize(field, v)

    rows = []
    while len(rows) < count:
        p0, p1 = point(), point()
        if p0 == p1:
            continue
        kind = len(rows) % 3
        if kind == 0 and m <= q_sub + 1:
            a, b = rng.randrange(1, field.order), rng.randrange(1, field.order)
            p2 = canonicalize(field, [field.add(field.mul(a, x), field.mul(b, y))
                                      for x, y in zip(p0, p1)])
            rows.append(rng.sample(subline_through(field, p0, p1, p2, q_sub), m))
        elif kind < 2:
            rows.append(rng.sample(line_through(field, p0, p1), m))
        else:
            row = {p0, p1}
            while len(row) < m:
                row.add(point())
            rows.append(rng.sample(sorted(row), m))
    return rows


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p,m", [(2, 4), (3, 4)])
def test_on_common_subline_matches_scalar_references(p, m, n):
    """The array pass against is_collinear and membership in the
    subline_through the first three points, for q' = p, a proper
    subfield and Q, on rows of 3 to 5 points."""
    field = get_field(p, m)
    rng = random.Random(1000 * p + n)
    positives = negatives = 0
    for q_sub in field.subfield_orders():
        for size in (3, 4, 5):
            rows = _random_rows(field, n, q_sub, size, rng, 9)
            collinear, on_sub = on_common_subline(field, rows, q_sub)
            for row, line, sub in zip(rows, collinear.tolist(),
                                      on_sub.tolist()):
                want_line = is_collinear(field, row)
                want_sub = want_line and set(row) <= set(
                    subline_through(field, *row[:3], q_sub))
                assert (line, sub) == (want_line, want_sub), (q_sub, row)
                positives += sub
                negatives += want_line and not sub
    assert positives and negatives


def test_subline_count_of_pg1_16():
    """68 = |PGL(2,16)| / |PGL(2,4)|, reproduced by frame enumeration."""
    def pgl2_order(q):
        return (q * q - 1) * (q * q - q) // (q - 1)

    assert pgl2_order(16) == 4080 and pgl2_order(4) == 60
    expected = pgl2_order(16) // pgl2_order(4)
    assert expected == 68

    f = get_field(2, 4)
    subs = sublines_of_line(f, enum_points(f, 2), 4)
    assert len(subs) == expected
    # each subline arises from exactly C(5,3) frames
    assert comb(17, 3) == 68 * comb(5, 3)


def test_two_sublines_share_at_most_two_points(gf16):
    subs = sublines_of_line(gf16, enum_points(gf16, 2), 4)
    for s1, s2 in itertools.combinations(subs, 2):
        assert len(set(s1) & set(s2)) <= 2


def test_whole_line_is_its_own_subline():
    f = get_field(5, 1)
    pts = enum_points(f, 2)
    subs = sublines_of_line(f, pts, 5)
    assert len(subs) == 1
    assert set(subs[0]) == set(pts)
