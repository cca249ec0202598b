import itertools
from dataclasses import replace
from math import comb, prod

import numpy as np
import pytest

from twistver.ff import Field
from twistver.linalg import rank
from twistver.pg import enum_points
from twistver.veronese import (Twist, build_variety, monomial_basis,
                               scroll_plucker_check, tensor_slots)

from conftest import get_field, get_variety, leibniz_det


# -- twist validation ---------------------------------------------------------

def test_twist_normalizes_and_derives():
    tw = Twist(3, 3, (2, 0, 0))
    assert tw.exponents == (0, 0, 2)
    assert tw.d == 3
    assert tw.norm == 1 + 1 + 9
    assert tw.blocks == [(0, 2), (2, 1)]
    assert tw.q_fixed == 3


def test_twist_fixed_subfield_orders():
    assert Twist(2, 4, (0, 2)).q_fixed == 4      # gcd(2,4) = 2
    assert Twist(3, 4, (0, 0, 3)).q_fixed == 3   # gcd(3,4) = 1
    assert Twist(5, 1, (0, 0)).q_fixed == 5      # identity only: whole field
    assert Twist(2, 6, (0, 2, 4)).q_fixed == 4   # gcd(2,4,6) = 2


def test_twist_rejects_bad_input():
    with pytest.raises(ValueError):
        Twist(2, 2, (0, 0, 0, 0))  # norm 4 = q^t
    with pytest.raises(ValueError):
        Twist(3, 3, (1, 2))        # no identity factor
    with pytest.raises(ValueError):
        Twist(3, 3, (0, 3))        # exponent out of range
    with pytest.raises(ValueError):
        Twist(3, 3, ())


def test_twist_from_q_powers():
    f = get_field(2, 4, e=2)  # q = 4, t = 2
    tw = Twist.from_q_powers(f, (0, 1))
    assert tw.exponents == (0, 2)


# -- monomial bases ------------------------------------------------------------

def brute_force_monomials(n, p, exps):
    """Oracle: enumerate raw tensor multi-indices and collect exponent sums."""
    out = set()
    for combo in itertools.product(range(n), repeat=len(exps)):
        ev = [0] * n
        for var, s in zip(combo, exps):
            ev[var] += p ** s
        out.add(tuple(ev))
    return out


@pytest.mark.parametrize("n,p,m,exps", [
    (2, 2, 3, (0, 0, 1)),
    (2, 3, 3, (0, 0, 2)),
    (2, 3, 4, (0, 0, 3)),
    (3, 2, 2, (0, 1)),
    (2, 2, 4, (0, 2)),
    (3, 2, 2, (0, 0)),
])
def test_monomials_match_bruteforce(n, p, m, exps):
    basis = monomial_basis(n, Twist(p, m, exps))
    assert set(basis.monomials) == brute_force_monomials(n, p, exps)
    assert basis.monomials == sorted(basis.monomials, reverse=True)


def test_collapse_example_gf8():
    basis = monomial_basis(2, Twist(2, 3, (0, 0, 1)))
    assert basis.effective_N == 5
    assert basis.expected_N == 6
    assert basis.collapsed
    assert set(basis.monomials) == {(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)}


def test_no_collapse_gf27():
    basis = monomial_basis(2, Twist(3, 3, (0, 0, 2)))
    assert basis.effective_N == basis.expected_N == 6
    assert set(basis.monomials) == {(11, 0), (10, 1), (9, 2), (2, 9), (1, 10), (0, 11)}


def test_degree_one_twist_is_identity_embedding():
    basis = monomial_basis(2, Twist(3, 3, (0,)))
    assert basis.monomials == [(1, 0), (0, 1)]
    f = get_field(3, 3)
    for pt in enum_points(f, 2):
        assert tuple(f.eval_monomials([pt], basis.monomials)[0]) == pt


def test_expected_dimension_formula():
    tw = Twist(3, 4, (0, 0, 3))
    basis = monomial_basis(3, tw)
    assert basis.expected_N == comb(3 + 1, 2) * comb(3, 1)  # deg-2 block x deg-1 block
    # the tensor slots, one nondecreasing multi-index per block
    slots = prod(
        len(list(itertools.combinations_with_replacement(range(3), dj)))
        for _, dj in tw.blocks)
    assert basis.expected_N == slots == 18


@pytest.mark.parametrize("p,m,d", [(2, 3, 2), (3, 3, 3), (5, 2, 5)])
def test_normal_rational_curve_twists(p, m, d):
    # n = 2 with d-1 identity factors and one x -> x^p factor gives the
    # full set of degree-(2p-1) monomials: a normal rational curve
    exps = (0,) * (p - 1) + (1,)
    basis = monomial_basis(2, Twist(p, m, exps))
    deg = 2 * p - 1
    assert basis.monomials == [(deg - i, i) for i in range(deg + 1)]
    assert basis.effective_N == deg + 1


# -- point embedding ------------------------------------------------------------

def test_embedded_point_at_infinity_is_unit_vector(gf27):
    basis = monomial_basis(2, Twist(3, 3, (0, 0, 2)))
    vec = gf27.eval_monomials([(0, 1)], basis.monomials)[0]
    assert vec.tolist() == [0, 0, 0, 0, 0, 1]


def test_embed_affine_points_are_power_rows(gf27):
    basis = monomial_basis(2, Twist(3, 3, (0, 0, 2)))
    for z in range(1, 27):
        vec = gf27.eval_monomials([(1, z)], basis.monomials)[0]
        assert vec.tolist() == [1, z, gf27.pow(z, 2), gf27.pow(z, 9),
                                gf27.pow(z, 10), gf27.pow(z, 11)]


def test_embed_all_ones_gives_all_ones(gf27):
    basis = monomial_basis(2, Twist(3, 3, (0, 0, 1)))
    vec = gf27.eval_monomials([(1, 1)], basis.monomials)[0]
    assert vec.tolist() == [1] * 6


# -- variety construction --------------------------------------------------------

def test_variety_gf27_shape_and_rank():
    v = get_variety(3, 3, 2, (0, 0, 2))
    assert v.coords.shape == (28, 6)
    assert rank(v.field, v.coords) == 6


def test_variety_gf4_is_cubic_curve():
    v = get_variety(2, 2, 2, (0, 1))
    assert v.coords.shape == (5, 4)
    assert rank(v.field, v.coords) == 4
    f = v.field
    for pt, row in zip(enum_points(f, 2), v.coords):
        if pt[0] == 1:
            z = pt[1]
            assert row.tolist() == [1, z, f.pow(z, 2), f.pow(z, 3)]


def test_variety_classical_veronese_surface():
    v = get_variety(2, 2, 3, (0, 0))
    assert v.coords.shape == (21, 6)
    assert rank(v.field, v.coords) == 6


def test_variety_collapse_rank_is_effective():
    v = get_variety(2, 3, 2, (0, 0, 1))
    assert v.basis.expected_N == 6
    assert v.basis.effective_N == 5
    assert rank(v.field, v.coords) == 5


def test_variety_rows_pairwise_nonproportional():
    v = get_variety(2, 4, 2, (0, 2))
    f = v.field
    canon = set()
    for row in v.coords:
        nz = [int(x) for x in row if x][0]
        inv = f.inv(nz)
        canon.add(tuple(f.mul(inv, int(x)) for x in row))
    assert len(canon) == v.num_points


def test_build_variety_wrong_field():
    with pytest.raises(ValueError):
        build_variety(get_field(3, 3), 2, Twist(2, 3, (0, 1)))


# -- scroll / Grassmann cross-check ----------------------------------------------

SCROLL_CONFIGS = [
    (3, 3, 2, (0, 0, 2)),     # nd = 6
    (2, 2, 2, (0, 1)),        # nd = 4
    (3, 2, 2, (0, 1)),        # nd = 4
    (2, 3, 2, (0, 0, 1)),     # nd = 6, collapse
    (5, 1, 2, (0, 0)),        # nd = 4 classical
    (2, 2, 3, (0, 0)),        # nd = 6 classical surface
    (2, 3, 2, (0, 0, 0, 1)),  # nd = 8
    (2, 2, 4, (0, 1)),        # nd = 8
]


@pytest.mark.parametrize("p,m,n,exps", SCROLL_CONFIGS)
def test_tensor_slots_walk_each_slot_once(p, m, n, exps):
    # expected_N picks, each nondecreasing inside a block and distinct,
    # whose exponent vectors are those of all n^d picks
    tw = Twist(p, m, exps)
    slots = list(tensor_slots(n, tw))
    assert len(slots) == monomial_basis(n, tw).expected_N
    picks = [pick for pick, _ in slots]
    assert len(set(picks)) == len(picks)
    for pick in picks:
        assert all(i <= j for i, j, s, t in zip(pick, pick[1:], exps, exps[1:])
                   if s == t)
    assert {ev for _, ev in slots} == brute_force_monomials(n, p, exps)


def twisted_copies(variety, point) -> np.ndarray:
    """The d x nd matrix whose row j is the j-th Frobenius twist of the
    point, placed on block j, coordinates [j*n, (j+1)*n)."""
    f, n, exps = variety.field, variety.n, variety.twist.exponents
    rows = np.zeros((len(exps), n * len(exps)), dtype=np.int64)
    for j, s in enumerate(exps):
        rows[j, j * n:(j + 1) * n] = [f.frobenius(x, s) for x in point]
    return rows


@pytest.mark.parametrize("p,m,n,exps", SCROLL_CONFIGS)
def test_scroll_plucker_agreement_exhaustive(p, m, n, exps):
    # the exterior-algebra definition, minor by minor through the Leibniz
    # expansion: a subset that misses a block gives 0, and a transversal
    # one gives the point's coordinate at sum_j p^s_j e_{i_j}
    v = get_variety(p, m, n, exps)
    d = len(exps)
    index = {mono: c for c, mono in enumerate(v.basis.monomials)}
    for pt, row in zip(v.point_array.tolist(), v.coords):
        vecs = twisted_copies(v, pt)
        for subset in itertools.combinations(range(n * d), d):
            minor = leibniz_det(v.field, vecs[:, subset])
            if [c // n for c in subset] != list(range(d)):
                assert minor == 0, (pt, subset)
                continue
            ev = [0] * n
            for c, s in zip(subset, exps):
                ev[c % n] += p ** s
            assert minor == row[index[tuple(ev)]], (pt, subset)
    assert scroll_plucker_check(v).tolist() == [True] * v.num_points


@pytest.mark.parametrize("p,m,n,exps", SCROLL_CONFIGS)
def test_scroll_check_fails_at_a_changed_coordinate(p, m, n, exps):
    # every coordinate is the product of some pick, so a change to any
    # nonzero entry fails its point and no other
    v = get_variety(p, m, n, exps)
    rng = np.random.default_rng(p * 1000 + m * 10 + n)
    rows, cols = np.nonzero(v.coords)
    for at in rng.choice(len(rows), size=min(5, len(rows)), replace=False):
        coords = v.coords.copy()
        i, c = rows[at], cols[at]
        coords[i, c] = v.field.add(int(coords[i, c]), 1)
        ok = scroll_plucker_check(replace(v, coords=coords))
        assert np.flatnonzero(~ok).tolist() == [i]


def test_scroll_point_on_first_axis():
    v = get_variety(3, 3, 2, (0, 0, 2))
    first = enum_points(v.field, 2).index((1, 0))
    assert scroll_plucker_check(v)[first]
    assert (v.coords[first] != 0).sum() == 1


def test_scroll_check_fails_without_the_frobenius_twist(monkeypatch):
    # with the twist dropped from the wedge side, the factor x -> x^9
    # disagrees with the embedding exactly at the points with a
    # coordinate outside GF(3), the field x^9 = x fixes
    f = Field(3, 3)
    v = build_variety(f, 2, Twist(3, 3, (0, 0, 2)))
    monkeypatch.setattr(f, "frobenius", lambda x, s: x)
    gf3 = {0, 1, 2}
    points = enum_points(f, 2)
    failed = [pt for pt, ok in zip(points, scroll_plucker_check(v))
              if not ok]
    assert failed == [pt for pt in points if not set(pt) <= gf3]
    assert (len(failed), len(points)) == (24, 28)
