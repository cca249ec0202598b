import itertools
from math import comb

import numpy as np
import pytest

from twistver.pg import enum_points
from twistver.veronese import (MonomialBasis, ScrollFrame, Twist,
                               build_variety, embed_point, monomial_basis,
                               scroll_plucker_check)

from conftest import get_field, get_variety


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
        assert tuple(embed_point(f, pt, basis)) == pt


def test_expected_dimension_formula():
    tw = Twist(3, 4, (0, 0, 3))
    basis = monomial_basis(3, tw)
    assert basis.expected_N == comb(3 + 1, 2) * comb(3, 1)  # deg-2 block x deg-1 block
    assert len(basis.origin_map) == basis.expected_N


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

def test_embed_point_at_infinity_is_unit_vector(gf27):
    basis = monomial_basis(2, Twist(3, 3, (0, 0, 2)))
    vec = embed_point(gf27, (0, 1), basis)
    assert vec.tolist() == [0, 0, 0, 0, 0, 1]


def test_embed_affine_points_are_power_rows(gf27):
    basis = monomial_basis(2, Twist(3, 3, (0, 0, 2)))
    for z in range(1, 27):
        vec = embed_point(gf27, (1, z), basis)
        assert vec.tolist() == [1, z, gf27.pow(z, 2), gf27.pow(z, 9),
                                gf27.pow(z, 10), gf27.pow(z, 11)]


def test_embed_all_ones_gives_all_ones(gf27):
    basis = monomial_basis(2, Twist(3, 3, (0, 0, 1)))
    assert embed_point(gf27, (1, 1), basis).tolist() == [1] * 6


# -- variety construction --------------------------------------------------------

def test_variety_gf27_shape_and_rank():
    v = get_variety(3, 3, 2, (0, 0, 2))
    assert v.coords.shape == (28, 6)
    assert v.rank_ == 6


def test_variety_gf4_is_cubic_curve():
    v = get_variety(2, 2, 2, (0, 1))
    assert v.coords.shape == (5, 4)
    assert v.rank_ == 4
    f = v.field
    for pt, row in zip(v.points, v.coords):
        if pt[0] == 1:
            z = pt[1]
            assert row.tolist() == [1, z, f.pow(z, 2), f.pow(z, 3)]


def test_variety_classical_veronese_surface():
    v = get_variety(2, 2, 3, (0, 0))
    assert v.coords.shape == (21, 6)
    assert v.rank_ == 6


def test_variety_collapse_rank_is_effective():
    v = get_variety(2, 3, 2, (0, 0, 1))
    assert v.basis.expected_N == 6
    assert v.basis.effective_N == 5
    assert v.rank_ == 5


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
def test_scroll_plucker_agreement_exhaustive(p, m, n, exps):
    f = get_field(p, m)
    tw = Twist(p, m, exps)
    frame = ScrollFrame(n, tw)
    basis = monomial_basis(n, tw)
    assert all(scroll_plucker_check(f, pt, frame, basis)
               for pt in enum_points(f, n))


def test_scroll_wedge_coordinates_d2():
    # n = d = 2: wedge coordinates on transversal index pairs are
    # (1, a^sigma, a, a*a^sigma) for the point (1, a), all others zero
    f = get_field(2, 2)
    tw = Twist(2, 2, (0, 1))
    frame = ScrollFrame(2, tw)
    a = f.generator
    v0, v1 = frame.block_vectors(f, (1, a))
    assert v0 == [1, a, 0, 0]
    assert v1 == [0, 0, 1, f.frobenius(a, 1)]


def test_scroll_point_on_first_axis():
    f = get_field(3, 3)
    tw = Twist(3, 3, (0, 0, 2))
    frame = ScrollFrame(2, tw)
    basis = monomial_basis(2, tw)
    assert scroll_plucker_check(f, (1, 0), frame, basis)
    vec = embed_point(f, (1, 0), basis)
    assert (vec != 0).sum() == 1
