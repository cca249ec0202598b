import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistver.ff import (FIELD_CACHE_SIZE, Field, FieldTables, LogOps,
                         _arithmetic, is_irreducible, is_prime,
                         lex_smallest_irreducible, poly_mul, poly_powmod,
                         prime_factors)

from conftest import get_field


# -- modulus selection -------------------------------------------------------

def test_gf4_modulus_is_unique_irreducible_quadratic():
    assert Field(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1


def _scan_irreducible_cubics_mod3():
    """Independent oracle: trial products of lower-degree monic factors."""
    # all monic cubics as (a2, a1, a0) ascending lex; reducible iff equal to
    # (x + c) * (monic quadratic) for some c
    reducible = set()
    for c in range(3):
        for b1 in range(3):
            for b0 in range(3):
                prod = poly_mul([c, 1], [b0, b1, 1], 3)
                prod = prod + [0] * (4 - len(prod))
                reducible.add((prod[2], prod[1], prod[0]))
    for a2 in range(3):
        for a1 in range(3):
            for a0 in range(3):
                if (a2, a1, a0) not in reducible:
                    return [a0, a1, a2, 1]
    raise AssertionError("no irreducible cubic found")


def test_gf27_modulus_matches_exhaustive_scan():
    expected = _scan_irreducible_cubics_mod3()
    assert expected == [1, 2, 0, 1]  # x^3 + 2x + 1
    assert list(Field(3, 3).modulus) == expected


def test_prime_field_modulus_is_x():
    f = Field(5, 1)
    assert f.modulus == (0, 1)
    assert f.mul(3, 4) == 2
    assert f.add(3, 4) == 2


def test_field_construction_errors():
    with pytest.raises(ValueError):
        Field(4, 2)
    with pytest.raises(ValueError):
        Field(2, 0)
    with pytest.raises(ValueError):
        Field(2, 30)  # beyond the default bound
    with pytest.raises(ValueError):
        Field(2, 4, e=3)  # e does not divide m


def test_lex_order_of_modulus_scan():
    # the scan must reject x^4 + 1 = (x^2+x+2)(x^2+2x+2) over F_3 before
    # accepting the true lex-smallest quartic
    assert not is_irreducible([1, 0, 0, 0, 1], 3)
    mod = lex_smallest_irreducible(3, 4)
    assert is_irreducible(mod, 3)
    assert list(get_field(3, 4).modulus) == mod


# -- arithmetic laws ---------------------------------------------------------

FIELDS = [(2, 4), (3, 3), (5, 2), (7, 1), (2, 1), (3, 4)]


@pytest.mark.parametrize("p,m", FIELDS)
def test_multiplicative_group_cyclic(p, m):
    f = get_field(p, m)
    order = p ** m
    g = f.generator
    seen = {1}
    x = 1
    for _ in range(order - 2):
        x = f.mul(x, g)
        seen.add(x)
    assert len(seen) == order - 1


def test_generator_is_the_smallest_primitive_element():
    # every field of order <= 4096, and GF(2^13), a LogOps field
    fields = [(p, m) for p in range(2, 4097) if is_prime(p)
              for m in range(1, 13) if p ** m <= 4096] + [(2, 13)]
    assert len(fields) == 605
    for p, m in fields:
        f = Field(p, m)
        n, g = f.order - 1, f.generator
        # exp lists the powers of g, all q - 1 nonzero elements once each
        assert f._exp[1 % n] == g
        assert (np.sort(f._exp) == np.arange(1, f.order)).all()
        # c = g^k is primitive iff gcd(k, q - 1) = 1
        assert math.gcd(int(f._log[g]), n) == 1
        assert (np.gcd(f._log[2:g], n) > 1).all(), (p, m)


@pytest.mark.parametrize("p,m", FIELDS)
def test_inverses(p, m):
    f = get_field(p, m)
    for x in range(1, f.order):
        assert f.mul(x, f.inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=60, deadline=None)
def test_frobenius_is_field_automorphism(pm, data):
    f = get_field(*pm)
    x = data.draw(st.integers(0, f.order - 1))
    y = data.draw(st.integers(0, f.order - 1))
    s = data.draw(st.integers(0, f.m - 1))
    assert f.frobenius(f.mul(x, y), s) == f.mul(f.frobenius(x, s), f.frobenius(y, s))
    assert f.frobenius(f.add(x, y), s) == f.add(f.frobenius(x, s), f.frobenius(y, s))
    assert f.frobenius(x, 0) == x


@given(st.sampled_from(FIELDS), st.data())
@settings(max_examples=40, deadline=None)
def test_frobenius_order_divides_m(pm, data):
    f = get_field(*pm)
    x = data.draw(st.integers(0, f.order - 1))
    s = data.draw(st.integers(0, f.m - 1))
    y = x
    reps = f.m // math.gcd(s, f.m) if s else 1
    for _ in range(reps):
        y = f.frobenius(y, s)
    assert y == x


def test_frobenius_fixes_prime_subfield(gf27):
    for x in (0, 1, 2):
        assert gf27.frobenius(x, 1) == x


def test_frobenius_on_gf4_swaps_generators():
    f = get_field(2, 2)
    g = f.generator
    g2 = f.frobenius(g, 1)
    assert g2 != g and g2 not in (0, 1)
    assert g2 == f.add(g, 1)


def test_frobenius_range_errors(gf27):
    with pytest.raises(ValueError):
        gf27.frobenius(1, 3)
    with pytest.raises(ValueError):
        gf27.frobenius(1, -1)


# -- dual representation -----------------------------------------------------

@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (5, 2), (3, 4), (2, 8)])
def test_table_and_polynomial_modes_agree(p, m):
    # every entry of all six tables against the polynomial references;
    # GF(81) is an odd-p field of degree 4
    f = get_field(p, m)
    t = f.ops
    assert isinstance(t, FieldTables)
    x = list(range(f.order))
    assert t.neg.tolist() == [f.sub_poly(0, b) for b in x]
    assert t.inv[0] == 0
    assert [f.mul_poly(c, b) for c, b in zip(t.inv[1:].tolist(), x[1:])] \
        == [1] * (f.order - 1)
    for a in x:
        assert t.add[a].tolist() == [f.add_poly(a, b) for b in x]
        assert t.sub[a].tolist() == [f.sub_poly(a, b) for b in x]
        assert t.mul[a].tolist() == [f.mul_poly(a, b) for b in x]
        assert t.div[a, 0] == 0
        assert [f.mul_poly(c, b) for c, b in zip(t.div[a, 1:].tolist(), x[1:])] \
            == [a] * (f.order - 1)


def test_pair_tables_consistent(gf27):
    t = gf27.ops
    for a in range(27):
        for b in range(27):
            assert int(t.add[a, b]) == gf27.add_poly(a, b)
            assert int(t.mul[a, b]) == gf27.mul_poly(a, b)
            assert int(t.sub[a, b]) == gf27.sub_poly(a, b)
            if b:
                assert gf27.mul(int(t.div[a, b]), b) == a


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (3, 4)])
def test_pair_ops_match_log_ops(p, m):
    f = get_field(p, m)
    pair, log = f.ops, LogOps(f.p, f.m, f._exp, f._log)
    assert isinstance(pair, FieldTables)
    a, b = np.divmod(np.arange(f.order ** 2), f.order)  # every pair
    for op in ("add", "sub", "mul", "div"):
        assert (getattr(pair, op)[a, b] == getattr(log, op)[a, b]).all(), op
    x = np.arange(f.order)
    assert (pair.neg[x] == log.neg[x]).all()
    assert (pair.inv[x] == log.inv[x]).all()


def _both_fmas(f):
    """(FieldTables, LogOps) of a field of order <= PAIR_TABLE_MAX."""
    pair, log = f.ops, LogOps(f.p, f.m, f._exp, f._log)
    assert isinstance(pair, FieldTables)
    return pair, log


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3)])
def test_fma_on_every_triple(p, m):
    # every (x, c, y) as one broadcast of three axes, against
    # add_poly(x, mul_poly(c, y)) read from tables of the references
    f = get_field(p, m)
    x = list(range(f.order))
    add = np.array([[f.add_poly(a, b) for b in x] for a in x])
    mul = np.array([[f.mul_poly(a, b) for b in x] for a in x])
    xs, cs, ys = np.ogrid[:f.order, :f.order, :f.order]
    want = add[xs, mul[cs, ys]]
    for ops in _both_fmas(f):
        got = ops.fma(xs, cs, ys)
        assert got.shape == (f.order,) * 3
        assert (got == want).all(), type(ops).__name__


@pytest.mark.parametrize("p,m", [(3, 5), (2, 10)])
def test_fma_where_int16_offsets_overflow(p, m):
    # Q^2 > 32767, so a flat offset c * Q + y wraps in int16; random
    # triples, int16 operands like the tables' own entries, broadcast
    # shapes and one scalar triple
    f = get_field(p, m)
    assert f.order ** 2 > np.iinfo(np.int16).max
    rng = np.random.default_rng(p * 100 + m)
    top = f.order - 1
    for shapes in [((300,), (300,), (300,)), ((3, 1, 4), (1, 5, 1), (5, 4)),
                   ((), (6, 1), (1, 7)), ((), (), ())]:
        x, c, y = (rng.integers(0, f.order, size=s).astype(np.int16)
                   for s in shapes)
        if x.ndim:
            x[..., 0], c[..., 0], y[..., 0] = top, top, top
        bx, bc, by = (a.ravel().tolist() for a in np.broadcast_arrays(x, c, y))
        want = [f.add_poly(a, f.mul_poly(b, d)) for a, b, d in zip(bx, bc, by)]
        for ops in _both_fmas(f):
            got = np.asarray(ops.fma(x, c, y))
            assert got.shape == np.broadcast_shapes(*shapes)
            assert got.ravel().tolist() == want, type(ops).__name__


@pytest.mark.parametrize("p,m", [(2, 11), (3, 7)])
def test_log_ops_match_polynomial_mode(p, m):
    f = get_field(p, m)
    ops = f.ops
    assert isinstance(ops, LogOps)
    rng = np.random.default_rng(31)
    a = rng.integers(0, f.order, size=400)
    b = rng.integers(0, f.order, size=400)
    a[:10] = 0
    b[10:20] = 0
    pairs = list(zip(a.tolist(), b.tolist()))
    assert ops.add[a, b].tolist() == [f.add_poly(x, y) for x, y in pairs]
    assert ops.sub[a, b].tolist() == [f.sub_poly(x, y) for x, y in pairs]
    assert ops.mul[a, b].tolist() == [f.mul_poly(x, y) for x, y in pairs]
    assert [f.add_poly(x, y) for x, y in zip(ops.neg[a].tolist(), a.tolist())] \
        == [0] * a.size
    nz = b != 0
    quot, inv = ops.div[a[nz], b[nz]].tolist(), ops.inv[b[nz]].tolist()
    for x, y, qt, iv in zip(a[nz].tolist(), b[nz].tolist(), quot, inv):
        assert f.mul_poly(qt, y) == x and f.mul_poly(iv, y) == 1


@pytest.mark.parametrize("p,m", [(3, 3), (2, 11), (3, 7)])
def test_scalar_methods_read_ops(p, m):
    f = get_field(p, m)
    ops = f.ops
    assert isinstance(ops, FieldTables if f.order <= 1 << 10 else LogOps)
    rng = np.random.default_rng(p * 100 + m)
    a = rng.integers(0, f.order, size=200)
    b = rng.integers(0, f.order, size=200)
    a[:10] = 0
    b[10:20] = 0
    for x, y in zip(a.tolist(), b.tolist()):
        got = (f.add(x, y), f.sub(x, y), f.neg(x), f.mul(x, y))
        assert all(type(v) is int for v in got)
        assert got == (int(ops.add[x, y]), int(ops.sub[x, y]),
                       int(ops.neg[x]), int(ops.mul[x, y]))
        assert got == (f.add_poly(x, y), f.sub_poly(x, y), f.sub_poly(0, x),
                       f.mul_poly(x, y))
        if y:
            assert f.div(x, y) == int(ops.div[x, y])
            assert f.mul_poly(f.div(x, y), y) == x
            assert f.inv(y) == int(ops.inv[y])
            assert f.mul_poly(f.inv(y), y) == 1
        for k in (0, 1, 2, p, f.order - 1, f.order, 3 * f.order + 5):
            want = f.from_coeffs(poly_powmod(list(f.to_coeffs(x)), k,
                                             list(f.modulus), p))
            assert f.pow(x, k) == want == int(f.pow(np.array([x]), k)[0])
            assert type(f.pow(x, k)) is int
    assert f.pow(0, 0) == 1 and f.pow(0, 1) == 0
    # ops reads 0 here; only the scalar methods reject zero
    assert int(ops.div[5, 0]) == int(ops.inv[0]) == 0
    for x in (0, 1, 5):
        with pytest.raises(ZeroDivisionError):
            f.div(x, 0)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


# -- the per-process arithmetic -------------------------------------------------

def test_fields_of_one_order_share_their_arithmetic():
    a, b, c = Field(2, 4), Field(2, 4), Field(2, 4, e=2)
    for name in ("ops", "_exp", "_log", "modulus"):
        assert getattr(a, name) is getattr(b, name) is getattr(c, name)
    assert (c.e, c.t, c.q) == (2, 2, 4) and (a.e, a.t, a.q) == (1, 4, 2)
    assert Field(3, 4).ops is not a.ops


@pytest.mark.parametrize("p,m", [(3, 3), (2, 11)])
def test_shared_arrays_are_read_only(p, m):
    f = Field(p, m)
    arrays = [f._exp, f._log]
    if isinstance(f.ops, FieldTables):
        arrays += [getattr(f.ops, k)
                   for k in ("add", "sub", "neg", "mul", "div", "inv")]
    for a in arrays:
        with pytest.raises(ValueError):
            a[1] = 0
    assert f.mul(2, 1) == 2 and f._exp[1] == f.generator


@pytest.mark.parametrize("p,m", [(3, 3), (2, 11)])
def test_cached_arithmetic_equals_a_fresh_build(p, m):
    cached = Field(p, m)
    _arithmetic.cache_clear()
    fresh = Field(p, m)
    assert fresh.ops is not cached.ops and fresh._exp is not cached._exp
    assert (fresh.modulus, fresh.generator) == (cached.modulus, cached.generator)
    for old, new in [(cached._exp, fresh._exp), (cached._log, fresh._log)]:
        assert old.dtype == new.dtype and (old == new).all()
    if isinstance(cached.ops, FieldTables):
        for k in ("add", "sub", "neg", "mul", "div", "inv"):
            old, new = getattr(cached.ops, k), getattr(fresh.ops, k)
            assert old.dtype == new.dtype and (old == new).all(), k
    else:
        assert isinstance(fresh.ops, LogOps)
        # every 4099th pair of the 2^22
        a, b = np.divmod(np.arange(0, fresh.order ** 2, 4099), fresh.order)
        for k in ("add", "sub", "mul", "div"):
            assert (getattr(cached.ops, k)[a, b]
                    == getattr(fresh.ops, k)[a, b]).all(), k


def test_the_cache_evicts_the_least_recently_used_field():
    primes = [p for p in range(2, 1000) if is_prime(p)][:FIELD_CACHE_SIZE + 1]
    _arithmetic.cache_clear()
    first = [Field(p, 1).ops for p in primes[:-1]]
    assert _arithmetic.cache_info().currsize == FIELD_CACHE_SIZE
    Field(primes[0], 1)  # now the most recently used
    Field(primes[-1], 1)  # one field too many: evicts primes[1]
    assert _arithmetic.cache_info().currsize == FIELD_CACHE_SIZE
    assert Field(primes[0], 1).ops is first[0]
    assert all(Field(p, 1).ops is ops
               for p, ops in zip(primes[2:-1], first[2:]))
    rebuilt = Field(primes[1], 1).ops
    assert rebuilt is not first[1]
    assert (rebuilt.mul == first[1].mul).all()


def test_equality_and_hash_follow_p_m_e():
    a = Field(3, 4)
    _arithmetic.cache_clear()
    b = Field(3, 4)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != Field(3, 4, e=2) and a != Field(3, 2) and a != (3, 4, 1)
    assert hash(Field(3, 4, e=2)) == hash((3, 4, 2))
    assert len({a, b, Field(3, 4, e=2)}) == 2


# -- element enumeration and subfields ---------------------------------------

@pytest.mark.parametrize("p,m", FIELDS)
def test_enumeration_is_bijection(p, m):
    f = get_field(p, m)
    coeffs = {f.to_coeffs(x) for x in f.elements()}
    assert len(coeffs) == f.order
    for x in f.elements():
        assert f.from_coeffs(f.to_coeffs(x)) == x


def test_subfield_sizes():
    f16 = get_field(2, 4)
    assert len(f16.subfield_elements(4)) == 4
    f27 = get_field(3, 3)
    assert f27.subfield_elements(3) == [0, 1, 2]
    assert f27.subfield_elements(27) == list(range(27))
    with pytest.raises(ValueError):
        f16.subfield_elements(8)


@pytest.mark.parametrize("p,m", [(2, 4), (2, 6), (3, 2), (3, 4), (5, 2)])
def test_subfield_elements_match_fixed_points_of_pow(p, m):
    f = get_field(p, m)
    for q_sub in f.subfield_orders():
        expected = [x for x in f.elements() if f.pow(x, q_sub) == x]
        got = f.subfield_elements(q_sub)
        assert got == expected
        got.append(-1)  # callers get their own list
        assert f.subfield_elements(q_sub) == expected


def test_subfield_is_closed():
    f = get_field(2, 4)
    sub = f.subfield_elements(4)
    for a in sub:
        for b in sub:
            assert f.add(a, b) in sub
            assert f.mul(a, b) in sub


def test_describe_roundtrip(gf27):
    d = gf27.describe()
    assert d == {"p": 3, "e": 1, "t": 3, "modulus": [1, 2, 0, 1]}


def test_prime_helpers():
    assert is_prime(2) and is_prime(97) and not is_prime(1) and not is_prime(91)
    sieve = np.ones(10_000, dtype=bool)
    sieve[:2] = False
    for f in range(2, 100):
        sieve[f * f::f] = False
    assert [n for n in range(-2, 10_000) if is_prime(n)] == \
        np.flatnonzero(sieve).tolist()
    assert prime_factors(12) == [2, 3]
    assert prime_factors(1) == []


# -- monomial evaluation --------------------------------------------------------

@pytest.mark.parametrize("p,m", [(2, 1), (2, 4), (3, 3), (7, 1), (2, 11)])
def test_eval_monomials_matches_scalar_pow(p, m):
    f = get_field(p, m)
    rng = np.random.default_rng(p * 100 + m)
    pts = rng.integers(0, f.order, size=(40, 3))
    pts[:8] = 0  # zero coordinates, including the all-zero row
    pts[8:16, 1] = 0
    exps = rng.integers(0, 3 * f.order, size=(6, 3))
    exps[0] = 0  # the constant monomial: 0^0 = 1
    exps[1, 0] = 0
    table = f.eval_monomials(pts.tolist(), exps.tolist())
    assert table.shape == (40, 6) and table.dtype == np.int64
    for i, pt in enumerate(pts.tolist()):
        for k, ex in enumerate(exps.tolist()):
            acc = 1
            for x, e in zip(pt, ex):
                acc = f.mul(acc, f.pow(x, e))
            assert table[i, k] == acc, (pt, ex)


@pytest.mark.parametrize("p,m", [(2, 4), (3, 2), (7, 1), (2, 11)])
def test_array_pow_matches_repeated_multiplication(p, m):
    # the reference multiplies out a ** k in polynomial mode, without the
    # exp/log tables the array form reads
    f = get_field(p, m)
    rng = np.random.default_rng(p * 100 + m)
    a = rng.integers(0, f.order, size=(3, 12))
    a[0, :2] = 0
    for k in (0, 1, 2, f.order - 1, f.order, 3 * f.order + 5):
        got = f.pow(a, k)
        assert got.shape == a.shape
        for x, y in zip(a.ravel().tolist(), got.ravel().tolist()):
            want = int(k == 0)  # 0 ** 0 = 1 and 0 ** k = 0
            if x:
                want = 1
                for _ in range(k % (f.order - 1)):  # x ** (Q-1) = 1
                    want = f.mul_poly(want, x)
            assert y == want, (x, k)
