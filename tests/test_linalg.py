import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistver.codes import _scalar_rank
from twistver.ff import LogOps
from twistver.linalg import (IncrementalElim, canonical, kernel_basis,
                             matmul, rank, systematic_form)
from twistver.pg import canonicalize

from conftest import get_code, get_field, mat_vec


def random_matrix(field, rows, cols, rng):
    return rng.integers(0, field.order, size=(rows, cols))


def span_size_rank(f, m: np.ndarray) -> int:
    """Independent rank oracle: |row span| = order^rank, by enumerating
    every linear combination of the rows."""
    span = set()
    for coeffs in itertools.product(range(f.order), repeat=m.shape[0]):
        v = tuple(mat_vec(f, m.T, coeffs))
        span.add(v)
    size = len(span)
    r = 0
    while f.order ** r < size:
        r += 1
    assert f.order ** r == size
    return r


# -- rank ----------------------------------------------------------------

def test_rank_identity_and_zero(gf27):
    assert rank(gf27, np.eye(4, dtype=np.int64)) == 4
    assert rank(gf27, np.zeros((3, 5), dtype=np.int64)) == 0


def test_rank_vandermonde(gf27):
    xs = [2, 5, 7, 11]  # four distinct elements of GF(27)
    rows = [[gf27.pow(x, k) for k in range(4)] for x in xs]
    assert rank(gf27, rows) == 4


def test_rank_does_not_mutate(gf27):
    m = np.array([[1, 2], [2, 4]])
    before = m.copy()
    rank(gf27, m)
    assert (m == before).all()


# -- systematic form ------------------------------------------------------

def combination(f, a, coeffs) -> list[int]:
    """sum_i coeffs[i] * column i of a, with scalar field ops."""
    out = [0] * a.shape[0]
    for i, c in enumerate(coeffs.tolist()):
        out = [f.add(x, f.mul(c, y)) for x, y in zip(out, a[:, i].tolist())]
    return out


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (5, 1)])
def test_systematic_form_agrees_with_scalar_rank(p, m):
    # checked by the brute-force oracle's scalar elimination, which shares
    # no code with linalg: rank(a) rows with the identity at the pivots,
    # spanning the row space of a
    f = get_field(p, m)
    rng = np.random.default_rng(p ** m)
    for rows, cols in [(6, 3), (5, 5), (4, 6), (7, 2), (3, 9)]:
        full = random_matrix(f, rows, cols, rng)
        r = min(rows, cols) - 1  # the columns from r on combine the first r
        deficient = full.copy()
        for j in range(r, cols):
            deficient[:, j] = combination(f, full[:, :r],
                                          rng.integers(0, f.order, r))
        for a in (full, deficient, deficient.T,
                  np.zeros((rows, cols), dtype=np.int64)):
            kept = a.copy()
            red, pivots = systematic_form(f, a)
            want = _scalar_rank(f, a.tolist())
            assert red.shape == (want, a.shape[1]) and len(pivots) == want
            assert (red[:, pivots] == np.eye(want, dtype=np.int64)).all()
            assert _scalar_rank(f, np.vstack([a, red]).tolist()) == want
            assert (a == kept).all()
        assert _scalar_rank(f, deficient.tolist()) <= r


@given(st.sampled_from([(2, 2), (3, 1), (5, 1), (3, 2)]), st.data())
@settings(max_examples=40, deadline=None)
def test_rank_equals_transpose_rank(pm, data):
    f = get_field(*pm)
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    entries = data.draw(st.lists(st.integers(0, f.order - 1),
                                 min_size=rows * cols, max_size=rows * cols))
    m = np.array(entries).reshape(rows, cols)
    assert rank(f, m) == rank(f, m.T)


@given(st.sampled_from([(2, 2), (3, 1), (5, 1)]), st.data())
@settings(max_examples=30, deadline=None)
def test_rank_against_span_size_oracle(pm, data):
    f = get_field(*pm)
    rows = data.draw(st.integers(1, 3))
    cols = data.draw(st.integers(1, 4))
    entries = data.draw(st.lists(st.integers(0, f.order - 1),
                                 min_size=rows * cols, max_size=rows * cols))
    m = np.array(entries).reshape(rows, cols)
    assert rank(f, m) == span_size_rank(f, m)


# -- kernel ----------------------------------------------------------------

def test_kernel_of_identity_is_trivial(gf27):
    assert kernel_basis(gf27, np.eye(5, dtype=np.int64)) == []


def test_kernel_single_row_gf2():
    f = get_field(2, 1)
    basis = kernel_basis(f, [[1, 1]])
    assert len(basis) == 1
    assert basis[0].tolist() == [1, 1]


@given(st.sampled_from([(2, 2), (3, 2), (5, 1)]), st.data())
@settings(max_examples=40, deadline=None)
def test_rank_nullity_and_kernel_exactness(pm, data):
    f = get_field(*pm)
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 5))
    entries = data.draw(st.lists(st.integers(0, f.order - 1),
                                 min_size=rows * cols, max_size=rows * cols))
    m = np.array(entries).reshape(rows, cols)
    basis = kernel_basis(f, m)
    assert rank(f, m) + len(basis) == cols
    for v in basis:
        assert all(x == 0 for x in mat_vec(f, m, v.tolist()))


@given(st.sampled_from([(2, 2), (3, 2), (5, 1), (2, 11)]), st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_basis_is_one_vector_per_free_column(pm, data):
    # the free columns are the columns outside systematic_form's pivots,
    # ascending, and vector i is 1 at free column i and 0 at the others,
    # so no two vectors coincide and the basis is independent
    f = get_field(*pm)
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 6))
    entries = data.draw(st.lists(st.integers(0, f.order - 1),
                                 min_size=rows * cols, max_size=rows * cols))
    m = np.array(entries).reshape(rows, cols)
    if data.draw(st.booleans()):
        m[:, -1] = m[:, 0]  # a repeated column forces a kernel vector
    _, pivots = systematic_form(f, m)
    free = [c for c in range(cols) if c not in pivots.tolist()]
    basis = kernel_basis(f, m)
    assert len(basis) == len(free)
    for i, v in enumerate(basis):
        assert v[free].tolist() == [int(j == i) for j in range(len(free))]


def test_kernel_of_dependent_six_subset_is_one_dimensional():
    # the first dependent 6-subset of the 28-point configuration over GF(27)
    code = get_code(3, 3, 2, (0, 0, 2))
    from twistver import SearchPlan, min_distance
    report = min_distance(code, SearchPlan())
    sub = code.H[:, report.witness]
    basis = kernel_basis(code.field, sub)
    assert len(basis) == 1
    assert all(x != 0 for x in basis[0])


@pytest.mark.parametrize("p,m", [(3, 3), (2, 11)])
def test_canonical_matches_the_scalar_normal_form(p, m):
    # a 3-D stack with zero vectors, against pg.canonicalize, the scalar
    # reference, on a pairwise-table field and a LogOps one
    f = get_field(p, m)
    rng = np.random.default_rng(p * m)
    a = rng.integers(0, f.order, size=(4, 30, 3))
    a[:, :5] = 0
    a[:, 5:10, 0] = 0
    canon, lead = canonical(f, a)
    assert canon.shape == a.shape and lead.shape == a.shape[:-1]
    for v, c, x in zip(a.reshape(-1, 3).tolist(), canon.reshape(-1, 3).tolist(),
                       lead.ravel().tolist()):
        if any(v):
            assert tuple(c) == canonicalize(f, v)
            assert x == next(e for e in v if e)
        else:
            assert c == v and x == 0


def test_incremental_elim_matches_rank(gf27):
    rng = np.random.default_rng(11)
    m = random_matrix(gf27, 5, 9, rng)
    elim = IncrementalElim(gf27, m)
    for sub in itertools.combinations(range(9), 4):
        elim.reset()
        ok = all(elim.push(c) for c in sub)
        assert ok == (rank(gf27, m[:, sub]) == 4)
    elim.reset()


def test_incremental_elim_frame(gf27):
    m = random_matrix(gf27, 5, 9, np.random.default_rng(23))
    plain = IncrementalElim(gf27, m)
    assert plain.push(0) and plain.push(1)
    want = [a.tolist() for a in plain.split_extensions()]

    elim = IncrementalElim(gf27, m)
    assert elim.push(0) and elim.push(1)
    elim.freeze()
    assert elim.frame == 2
    for sub in itertools.combinations(range(2, 9), 2):
        elim.reset()  # back to the frame: columns 0 and 1 stay pushed
        assert [a.tolist() for a in elim.split_extensions()] == want
        ok = all(elim.push(c) for c in sub)
        assert ok == (rank(gf27, m[:, [0, 1, *sub]]) == 4)
    elim.reset()
    assert elim.push(4)
    elim.pop()
    with pytest.raises(IndexError):
        elim.pop()  # below the frame
    assert [a.tolist() for a in elim.split_extensions()] == want


def test_incremental_elim_without_frame(gf27):
    # no freeze(): reset() empties the stack and pop() on it raises
    m = random_matrix(gf27, 4, 7, np.random.default_rng(29))
    elim = IncrementalElim(gf27, m)
    assert elim.frame == 0
    with pytest.raises(IndexError):
        elim.pop()
    for c in range(3):
        elim.push(c)
    elim.reset()
    dead, alive = elim.split_extensions()
    assert sorted(dead.tolist() + alive.tolist()) == list(range(7))
    assert alive.tolist() == [c for c in range(7) if m[:, c].any()]
    with pytest.raises(IndexError):
        elim.pop()


def test_incremental_split_extensions(gf27):
    rng = np.random.default_rng(3)
    m = random_matrix(gf27, 4, 8, rng)
    elim = IncrementalElim(gf27, m)
    assert elim.push(0)
    assert elim.push(1)
    dead, alive = elim.split_extensions()
    for c in dead.tolist():
        assert rank(gf27, m[:, [0, 1, c]]) == 2
    for c in alive.tolist():
        assert rank(gf27, m[:, [0, 1, c]]) == 3


def test_incremental_pair_groups(gf27):
    rng = np.random.default_rng(5)
    m = random_matrix(gf27, 4, 9, rng)
    elim = IncrementalElim(gf27, m)
    assert elim.push(0)
    (dead,), groups = elim.pair_groups()
    assert all(i == 0 for i, _ in groups)  # the top is the one child
    pairs = {(int(g[i]), int(g[j]))
             for _, g in groups
             for i in range(len(g)) for j in range(i + 1, len(g))}
    if dead < 0:
        for c1, c2 in itertools.combinations(range(1, 9), 2):
            expected = rank(gf27, m[:, [0, c1, c2]]) < 3
            assert ((c1, c2) in pairs) == expected


def _planted_columns(f, rows, cols, rng):
    """Random columns where column j often equals a * column i + b *
    column 0, so that mod column 0 many pairs are proportional and some
    columns are in the span of column 0; column 7 is column 4 plus
    column 0."""
    m = random_matrix(f, rows, cols, rng)
    for j in range(2, cols):
        if rng.random() < 0.6:
            i = int(rng.integers(0, j))
            a, b = (int(x) for x in rng.integers(0, f.order, size=2))
            m[:, j] = [f.add(f.mul(a, x), f.mul(b, y))
                       for x, y in zip(m[:, i].tolist(), m[:, 0].tolist())]
    m[:, 7] = [f.add(x, y) for x, y in zip(m[:, 4].tolist(),
                                           m[:, 0].tolist())]
    return m


@pytest.mark.parametrize("p,m,rows", [(3, 1, 3), (2, 2, 4), (3, 3, 4),
                                      (2, 11, 4)])
def test_pair_groups_of_children_match_rank(p, m, rows):
    # pair_groups(children) against rank, field by field, LogOps included:
    # dead[i] is the first column x with {pushed, child, x} dependent, and
    # the groups hold exactly the pairs {a, b} with {pushed, child, a, b}
    # dependent
    f = get_field(p, m)
    rng = np.random.default_rng(p * 100 + m)
    seen = set()
    for _ in range(4):
        a = _planted_columns(f, rows, 12, rng)
        elim = IncrementalElim(f, a)
        if not elim.push(0):
            continue
        _, indeps = elim.split_extensions()
        runs = [indeps[i:i + 4] for i in range(0, indeps.size, 4)]
        for run in runs:
            if run.size == 0 or run[-1] - run[0] != run.size - 1:
                continue
            lo = int(run[0])
            dead, groups = elim.pair_groups(range(lo, lo + run.size))
            for i, ch in enumerate(run.tolist()):
                bad = [x for x in range(ch + 1, 12)
                       if rank(f, a[:, [0, ch, x]]) < 3]
                assert dead[i] == (bad[0] if bad else -1)
                if bad:
                    seen.add("dead")
                    continue
                pairs = {(x, y) for x, y in itertools.combinations(
                    range(ch + 1, 12), 2) if rank(f, a[:, [0, ch, x, y]]) < 4}
                got = {(g[x], g[y]) for j, g in groups if j == i
                       for x, y in itertools.combinations(range(len(g)), 2)}
                assert got == pairs
                seen.add("pairs" if pairs else "none")
    assert {"pairs", "dead"} <= seen


def test_incremental_elim_above_pair_table_order():
    # GF(2^11) has no pairwise tables, so elimination runs on the exp/log
    # ops; push, split_extensions and pair_groups must still agree with rank
    f = get_field(2, 11)
    assert isinstance(f.ops, LogOps)
    g = f.generator
    rng = np.random.default_rng(19)
    u, v, w, x = (rng.integers(1, f.order, size=4).tolist() for _ in range(4))

    def lin(s, a, t, b):  # s*a + t*b
        return [f.add(f.mul(s, ai), f.mul(t, bi)) for ai, bi in zip(a, b)]

    # column 2 lies in span{0, 1}; 3 and 4 are proportional; 6 is in span{1, 5}
    cols = [u, v, lin(1, u, g, v), w, [f.mul(f.pow(g, 5), c) for c in w], x,
            lin(1, v, f.pow(g, 2), x)]
    m = np.array(cols).T
    elim = IncrementalElim(f, m)
    for size in (3, 4):
        for sub in itertools.combinations(range(7), size):
            elim.reset()
            ok = all(elim.push(c) for c in sub)
            assert ok == (rank(f, m[:, sub]) == size)

    elim.reset()
    assert elim.push(0) and elim.push(1)
    dead, alive = elim.split_extensions()
    assert dead.tolist() == [2]
    for c in alive.tolist():
        assert rank(f, m[:, [0, 1, c]]) == 3

    elim.reset()
    assert elim.push(0)
    (dead,), groups = elim.pair_groups()
    assert dead == -1
    pairs = {(int(gr[i]), int(gr[j]))
             for _, gr in groups
             for i in range(len(gr)) for j in range(i + 1, len(gr))}
    assert {(1, 2), (3, 4)} <= pairs
    for c1, c2 in itertools.combinations(range(1, 7), 2):
        expected = rank(f, m[:, [0, c1, c2]]) < 3
        assert ((c1, c2) in pairs) == expected


def test_elimination_above_pair_table_order():
    # rank/kernel must also work on fields too large for
    # the pairwise tables
    from twistver.ff import Field
    f = Field(2, 11)
    g = f.generator
    rows = [[1, g, 0], [0, 1, g], [g, 0, 1]]  # det = 1 + g^3, nonzero
    m = np.array(rows)
    assert rank(f, m) == 3
    dep = np.array(rows[:2] + [[f.add(a, b) for a, b in
                                zip(rows[0], rows[1])]])
    assert rank(f, dep) == 2
    basis = kernel_basis(f, dep)
    assert len(basis) == 1
    assert all(x == 0 for x in mat_vec(f, dep, basis[0].tolist()))
    assert rank(f, m[:, [0, 1, 2]]) == 3
    assert rank(f, dep[:, [0, 1, 2]]) < 3


# -- products ----------------------------------------------------------------

def poly_matmul(f, a, b) -> list:
    """a b by the field's polynomial-mode arithmetic, entry by entry."""
    return [[functools.reduce(f.add_poly, [
                f.mul_poly(int(a[i, k]), int(b[k, j]))
                for k in range(a.shape[1])]) for j in range(b.shape[1])]
            for i in range(a.shape[0])]


@pytest.mark.parametrize("p,m_", [(7, 1), (3, 3), (3, 5), (2, 10), (2, 11)])
def test_matmul_equals_polynomial_products(p, m_):
    # unbatched, batched on both sides, and one side broadcast over the
    # other's stack, against scalar products that share no code with ops;
    # GF(3^5) and GF(2^10) are table fields whose flat offsets overflow
    # int16
    f = get_field(p, m_)
    rng = np.random.default_rng(p * 100 + m_)
    for rows, inner, cols in [(1, 1, 1), (3, 3, 3), (2, 5, 4), (4, 1, 3)]:
        a = random_matrix(f, rows, inner, rng)
        b = random_matrix(f, inner, cols, rng)
        assert matmul(f, a, b).tolist() == poly_matmul(f, a, b)
        sa = rng.integers(0, f.order, size=(3, rows, inner))
        sb = rng.integers(0, f.order, size=(3, inner, cols))
        got = matmul(f, sa, sb)
        assert got.shape == (3, rows, cols)
        for i in range(3):
            assert got[i].tolist() == poly_matmul(f, sa[i], sb[i])
            assert (matmul(f, a, sb)[i].tolist()
                    == poly_matmul(f, a, sb[i]))
            assert (matmul(f, sa, b)[i].tolist()
                    == poly_matmul(f, sa[i], b))
