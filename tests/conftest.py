import itertools
from functools import lru_cache

import numpy as np
import pytest

import twistver.codes as codes_mod
from twistver import (Field, Twist, build_code, build_variety,
                      classify_min_words, min_distance)
from twistver.linalg import matmul


def get_field(p, m, e=1):
    return Field(p, m, e=e)


@lru_cache(maxsize=None)
def get_variety(p, m, n, exps, e=1):
    field = get_field(p, m, e)
    twist = Twist(p, m, exps)
    return build_variety(field, n, twist)


def get_code(p, m, n, exps, e=1):
    return build_code(get_variety(p, m, n, exps, e))


def mat_vec(field, a, v):
    """The product of the matrix a and the vector v over field, a list."""
    column = np.asarray(v, dtype=np.int64)[:, None]
    return matmul(field, a, column)[:, 0].tolist()


def leibniz_det(f, m: np.ndarray) -> int:
    """The Leibniz expansion, sum of sign(perm) * prod_i m[i, perm[i]],
    in the field's polynomial-mode arithmetic; the sign is (-1)^(n -
    number of cycles)."""
    n = m.shape[0]
    total = 0
    for perm in itertools.permutations(range(n)):
        term, cycles, seen = 1, 0, set()
        for i in range(n):
            term = f.mul_poly(term, int(m[i, perm[i]]))
            if i not in seen:
                cycles += 1
                j = i
                while j not in seen:
                    seen.add(j)
                    j = perm[j]
        odd = (n - cycles) % 2
        total = (f.sub_poly if odd else f.add_poly)(total, term)
    return total


def classify_counted_and_full(code, monkeypatch, plan=None):
    """classify_min_words on the counted path (k = 2: the supports through
    columns 0 and 1) and on the full path (k = 0: every support), reached
    by letting no generator pass as a column symmetry."""
    counted = classify_min_words(code, min_distance(code, plan), plan)
    with monkeypatch.context() as m:
        m.setattr(codes_mod, "_is_column_symmetry", lambda *a: False)
        full = classify_min_words(code, min_distance(code, plan), plan)
    return counted, full


@pytest.fixture
def no_bound(monkeypatch):
    """A cyclic bound of 2, which proves no level empty: the search scans
    every level from w = 2, as it did before the bound, so a test of the
    scan's mechanics can drive the levels the bound would skip."""
    monkeypatch.setattr(codes_mod, "cyclic_bound", lambda basis: 2)


@pytest.fixture
def gf27():
    return get_field(3, 3)


@pytest.fixture
def gf16():
    return get_field(2, 4)
