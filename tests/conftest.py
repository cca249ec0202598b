from functools import lru_cache

import numpy as np
import pytest

import twistver.codes as codes_mod
from twistver import (Field, Twist, build_code, build_variety,
                      classify_min_words, min_distance)


@lru_cache(maxsize=None)
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
    ops = field.ops
    terms = ops.mul[np.asarray(a), np.asarray(v, dtype=np.int64)]
    acc = np.zeros(terms.shape[0], dtype=np.int64)
    for j in range(terms.shape[1]):
        acc = ops.add[acc, terms[:, j]]
    return acc.tolist()


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
def gf27():
    return get_field(3, 3)


@pytest.fixture
def gf16():
    return get_field(2, 4)
