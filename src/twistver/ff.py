"""Exact arithmetic in GF(p^m) with Frobenius maps and subfield tests.

Conventions
-----------
An element with coefficient vector (c_0, ..., c_{m-1}) over F_p, where c_i
multiplies x^i in the residue ring F_p[x]/(modulus), is encoded as the
integer sum(c_i * p**i).  Zero is 0, one is 1; for m = 1 the encoding is
the usual residue mod p.

The defining modulus is the lexicographically smallest monic irreducible
polynomial of degree m over F_p, comparing coefficient tuples
(a_{m-1}, ..., a_1, a_0) in ascending order.  The choice is deterministic
and table-free.  Cross-field embeddings are out of scope (subfield
membership is decided by x^{q'} = x), so Conway-style compatibility is not
needed.

Every field carries exp/log tables over its smallest primitive element.
They and the operation tables below are built once per (p, m) in a
process and shared, read-only, by every Field of that order; an LRU
cache keeps the FIELD_CACHE_SIZE fields used last (at most 8 MiB each),
and a search worker forked from the process inherits it.
`Field.ops` is the one element arithmetic: add, sub, neg, mul, div and
inv, written as lookups (`ops.mul[a, b]`) on numpy arrays or single
elements, and the fused multiply-add `ops.fma(x, c, y)` = x + c * y,
entrywise with numpy broadcasting, the step of linalg.matmul's sum of
products.  LogOps computes them by exp/log gathers and digit-wise base-p
addition (XOR when p = 2), and its fma as add[x, mul[c, y]].  Up to
PAIR_TABLE_MAX `ops` is FieldTables, LogOps tabulated once into a
pairwise int16 table per operation, so each operation has one
implementation; its fma reads the mul and add tables by two flat `take`s
instead of two 2-D gathers.  The scalar methods are one `ops` read
each; `Field.pow` and `Field.eval_monomials` gather in the log domain.
The polynomial helpers are the one polynomial arithmetic: they find the
modulus and the generator and build the exp table, and add_poly,
sub_poly and mul_poly are the references the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub

import numpy as np

DEFAULT_MAX_ORDER = 1 << 20  # largest p^m accepted
PAIR_TABLE_MAX = 1 << 10     # full pairwise numpy tables up to this order
FIELD_CACHE_SIZE = 16        # fields whose arithmetic a process keeps


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomials over F_p: coefficient lists, ascending powers, trailing zeros
# trimmed ([] is the zero polynomial).
# ---------------------------------------------------------------------------

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def poly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _trim(out)


def poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    """Remainder of a modulo a monic polynomial."""
    a = a[:]
    dm = len(mod) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        shift = len(a) - 1 - dm
        if lead:
            for i, c in enumerate(mod):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return _trim(a)


def poly_powmod(a: list[int], k: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    base = poly_rem(a, mod, p)
    while k:
        if k & 1:
            result = poly_rem(poly_mul(result, base, p), mod, p)
        base = poly_rem(poly_mul(base, base, p), mod, p)
        k >>= 1
    return result


def poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        # make b monic before reducing, so poly_rem applies
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        a, b = b, poly_rem(a, bm, p)
    return a


def is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test for a monic polynomial of degree >= 1 over F_p."""
    m = len(f) - 1
    if m < 1:
        return False
    x = [0, 1]
    xr = poly_rem(x, f, p)
    # x^(p^m) == x mod f
    if poly_sub(poly_powmod(x, p ** m, f, p), xr, p):
        return False
    for r in prime_factors(m):
        h = poly_sub(poly_powmod(x, p ** (m // r), f, p), xr, p)
        g = poly_gcd(f, h, p)
        if len(g) - 1 != 0:
            return False
    return True


def _digits(a: int, p: int, m: int) -> list[int]:
    """The m base-p digits of a, lowest first: an element's coefficients."""
    out = []
    for _ in range(m):
        out.append(a % p)
        a //= p
    return out


def lex_smallest_irreducible(p: int, m: int) -> list[int]:
    """First monic irreducible of degree m over F_p, scanning coefficient
    tuples (a_{m-1}, ..., a_1, a_0) in ascending lexicographic order."""
    for k in range(p ** m):
        f = _digits(k, p, m) + [1]
        if is_irreducible(f, p):
            return f
    raise RuntimeError(f"no irreducible polynomial of degree {m} over F_{p}")


def _find_generator(p: int, m: int, modulus: list[int]) -> int:
    """The smallest primitive element, found in polynomial arithmetic."""
    n = p ** m - 1
    if n == 1:
        return 1
    factors = prime_factors(n)
    for g in range(2, n + 1):
        coeffs = _digits(g, p, m)
        if all(poly_powmod(coeffs, n // r, modulus, p) != [1] for r in factors):
            return g
    raise RuntimeError("no primitive element found")  # unreachable


def _exp_table(p: int, m: int, modulus: list[int], g: int) -> np.ndarray:
    """exp[i] = g^i for 0 <= i < p^m - 1.

    Multiplying by g^k is F_p-linear on coefficient vectors, so the
    powers k..2k-1 are the powers 0..k-1 times the matrix of g^k, and
    squaring that matrix doubles k.
    """
    n = p ** m - 1
    # row i holds the coefficients of x^i * g^k, starting from k = 1
    step, coeffs_g = np.zeros((m, m), dtype=np.int64), _digits(g, p, m)
    for i in range(m):
        row = poly_rem(poly_mul([0] * i + [1], coeffs_g, p), modulus, p)
        step[i, :len(row)] = row
    coeffs = np.zeros((1, m), dtype=np.int64)
    coeffs[0, 0] = 1
    while len(coeffs) < n:
        block = coeffs[:n - len(coeffs)] @ step % p
        coeffs = np.concatenate([coeffs, block])
        step = step @ step % p
    return (coeffs @ p ** np.arange(m, dtype=np.int64)).astype(LogOps.dtype)


@dataclass(frozen=True)
class FieldTables:
    """Pairwise numpy operation tables, LogOps.tabulate's result: the
    array ops of a field of order <= PAIR_TABLE_MAX, one gather per
    operation (`mul[a, b]`, `neg[a]`), and fma(x, c, y) = x + c * y as
    two `take`s on the flattened mul and add tables.

    All arrays are indexed by the integer element encoding.  Division by
    zero and the inverse of zero read 0; callers reject them first.
    """

    dtype = np.int16

    add: np.ndarray
    sub: np.ndarray
    neg: np.ndarray
    mul: np.ndarray
    div: np.ndarray
    inv: np.ndarray

    def fma(self, x, c, y):
        """x + c * y entrywise, with numpy broadcasting.  Entry (a, b) of
        a flattened table is at a * Q + b, Q the order; the offsets are
        intp, since they overflow int16 once Q^2 > 32767."""
        order = self.neg.size
        prod = self.mul.ravel().take(np.multiply(c, order, dtype=np.intp) + y)
        return self.add.ravel().take(np.multiply(x, order, dtype=np.intp) + prod)


class _Computed:
    """Indexed like a FieldTables array; computes the entries instead."""

    def __init__(self, fn):
        self._fn = fn

    def __getitem__(self, key):
        return self._fn(*key) if isinstance(key, tuple) else self._fn(key)


class LogOps:
    """The array ops of any field by exp/log gathers and digit-wise
    addition, indexed like FieldTables so that callers need not know
    which they hold; fma(x, c, y) = x + c * y is add[x, mul[c, y]].
    Division by zero and the inverse of zero give 0."""

    dtype = np.int32

    def __init__(self, p: int, m: int, exp: np.ndarray, log: np.ndarray):
        self.p, self.m = p, m
        self._exp, self._log = exp, log
        self.add = _Computed(lambda a, b: self._digitwise(a, b, 1))
        self.sub = _Computed(lambda a, b: self._digitwise(a, b, -1))
        self.neg = _Computed(lambda a: self._digitwise(0, a, -1))
        self.mul = _Computed(lambda a, b: self._via_log(a, b, 1))
        self.div = _Computed(lambda a, b: self._via_log(a, b, -1))
        self.inv = _Computed(lambda a: self._via_log(1, a, -1))

    def fma(self, x, c, y):
        """x + c * y entrywise, with numpy broadcasting."""
        return self.add[x, self.mul[c, y]]

    def _digitwise(self, a, b, sign: int):
        if self.p == 2:
            return a ^ b
        # a // p**i is congruent to digit i of a mod p, so one reduction
        # per digit suffices
        out, pw = 0, 1
        for _ in range(self.m):
            out = out + (a // pw + sign * (b // pw)) % self.p * pw
            pw *= self.p
        return out

    def _via_log(self, a, b, sign: int):
        out = self._exp[(self._log[a] + sign * self._log[b]) % self._exp.size]
        # a mask, not np.where, which would make a 0-d array of one element
        return out * ((a != 0) & (b != 0))

    def tabulate(self) -> FieldTables:
        """These ops, every entry of each gathered once into FieldTables."""
        order = self.p ** self.m
        a, b = np.ogrid[:order, :order]
        x = np.arange(order)
        add, mul, neg, inv = self.add[a, b], self.mul[a, b], self.neg[x], self.inv[x]
        # a - b = a + (-b) and a / b = a * b^-1: one gather each
        t = dict(add=add, sub=add[:, neg], neg=neg, mul=mul, div=mul[:, inv], inv=inv)
        return FieldTables(**{k: _read_only(v.astype(FieldTables.dtype))
                              for k, v in t.items()})


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=FIELD_CACHE_SIZE)
def _arithmetic(p: int, m: int) -> tuple[
        tuple[int, ...], int, np.ndarray, np.ndarray, FieldTables | LogOps]:
    """(modulus, generator, exp, log, ops) of GF(p^m), built once and
    kept for the FIELD_CACHE_SIZE fields used last in this process.

    Every Field of this (p, m) shares the result, so every array in it is
    read-only.  One field holds about 8 MiB at most: four int16 pairwise
    tables, 8 * Q^2 bytes at Q = PAIR_TABLE_MAX, or int32 exp and log
    tables, 8 * Q bytes at Q = DEFAULT_MAX_ORDER.  The cache holds at most
    FIELD_CACHE_SIZE * 8 MiB = 128 MiB, and it holds the sweep's largest
    set of fields of one characteristic (the 11 of p = 2), which the grid
    visits once for each n.
    """
    order = p ** m
    modulus = lex_smallest_irreducible(p, m)
    generator = _find_generator(p, m, modulus)
    exp = _read_only(_exp_table(p, m, modulus, generator))
    # log[0] stays 0 and must never be consulted for the zero element
    log = np.zeros(order, dtype=np.int32)
    log[exp] = np.arange(order - 1, dtype=np.int32)
    ops = LogOps(p, m, exp, _read_only(log))
    # pairwise tables would need order^2 entries above PAIR_TABLE_MAX
    if order <= PAIR_TABLE_MAX:
        ops = ops.tabulate()
    return tuple(modulus), generator, exp, log, ops


class Field:
    """The field GF(p^m), optionally viewed as F_{q^t} with q = p^e.

    The (e, t) split only labels the field for reporting and for
    power-of-q automorphism input; arithmetic depends on p and m alone.
    So every Field of one (p, m) shares its modulus, generator, exp/log
    tables and `ops`, built once per process (see _arithmetic) and
    read-only: constructing a Field again only checks its arguments.
    `ops` does the arithmetic; the scalar methods are one `ops` read
    each, because pg and the brute-force oracle call them one element at
    a time.
    """

    def __init__(self, p: int, m: int, e: int = 1):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree m = {m} must be >= 1")
        if e < 1 or m % e:
            raise ValueError(f"e = {e} does not divide m = {m}")
        order = p ** m
        if order > DEFAULT_MAX_ORDER:
            raise ValueError(
                f"p^m = {order} exceeds the supported bound {DEFAULT_MAX_ORDER}")
        self.p = p
        self.m = m
        self.e = e
        self.t = m // e
        self.q = p ** e
        self.order = order
        (self.modulus, self.generator, self._exp, self._log,
         self.ops) = _arithmetic(p, m)

    # -- encoding ----------------------------------------------------------

    def to_coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (c_0, ..., c_{m-1}) of an element."""
        return tuple(_digits(a, self.p, self.m))

    def from_coeffs(self, coeffs) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + c % self.p
        return a

    def elements(self) -> range:
        return range(self.order)

    def check_element(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element encoding of GF({self.order})")
        return a

    # -- polynomial mode: the test references (from_coeffs reduces each
    # coefficient mod p)

    def add_poly(self, a: int, b: int) -> int:
        return self.from_coeffs(map(add, self.to_coeffs(a), self.to_coeffs(b)))

    def sub_poly(self, a: int, b: int) -> int:
        return self.from_coeffs(map(sub, self.to_coeffs(a), self.to_coeffs(b)))

    def mul_poly(self, a: int, b: int) -> int:
        prod = poly_mul(list(self.to_coeffs(a)), list(self.to_coeffs(b)), self.p)
        return self.from_coeffs(poly_rem(prod, list(self.modulus), self.p))

    # -- scalar arithmetic: one ops read each --------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.ops.add[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.ops.sub[a, b])

    def neg(self, a: int) -> int:
        return int(self.ops.neg[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.ops.mul[a, b])

    # ops reads 0 for these, so the scalar methods check zero first
    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return int(self.ops.inv[a])

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return int(self.ops.div[a, b])

    def pow(self, a, k: int):
        """a ** k for k >= 0 (0 ** 0 = 1), of an element or entrywise of an
        array: one log/exp gather."""
        # int64, since log * k overflows int32
        logs = self._log[a] * np.int64(k) % (self.order - 1)
        out = self._exp[logs] * ((a != 0) | (k == 0))
        return out if isinstance(a, np.ndarray) else int(out)

    def eval_monomials(self, points, exponents) -> np.ndarray:
        """Table of prod_j points[i][j] ** exponents[k][j]: one row per
        point, one column per exponent vector, with 0^0 = 1.  Exponents
        add up in the log domain; a zero coordinate under a positive
        exponent zeroes the entry."""
        pts = np.asarray(points, dtype=np.int64)
        exps = np.asarray(exponents, dtype=np.int64)
        s = (self._log[pts].astype(np.int64) @ exps.T) % (self.order - 1)
        vanish = (pts == 0).astype(np.int64) @ (exps > 0).T.astype(np.int64)
        return np.where(vanish > 0, 0, self._exp[s]).astype(np.int64)

    def frobenius(self, a, s: int):
        """a^(p^s), the s-th power of the absolute Frobenius, of an
        element or, entrywise through pow, of an array of them."""
        if not 0 <= s < self.m:
            raise ValueError(f"Frobenius exponent s = {s} out of range [0, {self.m})")
        if s == 0:
            return a
        return self.pow(a, self.p ** s)

    # -- subfields -----------------------------------------------------------

    def subfield_orders(self) -> list[int]:
        return [self.p ** s for s in range(1, self.m + 1) if self.m % s == 0]

    def subfield_elements(self, q_sub: int) -> list[int]:
        """All solutions of x^{q_sub} = x, i.e. the subfield of that
        order, ascending: zero and the powers of g^((order-1)/(q_sub-1))."""
        if q_sub not in self.subfield_orders():
            raise ValueError(
                f"{q_sub} is not a subfield order of GF({self.order})")
        step = (self.order - 1) // (q_sub - 1)
        return [0] + sorted(self._exp[::step].tolist())

    # -- reporting -------------------------------------------------------------

    def describe(self) -> dict:
        return {"p": self.p, "e": self.e, "t": self.t,
                "modulus": list(self.modulus)}

    def modulus_str(self) -> str:
        terms = []
        for i in range(self.m, -1, -1):
            c = self.modulus[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                x = "x" if i == 1 else f"x^{i}"
                terms.append(x if c == 1 else f"{c}{x}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"Field(p={self.p}, m={self.m}, e={self.e})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field)
                and (self.p, self.m, self.e) == (other.p, other.m, other.e))

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.e))
