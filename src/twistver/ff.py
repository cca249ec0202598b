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
`Field.ops` is the one element arithmetic: add, sub, neg, mul, div and
inv, written as lookups (`ops.mul[a, b]`) on numpy arrays or single
elements.  Up to PAIR_TABLE_MAX it is FieldTables, one gather into a
pairwise int16 table per operation; above, LogOps computes the same
entries by exp/log gathers and digit-wise base-p addition (XOR when
p = 2).  The scalar methods are one `ops` read each; `Field.pow` and
`Field.eval_monomials` gather in the log domain.
The polynomial helpers are the one polynomial arithmetic: they find the
modulus and the generator, mul_poly builds the exp table, and add_poly,
sub_poly and mul_poly are the references the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

import numpy as np

DEFAULT_MAX_ORDER = 1 << 20  # largest p^m accepted
PAIR_TABLE_MAX = 1 << 10     # full pairwise numpy tables up to this order


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


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


def lex_smallest_irreducible(p: int, m: int) -> list[int]:
    """First monic irreducible of degree m over F_p, scanning coefficient
    tuples (a_{m-1}, ..., a_1, a_0) in ascending lexicographic order."""
    for k in range(p ** m):
        low = []
        kk = k
        for _ in range(m):
            low.append(kk % p)
            kk //= p
        f = low + [1]
        if is_irreducible(f, p):
            return f
    raise RuntimeError(f"no irreducible polynomial of degree {m} over F_{p}")


@dataclass(frozen=True)
class FieldTables:
    """Pairwise numpy operation tables: the array ops of a field of order
    <= PAIR_TABLE_MAX, one gather per operation (`mul[a, b]`, `neg[a]`).

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


class _Computed:
    """Indexed like a FieldTables array; computes the entries instead."""

    def __init__(self, fn):
        self._fn = fn

    def __getitem__(self, key):
        return self._fn(*key) if isinstance(key, tuple) else self._fn(key)


class LogOps:
    """The array ops of any field by exp/log gathers and digit-wise
    addition, indexed like FieldTables so that callers need not know
    which they hold.  Division by zero and the inverse of zero give 0."""

    dtype = np.int32

    def __init__(self, field: Field):
        self.p, self.m = field.p, field.m
        self._exp, self._log = field._exp, field._log
        self.add = _Computed(lambda a, b: self._digitwise(a, b, 1))
        self.sub = _Computed(lambda a, b: self._digitwise(a, b, -1))
        self.neg = _Computed(lambda a: self._digitwise(0, a, -1))
        self.mul = _Computed(lambda a, b: self._via_log(a, b, 1))
        self.div = _Computed(lambda a, b: self._via_log(a, b, -1))
        self.inv = _Computed(lambda a: self._via_log(1, a, -1))

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
        return np.where((a == 0) | (b == 0), 0, out)

    def tabulate(self) -> FieldTables:
        p, order = self.p, self.p ** self.m
        a, b = np.ogrid[:order, :order]
        x = np.arange(order)
        # the addition table of GF(p^(k+1)) from that of GF(p^k): the top
        # digit, the slow index of an encoding, adds mod p on its own
        digit = (x[:p, None] + x[None, :p]) % p
        add = digit
        while len(add) < order:
            n = len(add)
            add = (digit[:, None, :, None] * n
                   + add[None, :, None, :]).reshape(n * p, n * p)
        # -a is the b with a + b = 0, the smallest entry of row a
        mul, neg, inv = self.mul[a, b], np.argmin(add, axis=1), self.inv[x]
        # a - b = a + (-b) and a / b = a * b^-1: one gather each
        t = dict(add=add, sub=add[:, neg], neg=neg, mul=mul, div=mul[:, inv], inv=inv)
        return FieldTables(**{k: v.astype(FieldTables.dtype) for k, v in t.items()})


class Field:
    """The field GF(p^m), optionally viewed as F_{q^t} with q = p^e.

    The (e, t) split only labels the field for reporting and for
    power-of-q automorphism input; arithmetic depends on p and m alone.
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
        self.modulus: tuple[int, ...] = tuple(lex_smallest_irreducible(p, m))

        self.generator = self._find_generator()
        self._exp = self._exp_table()
        # log[0] stays 0 and must never be consulted for the zero element
        self._log = np.zeros(order, dtype=np.int32)
        self._log[self._exp] = np.arange(order - 1, dtype=np.int32)
        self._subfields: dict[int, list[int]] = {}
        log_ops = LogOps(self)
        # pairwise tables would need order^2 entries above PAIR_TABLE_MAX
        self.ops: FieldTables | LogOps = (
            log_ops.tabulate() if order <= PAIR_TABLE_MAX else log_ops)

    # -- encoding ----------------------------------------------------------

    def to_coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (c_0, ..., c_{m-1}) of an element."""
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

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

    # -- polynomial mode: mul_poly builds the exp table; all three are test
    # references (from_coeffs reduces each coefficient mod p)

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
        logs = self._log[a].astype(np.int64) * k % (self.order - 1)
        out = np.where(a == 0, int(k == 0), self._exp[logs])
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
        if q_sub not in self._subfields:
            if q_sub not in self.subfield_orders():
                raise ValueError(
                    f"{q_sub} is not a subfield order of GF({self.order})")
            step = (self.order - 1) // (q_sub - 1)
            self._subfields[q_sub] = [0] + sorted(self._exp[::step].tolist())
        return list(self._subfields[q_sub])

    # -- tables ---------------------------------------------------------------

    def _find_generator(self) -> int:
        n = self.order - 1
        if n == 1:
            return 1
        factors = prime_factors(n)
        mod = list(self.modulus)
        for g in range(2, self.order):
            # the tables do not exist yet: polynomial mode
            coeffs = list(self.to_coeffs(g))
            if all(poly_powmod(coeffs, n // r, mod, self.p) != [1] for r in factors):
                return g
        raise RuntimeError("no primitive element found")  # unreachable

    def _exp_table(self) -> np.ndarray:
        """exp[i] = g^i for 0 <= i < order - 1, g the generator.

        Multiplying by g^k is F_p-linear on coefficient vectors, so the
        powers k..2k-1 are the powers 0..k-1 times the matrix of g^k, and
        squaring that matrix doubles k.
        """
        p, m, n = self.p, self.m, self.order - 1
        # row i holds the coefficients of x^i * g^k, starting from k = 1
        step = np.array([self.to_coeffs(self.mul_poly(p ** i, self.generator))
                         for i in range(m)], dtype=np.int64)
        coeffs = np.zeros((1, m), dtype=np.int64)
        coeffs[0, 0] = 1
        while len(coeffs) < n:
            block = coeffs[:n - len(coeffs)] @ step % p
            coeffs = np.concatenate([coeffs, block])
            step = step @ step % p
        return (coeffs @ p ** np.arange(m, dtype=np.int64)).astype(LogOps.dtype)

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
