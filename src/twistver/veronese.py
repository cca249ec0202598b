"""Frobenius-twisted Veronese embeddings of PG(n-1, q^t).

A twist is a tuple of Frobenius exponents (s_0, ..., s_{d-1}), sorted
nondecreasing with s_0 = 0: factor i of the embedding applies x -> x^(p^s_i)
before the tensor product.  A point <v> is sent to the projective class of
v^(p^s_0) (x) v^(p^s_1) (x) ... (x) v^(p^s_{d-1}), whose coordinates are the
monomials of total degree norm = sum p^s_i.

Coordinates are indexed by deduplicated total exponent vectors rather than
raw tensor slots: tensor slots with the same monomial would only repeat
coordinates of the embedded point and add nothing to the rank or the
dependence structure of the point table.  The tensor slot that picks
variable i_j in factor j holds the monomial with exponent vector
sum_j p^s_j e_{i_j}.  tensor_slots walks the slots once, up to
reordering inside a block of equal exponents, which leaves the monomial
unchanged; monomial_basis dedupes their exponent vectors.  The scroll
cross-check, scroll_plucker_check, reads the point table along the same
walk: the table is the Grassmann embedding of a normal rational scroll,
so each exterior coordinate of the d twisted copies of a point is 0 or
one such monomial, and one array pass over the expected_N slots
compares every point at once.

Because norm < q^t is enforced, no per-variable exponent reaches q^t and
distinct exponent vectors are distinct functions on the field, so no
reduction mod (x^{q^t} - x) is ever needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby, product
from typing import Iterator, Sequence

import numpy as np

from .ff import Field
from .linalg import canonical
from .pg import point_count, space

MAX_POINTS = 1 << 16  # largest point set build_variety embeds

ExponentVector = tuple[int, ...]


@dataclass(frozen=True)
class Twist:
    """Validated tuple of Frobenius exponents with its derived data."""

    p: int
    m: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(sorted(self.exponents))
        object.__setattr__(self, "exponents", exps)
        if not exps:
            raise ValueError("at least one factor is required")
        if exps[0] != 0:
            raise ValueError(
                "the first Frobenius exponent must be 0 (the identity "
                "factor normalization)")
        if any(not 0 <= s < self.m for s in exps):
            raise ValueError(
                f"Frobenius exponents must lie in [0, {self.m})")
        if self.norm >= self.p ** self.m:
            raise ValueError(
                f"norm {self.norm} >= q^t = {self.p ** self.m} violates the "
                "standing assumption norm < q^t (monomials of that degree "
                "would not be distinct functions)")

    @classmethod
    def from_q_powers(cls, field: Field, hs: Sequence[int]) -> "Twist":
        """Build from powers of q = p^e, i.e. x -> x^(q^h)."""
        return cls(field.p, field.m, tuple(field.e * h for h in hs))

    @property
    def d(self) -> int:
        return len(self.exponents)

    @property
    def norm(self) -> int:
        return sum(self.p ** s for s in self.exponents)

    @property
    def blocks(self) -> list[tuple[int, int]]:
        """Distinct exponents with multiplicities, ascending: [(s, d_s), ...]."""
        return [(s, len(list(run))) for s, run in groupby(self.exponents)]

    @property
    def q_fixed(self) -> int:
        """Order of the largest subfield fixed by every twist factor.

        Identity factors fix everything, so only nonzero exponents can
        shrink the fixed field; gcd(0, m) = m makes the formula uniform.
        """
        return self.p ** math.gcd(self.m, *self.exponents)


@dataclass
class MonomialBasis:
    """Deduplicated twisted monomials coordinatizing the embedding."""

    n: int
    twist: Twist
    monomials: list[ExponentVector]  # graded-lex descending

    @property
    def effective_N(self) -> int:
        return len(self.monomials)

    @property
    def expected_N(self) -> int:
        """Tensor slots before deduplication, up to reordering inside a
        block, as tensor_slots walks them: a degree-d_j symmetric power
        of the n variables for each block (s, d_j) of the twist."""
        return math.prod(math.comb(self.n + dj - 1, dj)
                         for _, dj in self.twist.blocks)

    @property
    def collapsed(self) -> bool:
        return self.effective_N < self.expected_N


def tensor_slots(n: int, twist: Twist
                 ) -> Iterator[tuple[tuple[int, ...], ExponentVector]]:
    """Each tensor slot once, up to reordering inside a block of equal
    exponents, with its exponent vector sum_j p^s_j e_{i_j}: the pick
    (i_0, ..., i_{d-1}), aligned with twist.exponents and nondecreasing
    inside each block.  A block (s, d_j) picks a degree-d_j multiset of
    the n variables, so there are expected_N slots."""
    weights = [twist.p ** s for s in twist.exponents]
    for parts in product(*(combinations_with_replacement(range(n), dj)
                           for _, dj in twist.blocks)):
        pick = sum(parts, ())
        ev = [0] * n
        for i, weight in zip(pick, weights):
            ev[i] += weight
        yield pick, tuple(ev)


def monomial_basis(n: int, twist: Twist) -> MonomialBasis:
    """The distinct exponent vectors of the tensor slots."""
    if n < 2:
        raise ValueError("the embedding needs n >= 2 variables")
    totals = {ev for _, ev in tensor_slots(n, twist)}
    return MonomialBasis(n=n, twist=twist,
                         monomials=sorted(totals, reverse=True))


@dataclass
class VarietyMatrix:
    """Embedded image of every point of PG(n-1, q^t), one row per point.
    The table is exported as it is; codes.build_code reduces it."""

    field: Field
    n: int
    twist: Twist
    basis: MonomialBasis
    point_array: np.ndarray  # (num_points, n) int64, pg.space's points
    coords: np.ndarray  # (num_points, effective_N)

    @property
    def num_points(self) -> int:
        return len(self.point_array)

    def to_json(self) -> dict:
        return {
            "field": self.field.describe(),
            "n": self.n,
            "sigma_exponents": list(self.twist.exponents),
            "expected_N": self.basis.expected_N,
            "effective_N": self.basis.effective_N,
            "monomial_order": "lex-descending",
            "basis": [list(m) for m in self.basis.monomials],
            "points": self.point_array.tolist(),
            "coords": self.coords.tolist(),
        }


def build_variety(field: Field, n: int, twist: Twist) -> VarietyMatrix:
    """Embed every point and verify injectivity."""
    if twist.p != field.p or twist.m != field.m:
        raise ValueError("twist was built for a different field")
    num = point_count(field, n)
    if num > MAX_POINTS:
        raise ValueError(f"{num} points exceed the supported bound {MAX_POINTS}")
    point_array = space(field.p, field.m, n).points  # shared, read-only
    basis = monomial_basis(n, twist)
    coords = field.eval_monomials(point_array, basis.monomials)

    # injectivity: canonical projective representatives of rows are distinct
    if len(set(map(tuple, canonical(field, coords)[0].tolist()))) != num:
        raise AssertionError("embedding failed injectivity check")

    return VarietyMatrix(field=field, n=n, twist=twist, basis=basis,
                         point_array=point_array, coords=coords)


# ---------------------------------------------------------------------------
# Scroll / Grassmann cross-check
# ---------------------------------------------------------------------------

def scroll_plucker_check(variety: VarietyMatrix) -> np.ndarray:
    """One bool per point (rows of variety.point_array): whether the
    wedge of the d twisted copies of the point agrees with its row of
    variety.coords, the table build_code reduces.

    Copy j lives on coordinates [j*n, (j+1)*n) of V(nd) and carries the
    j-th Frobenius twist.  A d-subset of the nd indices that misses a
    block leaves that block's copy a zero row in the d x d minor, so the
    exterior coordinate is 0 by construction and needs no computing.  A
    subset that picks one index j*n + i_j per block gives a diagonal
    minor: its determinant is the product over j of x_{i_j}^(p^s_j), the
    monomial with exponent vector sum_j p^s_j e_{i_j} at the point.
    Sorted subsets with blocks in order make the sign convention +1.
    Reordering a pick among copies of one exponent leaves its product
    unchanged, so each of the expected_N tensor_slots is one product per
    point, compared with its monomial's column."""
    field, twist = variety.field, variety.twist
    mul = field.ops.mul
    copies = [field.frobenius(variety.point_array, s)
              for s in twist.exponents]
    index = {mono: c for c, mono in enumerate(variety.basis.monomials)}
    ok = np.ones(variety.num_points, dtype=bool)
    for pick, ev in tensor_slots(variety.n, twist):
        minor = copies[0][:, pick[0]]
        for copy, i in zip(copies[1:], pick[1:]):
            minor = mul[minor, copy[:, i]]
        ok &= minor == variety.coords[:, index[ev]]
    return ok
