"""Frobenius-twisted Veronese embeddings of PG(n-1, q^t).

A twist is a tuple of Frobenius exponents (s_0, ..., s_{d-1}), sorted
nondecreasing with s_0 = 0: factor i of the embedding applies x -> x^(p^s_i)
before the tensor product.  A point <v> is sent to the projective class of
v^(p^s_0) (x) v^(p^s_1) (x) ... (x) v^(p^s_{d-1}), whose coordinates are the
monomials of total degree norm = sum p^s_i.

Coordinates are indexed by deduplicated total exponent vectors rather than
raw tensor slots: repeated monomials would only produce proportional rows
of the point table and contribute nothing to its rank or dependence
structure.  The origin map keeps the per-factor multi-index labelling so
the tensor picture (and the Grassmann/scroll cross-check) stays available.

Because norm < q^t is enforced, no per-variable exponent reaches q^t and
distinct exponent vectors are distinct functions on the field, so no
reduction mod (x^{q^t} - x) is ever needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from typing import Optional, Sequence

import numpy as np

from .ff import Field
from .linalg import det, systematic_form
from .pg import ProjPoint, enum_points, point_count

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
        out: list[tuple[int, int]] = []
        for s in self.exponents:
            if out and out[-1][0] == s:
                out[-1] = (s, out[-1][1] + 1)
            else:
                out.append((s, 1))
        return out

    @property
    def q_fixed(self) -> int:
        """Order of the largest subfield fixed by every twist factor.

        Identity factors fix everything, so only nonzero exponents can
        shrink the fixed field; gcd(0, m) = m makes the formula uniform.
        """
        g = self.m
        for s in self.exponents:
            g = math.gcd(g, s)
        return self.p ** g


@dataclass
class MonomialBasis:
    """Deduplicated twisted monomials coordinatizing the embedding."""

    n: int
    twist: Twist
    monomials: list[ExponentVector]          # graded-lex descending
    origin_map: dict[tuple, int]             # per-block multi-index -> index
    expected_N: int
    effective_N: int

    @property
    def collapsed(self) -> bool:
        return self.effective_N < self.expected_N


def monomial_basis(n: int, twist: Twist) -> MonomialBasis:
    """Enumerate per-block degree-d_j exponent vectors, combine, dedupe.

    The per-block multi-index is a nondecreasing tuple of variable indices
    of length d_j; its exponent vector is scaled by p^s_j and the block
    contributions are summed into the total exponent vector.
    """
    if n < 2:
        raise ValueError("the embedding needs n >= 2 variables")
    blocks = twist.blocks
    per_block: list[list[tuple[tuple[int, ...], ExponentVector]]] = []
    for s, dj in blocks:
        scale = twist.p ** s
        entries = []
        for multi in combinations_with_replacement(range(n), dj):
            ev = [0] * n
            for v in multi:
                ev[v] += scale
            entries.append((multi, tuple(ev)))
        per_block.append(entries)

    expected = 1
    for entries in per_block:
        expected *= len(entries)

    origin: dict[tuple, ExponentVector] = {}
    for combo in product(*per_block):
        key = tuple(multi for multi, _ in combo)
        total = [0] * n
        for _, ev in combo:
            for k in range(n):
                total[k] += ev[k]
        origin[key] = tuple(total)

    monomials = sorted(set(origin.values()), reverse=True)
    index = {mono: i for i, mono in enumerate(monomials)}
    origin_map = {key: index[mono] for key, mono in origin.items()}
    return MonomialBasis(n=n, twist=twist, monomials=monomials,
                         origin_map=origin_map, expected_N=expected,
                         effective_N=len(monomials))


def embed_point(field: Field, point: ProjPoint, basis: MonomialBasis) -> np.ndarray:
    """Evaluate every basis monomial at the point (0^0 = 1)."""
    return field.eval_monomials([point], basis.monomials)[0]


@dataclass
class VarietyMatrix:
    """Embedded image of every point of PG(n-1, q^t), one row per point,
    and coords.T in systematic form: the same row space, so the same
    kernel and the same dependent column sets."""

    field: Field
    n: int
    twist: Twist
    basis: MonomialBasis
    points: list[ProjPoint]
    point_array: np.ndarray  # (num_points, n) int64, the points as rows
    coords: np.ndarray  # (num_points, effective_N)
    reduced: np.ndarray  # (rank_, num_points), reduced[:, pivots] = I
    pivots: np.ndarray

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def rank_(self) -> int:
        return len(self.pivots)

    def to_json(self) -> dict:
        return {
            "field": self.field.describe(),
            "n": self.n,
            "sigma_exponents": list(self.twist.exponents),
            "expected_N": self.basis.expected_N,
            "effective_N": self.basis.effective_N,
            "monomial_order": "lex-descending",
            "basis": [list(m) for m in self.basis.monomials],
            "points": [list(p) for p in self.points],
            "coords": self.coords.tolist(),
        }


def build_variety(field: Field, n: int, twist: Twist) -> VarietyMatrix:
    """Embed every point, verify injectivity, reduce the table once."""
    if twist.p != field.p or twist.m != field.m:
        raise ValueError("twist was built for a different field")
    num = point_count(field, n)
    if num > MAX_POINTS:
        raise ValueError(f"{num} points exceed the supported bound {MAX_POINTS}")
    pts = enum_points(field, n)
    point_array = np.array(pts, dtype=np.int64)
    basis = monomial_basis(n, twist)
    coords = field.eval_monomials(point_array, basis.monomials)

    # injectivity: canonical projective representatives of rows are distinct
    lead = coords[np.arange(len(pts)), (coords != 0).argmax(axis=1)]
    canon = field.ops.div[coords, lead[:, None]]
    if len(set(map(tuple, canon.tolist()))) != len(pts):
        raise AssertionError("embedding failed injectivity check")

    reduced, pivots = systematic_form(field, coords.T)
    return VarietyMatrix(field=field, n=n, twist=twist, basis=basis,
                         points=pts, point_array=point_array, coords=coords,
                         reduced=reduced, pivots=pivots)


# ---------------------------------------------------------------------------
# Scroll / Grassmann cross-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScrollFrame:
    """d twisted copies of PG(n-1) on disjoint coordinate blocks of V(nd).

    Copy j lives on coordinates [j*n, (j+1)*n) (the block shift sends
    basis vector e_i to e_{i+n}, indices mod n*d) and carries the j-th
    Frobenius twist.
    """

    n: int
    twist: Twist

    @property
    def d(self) -> int:
        return self.twist.d

    def block_vectors(self, field: Field, point: ProjPoint) -> list[list[int]]:
        n, d = self.n, self.d
        vecs = []
        for j, s in enumerate(self.twist.exponents):
            v = [0] * (n * d)
            for i, x in enumerate(point):
                v[j * n + i] = field.frobenius(x, s)
            vecs.append(v)
        return vecs


def scroll_plucker_check(field: Field, point: ProjPoint, frame: ScrollFrame,
                         basis: Optional[MonomialBasis] = None) -> bool:
    """Wedge the d block vectors and compare with the tensor coordinates.

    Exterior coordinates over d-subsets of the nd ambient indices must
    vanish unless the subset picks exactly one index per block; on such
    transversal subsets the row-per-block matrix is diagonal, so the
    determinant equals the plain product of block entries, i.e. the tensor
    coordinate of the embedded point.  Sorted subsets with blocks in order
    make the sign convention +1.
    """
    n, d = frame.n, frame.d
    if basis is None:
        basis = monomial_basis(n, frame.twist)
    vecs = frame.block_vectors(field, point)
    embedded = embed_point(field, point, basis)
    blocks = frame.twist.blocks

    for subset in combinations(range(n * d), d):
        coord = det(field, [[vecs[r][c] for c in subset] for r in range(d)])
        owners = [c // n for c in subset]
        if owners != list(range(d)):
            if coord != 0:
                return False
            continue
        # group the factor indices by distinct twist block, nondecreasing
        key = []
        pos = 0
        for _, dj in blocks:
            key.append(tuple(sorted(c % n for c in subset[pos:pos + dj])))
            pos += dj
        expected = embedded[basis.origin_map[tuple(key)]]
        if coord != expected:
            return False
    return True
