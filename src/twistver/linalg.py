"""Exact dense linear algebra over a Field.

A matrix is a bare 2-D numpy array (or anything np.array turns into one)
of integer element encodings, passed with its field: rank(field, a),
kernel_basis(field, a), systematic_form(field, a), matmul(field, a, b).
Entries are trusted to be encodings of that field; the callers build
them from its own tables.
There is one elimination, systematic_form, which works on a copy by the
row rule: rows are taken top to bottom, and each row's pivot is its
first nonzero column once the rows before it are eliminated; rank and
kernel_basis read its result.  It is fully general over an exact field,
and all results are deterministic.
canonical(field, a), the one projective normal form, scales each vector
along the last axis of a so that its first nonzero entry is 1.
Every entry operation goes through the field's array ops (`Field.ops`),
a whole row or block at a time, so all fields up to ff.DEFAULT_MAX_ORDER
run the same code.  matmul(field, a, b), batched like np.matmul, adds up
its products one inner index at a time with the fused `ops.fma`; it is
the column-symmetry certificate's product (codes._is_column_symmetry).

The subset-independence workhorse is IncrementalElim: a stack of
column-reduced copies of a fixed matrix that lets a subset-enumeration
loop push/pop one column at a time and test span membership of every
remaining column with a single vectorized scan.  pair_groups classifies
every 2-extension at once by grouping proportional reduced columns, for
a whole run of children of the top without pushing them, or for the top
alone as its one child: one children x width x N array, one sort of
exact integer keys and one result shape.  Its frame is a bottom of the
stack that reset() returns to and pop() never removes, so a search
pushes the columns every subset shares once (codes.min_distance).
This is the performance-critical path; everything else favours clarity.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ff import Field


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------

def systematic_form(field: Field, a) -> tuple[np.ndarray, np.ndarray]:
    """(rows, pivots) of the row rule: a basis of the row space of a with
    rows[:, pivots] the identity, so len(pivots) = rank(a).  Kept row i
    is divided by its pivot entry and its pivot column pivots[i] is
    cleared from every other row; a row that is zero by then is dropped.
    Once every column has a pivot the rest are zero, so the loop stops."""
    a = np.array(a, dtype=np.int64)
    ops = field.ops
    kept, pivots = [], []
    for r, row in enumerate(a):
        if len(pivots) == a.shape[1]:
            break
        nz = np.flatnonzero(row)
        if nz.size:
            c = int(nz[0])
            lead = int(row[c])
            if lead != 1:
                row[:] = ops.div[row, lead]
            factors = a[:, c].copy()
            factors[r] = 0
            a[:] = ops.sub[a, ops.mul[factors[:, None], row]]
            kept.append(r)
            pivots.append(c)
    return a[kept], np.array(pivots, dtype=np.int64)


def rank(field: Field, a) -> int:
    return len(systematic_form(field, a)[1])


def kernel_basis(field: Field, a) -> list[np.ndarray]:
    """Basis of {v : A v = 0}: one vector per free column, a column not
    among systematic_form's pivots, free columns ascending.  Free column
    f's vector has 1 at f, 0 at the other free columns and the negated
    reduced column f at the pivots."""
    rows, pivots = systematic_form(field, a)
    ncols = rows.shape[1]
    bound = set(pivots.tolist())
    basis = []
    for fc in (c for c in range(ncols) if c not in bound):
        v = np.zeros(ncols, dtype=np.int64)
        v[fc] = 1
        v[pivots] = field.ops.neg[rows[:, fc]]
        basis.append(v)
    return basis


def canonical(field: Field, a) -> tuple[np.ndarray, np.ndarray]:
    """(canon, lead): each vector along the last axis of the array a
    divided by its first nonzero entry, lead, so that that entry is 1.
    A zero vector stays zero, with lead 0."""
    flat = a.reshape(-1, a.shape[-1])
    lead = flat[np.arange(len(flat)), (flat != 0).argmax(axis=1)]
    canon = field.ops.div[flat, lead[:, None]]
    return canon.reshape(a.shape), lead.reshape(a.shape[:-1])


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def matmul(field: Field, a, b) -> np.ndarray:
    """The product a b over field, batched over the leading axes like
    np.matmul: both have at least 2 axes, and the last axis of a meets
    the second last of b in a sum of products, one term at a time: the
    first by ops.mul, each further one added by one ops.fma."""
    ops = field.ops
    a, b = np.asarray(a), np.asarray(b)
    acc = ops.mul[a[..., :1], b[..., :1, :]]
    for k in range(1, a.shape[-1]):
        acc = ops.fma(acc, a[..., k:k + 1], b[..., k:k + 1, :])
    return acc


@lru_cache(maxsize=None)
def _key_packing(order: int, rows: int) -> np.ndarray:
    """rows x K matrix P: for columns of entries below `order`, c @ P is
    K exact int64 keys, each holding `per` consecutive entries of `bits`
    bits, so equal keys mean equal columns."""
    bits = (order - 1).bit_length()
    per = 63 // bits
    i = np.arange(rows)
    pack = np.zeros((rows, -(-rows // per)), dtype=np.int64)
    pack[i, i // per] = 1 << bits * (i % per)
    pack.setflags(write=False)
    return pack


class IncrementalElim:
    """Incremental column elimination against a fixed matrix.

    The matrix columns are candidate vectors; push(c) adds column c to the
    current independent set (or reports that it lies in the current span),
    pop() backtracks, and split_extensions() classifies every column to
    the right of the last push as in-span / independent in one vectorized
    scan.  Each stack level keeps its own reduced copy, so pop is O(1) and
    a worker owns its state exclusively.  freeze() makes the columns
    pushed so far the frame: reset() returns to it and pop() below it
    raises IndexError.
    """

    def __init__(self, field: Field, columns: np.ndarray):
        ops = field.ops
        self._field = field
        self._sub = ops.sub
        self._div = ops.div
        self._mul = ops.mul
        base = np.ascontiguousarray(columns, dtype=ops.dtype)
        self.rows, self.ncols = base.shape
        self._pack = _key_packing(field.order, self.rows)
        self._stack: list[tuple[int, np.ndarray]] = [(-1, base)]
        self.frame = 0  # the number of columns in the frame

    def freeze(self) -> None:
        """Make every column pushed so far part of the frame."""
        self.frame = len(self._stack) - 1

    def reset(self) -> None:
        del self._stack[self.frame + 1:]

    def push(self, c: int) -> bool:
        """Add column c; False (state unchanged) if it is in the span."""
        _, r = self._stack[-1]
        col = r[:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            return False
        prow = int(nz[0])
        tail = r[:, c + 1:]
        coef = self._div[tail[prow], int(col[prow])]
        # columns left of c are never revisited (ascending pushes), so the
        # child only carries the reduced tail
        child = np.empty_like(r)
        child[:, c + 1:] = self._sub[tail, self._mul[col[:, None], coef[None, :]]]
        self._stack.append((c, child))
        return True

    def pop(self) -> None:
        if len(self._stack) == self.frame + 1:
            raise IndexError("no pushed column above the frame to pop")
        self._stack.pop()

    def split_extensions(self) -> tuple[np.ndarray, np.ndarray]:
        """(in_span, independent) column indices right of the last push."""
        c, r = self._stack[-1]
        tail = r[:, c + 1:]
        alive = tail.any(axis=0)
        idx = np.arange(c + 1, self.ncols)
        return idx[~alive], idx[alive]

    def pair_groups(self, children: range | None = None):
        """Classify the 2-extensions of a run of children at once.

        {pushed} + {a, b} is dependent exactly when the reduced columns a
        and b are proportional, i.e. when their canonical forms (scaled
        so the first nonzero entry is 1) coincide.  children, a range of
        consecutive columns right of the last push, each outside the
        span, asks this of S_i = {pushed} + {children[i]} for every child
        at once, without pushing: one children x width x N array of
        reduced columns and one sort.  Without children there is one
        child, S_0 = {pushed}, and children[0] stands for the last push.

        Returns (dead, groups), one entry of dead per child: dead[i] is
        the first column right of children[i] in the span of S_i, or -1.
        groups lists (i, group) for the children with dead[i] = -1,
        ordered by (i, group[0]), where a group is a maximal ascending
        list (>= 2) of columns right of children[i] with S_i + {a, b}
        dependent for every pair in it.  So groups[0] gives the
        lexicographically first dependent (children[i], group[0],
        group[1]).
        """
        c, r = self._stack[-1]
        if children is None:
            return self._groups(r[:, c + 1:].T[None], c + 1)
        lo, hi = children.start, children.stop
        tail = r[:, lo + 1:]
        cols = r[:, lo:hi]
        prow = (cols != 0).argmax(axis=0)
        coef = self._div[tail[prow], cols[prow, np.arange(hi - lo)][:, None]]
        tails = self._sub[tail.T[None], self._mul[coef[:, :, None],
                                                  cols.T[:, None, :]]]
        return self._groups(tails, lo + 1)

    def _groups(self, tails: np.ndarray, first: int):
        """(dead, groups) of pair_groups for a B x W x N stack of reduced
        columns whose position 0 is column `first`, one child per column
        from first - 1 on: child i counts only the positions right of
        i - 1, its own."""
        size, width, n = tails.shape
        dead = np.full(size, -1, dtype=np.int64)
        if width == 0:
            return dead, []
        keep = np.arange(width) >= np.arange(size)[:, None]
        lost = keep & ~tails.any(axis=2)
        has = lost.any(axis=1)
        if has.any():
            dead[has] = lost[has].argmax(axis=1) + first
            if has.all():
                return dead, []
            keep &= ~has[:, None]
        keys = canonical(self._field, tails.reshape(-1, n))[0] @ self._pack
        # a stable sort keeps equal keys in (child, column) order, so the
        # proportional columns of a child end up adjacent and ascending
        order = np.lexsort(keys.T)
        srt = keys[order]
        at = np.flatnonzero((srt[1:] == srt[:-1]).all(axis=1))
        a, b = order[at], order[at + 1]
        kept = keep.ravel()  # neighbours of one child, both counted
        ok = (a // width == b // width) & kept[a] & kept[b]
        at, a, b = at[ok], a[ok], b[ok]
        # chain equal neighbours into maximal groups
        runs: list[list[int]] = []
        prev = -2
        for i, x, y in zip(at.tolist(), a.tolist(), b.tolist()):
            if i == prev + 1:
                runs[-1].append(y)
            else:
                runs.append([x, y])
            prev = i
        runs.sort()  # by child, then by first column
        return dead, [(g[0] // width, [x % width + first for x in g])
                      for g in runs]
