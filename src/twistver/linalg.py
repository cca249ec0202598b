"""Exact dense linear algebra over a Field.

A matrix is a bare 2-D numpy array (or anything np.array turns into one)
of integer element encodings, passed with its field: rank(field, a),
kernel_basis(field, a), det(field, a).  Entries are trusted to be
encodings of that field; the callers build them from its own tables.
Elimination works on a copy and uses a first-nonzero pivot scan, which is
fully general over an exact field, and all results are deterministic.
Every entry operation goes through the field's array ops (`Field.ops`),
a whole row or block at a time, so all fields up to ff.DEFAULT_MAX_ORDER
run the same code.

The subset-independence workhorse is IncrementalElim: a stack of
column-reduced copies of a fixed matrix that lets a subset-enumeration
loop push/pop one column at a time and test span membership of every
remaining column with a single vectorized scan.  pair_groups classifies
every 2-extension at once by grouping proportional reduced columns, and
does so for a whole run of children of the top without pushing them: one
children x width x N array and one sort of exact integer keys.  Its
frame is a bottom of the stack that reset() returns to and pop() never
removes, so a search pushes the columns every subset shares once
(codes.min_distance).  This is the performance-critical path; everything
else favours clarity.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .ff import Field


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------

def _row_echelon(field: Field, a: np.ndarray) -> list[tuple[int, int]]:
    """In-place reduced row echelon; returns [(pivot_row, pivot_col), ...].

    Deterministic: columns scanned left to right, pivot is the first row
    with a nonzero entry at or below the current one.
    """
    ops = field.ops
    rows, cols = a.shape
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        piv = int(a[r, c])
        if piv != 1:
            a[r] = ops.div[a[r], piv]
        # rows with factor 0, the pivot row among them, are left unchanged
        factors = a[:, c].copy()
        factors[r] = 0
        a[:] = ops.sub[a, ops.mul[factors[:, None], a[r]]]
        pivots.append((r, c))
        r += 1
    return pivots


def rank(field: Field, a) -> int:
    return len(_row_echelon(field, np.array(a, dtype=np.int64)))


def kernel_basis(field: Field, a) -> list[np.ndarray]:
    """Basis of {v : A v = 0}, in reduced echelon form.

    One basis vector per free column, free columns ascending; vector k has
    entry 1 at its free column and the negated reduced coefficients at the
    pivot columns.
    """
    a = np.array(a, dtype=np.int64)
    pivots = _row_echelon(field, a)
    pivot_rows = [r for r, _ in pivots]
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(a.shape[1]) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = np.zeros(a.shape[1], dtype=np.int64)
        v[fc] = 1
        v[pivot_cols] = field.ops.neg[a[pivot_rows, fc]]
        basis.append(v)
    return basis


def is_independent(field: Field, a: np.ndarray,
                   column_subset: Sequence[int]) -> bool:
    """True iff the selected columns have rank equal to the subset size."""
    cols = list(column_subset)
    if len(set(cols)) != len(cols):
        raise ValueError("duplicate column indices")
    for c in cols:
        if not 0 <= c < a.shape[1]:
            raise ValueError(f"column index {c} out of range")
    elim = IncrementalElim(field, a)
    return all(elim.push(c) for c in sorted(cols))


def det(field: Field, a) -> int:
    """Determinant of a square matrix by fraction-free-style elimination."""
    a = np.array(a, dtype=np.int64)
    if a.shape[0] != a.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    ops = field.ops
    n = a.shape[0]
    sign_flips = 0
    acc = 1
    for c in range(n):
        nz = np.nonzero(a[c:, c])[0]
        if nz.size == 0:
            return 0
        pr = c + int(nz[0])
        if pr != c:
            a[[c, pr]] = a[[pr, c]]
            sign_flips += 1
        piv = int(a[c, c])
        acc = field.mul(acc, piv)
        below = a[c + 1:]  # a view: only rows below the pivot are eliminated
        factors = ops.div[below[:, c], piv]
        below[:] = ops.sub[below, ops.mul[factors[:, None], a[c]]]
    if sign_flips % 2 and field.p != 2:
        acc = field.neg(acc)
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

    def pair_groups(self, children: range | None = None,
                    lex_first: bool = False):
        """Classify 2-extensions of the current independent set at once.

        {pushed} + {a, b} is dependent exactly when the reduced columns a
        and b are proportional, i.e. when their canonical forms (scaled
        so the first nonzero entry is 1) coincide.  Without children,
        returns (in_span, groups): the columns right of the last push that
        are already in the span, or else the maximal groups (>= 2,
        ascending, by first column) of mutually proportional columns.

        children, a range of consecutive columns right of the last push,
        each outside the span, asks the same of {pushed} + {child} for
        every child at once, without pushing: one children x width x N
        array of reduced columns and one sort.  Returns (dead, groups):
        dead[i] is the first column right of children[i] in the span of
        {pushed} + {children[i]}, or -1, and groups lists (i, group) for
        the children with dead[i] = -1, ordered by (i, group[0]), so that
        groups[0] gives the lexicographically first dependent
        (children[i], group[0], group[1]).  lex_first, for a scan that
        stops at its first hit, lists only that first group, cut to the
        two columns it needs.  Groups are ascending lists of columns.
        """
        c, r = self._stack[-1]
        if children is None:
            tail = r[:, c + 1:]
            dead, groups = self._groups(tail.T[None], c + 1, True, lex_first)
            if dead[0] >= 0:
                return np.flatnonzero(~tail.any(axis=0)) + (c + 1), []
            return np.empty(0, dtype=np.int64), [g for _, g in groups]
        lo, hi = children.start, children.stop
        tail = r[:, lo + 1:]
        cols = r[:, lo:hi]
        prow = (cols != 0).argmax(axis=0)
        coef = self._div[tail[prow], cols[prow, np.arange(hi - lo)][:, None]]
        tails = self._sub[tail.T[None], self._mul[coef[:, :, None],
                                                  cols.T[:, None, :]]]
        return self._groups(tails, lo + 1, hi - lo == 1, lex_first)

    def _groups(self, tails: np.ndarray, first: int, single: bool,
                lex_first: bool):
        """(dead, groups) of pair_groups for a B x W x N stack of reduced
        columns whose position 0 is column `first`, one child per column
        from first - 1 on: child i counts only the positions right of
        i - 1, its own.  single: B = 1, and every position counts."""
        size, width, n = tails.shape
        dead = np.full(size, -1, dtype=np.int64)
        if width == 0:
            return dead, []
        alive = tails.any(axis=2)
        keep = True if single else np.arange(width) >= np.arange(size)[:, None]
        if not alive.all():
            lost = keep & ~alive
            if lost.any():
                has = lost.any(axis=1)
                dead[has] = lost[has].argmax(axis=1) + first
                if single:
                    return dead, []
                keep = keep & ~has[:, None]
        # canonical columns: scaled so that the first nonzero entry is 1
        flat = tails.reshape(-1, n)
        lead = flat[np.arange(flat.shape[0]), (flat != 0).argmax(axis=1)]
        keys = self._div[flat, lead[:, None]] @ self._pack
        # a stable sort keeps equal keys in (child, column) order, so the
        # proportional columns of a child end up adjacent and ascending
        order = np.lexsort(keys.T)
        srt = keys[order]
        at = np.flatnonzero((srt[1:] == srt[:-1]).all(axis=1))
        if at.size == 0:
            return dead, []
        a, b = order[at], order[at + 1]
        if not single:  # neighbours of one child, both counted
            kept = keep.ravel()
            ok = (a // width == b // width) & kept[a] & kept[b]
            at, a, b = at[ok], a[ok], b[ok]
            if at.size == 0:
                return dead, []
        if lex_first:  # the smallest member starts the first group
            i = int(a.argmin())
            x, y = int(a[i]), int(b[i])
            return dead, [(x // width, [x % width + first, y % width + first])]
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
