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
remaining column with a single vectorized scan.  Its frame is a bottom of
the stack that reset() returns to and pop() never removes, so a search
pushes the columns every subset shares once (codes.min_distance).  This
is the performance-critical path; everything else favours clarity.
"""

from __future__ import annotations

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
        self.ncols = base.shape[1]
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

    def pair_groups(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Classify all 2-extensions of the current independent set at once.

        {pushed} + {c, c'} is dependent exactly when the reduced columns
        c and c' are proportional, i.e. when their canonical forms (scaled
        so the first nonzero entry is 1) coincide.  Returns
        (in_span_columns, groups): columns right of the last push that are
        already in the span, and the maximal groups (>= 2, ascending) of
        mutually proportional remaining columns.
        """
        c, r = self._stack[-1]
        tail = r[:, c + 1:]
        width = tail.shape[1]
        if width < 2:
            dead = ~tail.any(axis=0)
            return np.nonzero(dead)[0] + (c + 1), []
        nz = tail != 0
        dead = ~nz.any(axis=0)
        if dead.any():
            return np.nonzero(dead)[0] + (c + 1), []
        lead = tail[nz.argmax(axis=0), np.arange(width)]
        canon = np.ascontiguousarray(self._div[tail, lead[None, :]].T)
        order = np.lexsort(canon.T[::-1])
        srt = canon[order]
        change = np.nonzero(np.any(srt[1:] != srt[:-1], axis=1))[0]
        starts = np.concatenate(([0], change + 1, [width]))
        groups = []
        for i in range(starts.size - 1):
            a, b = starts[i], starts[i + 1]
            if b - a >= 2:
                groups.append(np.sort(order[a:b]) + (c + 1))
        groups.sort(key=lambda g: int(g[0]))
        return np.empty(0, dtype=np.int64), groups
