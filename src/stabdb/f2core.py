"""Bit-packed linear algebra over GF(2).

Vectors and matrix rows are stored as Python integers, one bit per column
with column j at bit j (little-endian within a row).  A matrix is a
sequence of such rows; where its width matters, the caller passes it.
"""

from __future__ import annotations

import operator

__all__ = ["as_rows", "rank", "rref", "kernel", "reduce_row", "span"]


def as_rows(rows, ncols: int) -> tuple[int, ...]:
    """The rows as a tuple of ints that fit ncols columns.

    Each row is read with operator.index, so a row that is no int raises
    TypeError; a negative row or one with a bit at or above ncols raises
    ValueError.
    """
    rows = tuple(map(operator.index, rows))
    for r in rows:
        if r < 0 or r >> ncols:
            raise ValueError(f"row 0x{r:x} does not fit in {ncols} columns")
    return rows


def rank(rows) -> int:
    """GF(2) rank of packed rows by elimination."""
    basis = []  # echelonized rows, each with a distinct lowest set bit
    for v in rows:
        v = reduce_row(basis, v)
        if v:
            basis.append(v)
    return len(basis)


def rref(rows, columns):
    """Reduced row-echelon form of packed rows.

    Returns ``(reduced, pivots)``, ``reduced`` a tuple of rows; rows
    without a pivot sit at the bottom.  Pivots are sought along
    ``columns`` in order; rows are eliminated in full, but an unlisted
    column never pivots.  ``pivots`` lists the pivot columns in that order,
    each taking the topmost candidate row, so the output is deterministic.
    A caller that needs the row transform appends an identity block above
    the last column and lists only the original columns: the block then
    records which input rows make up each reduced row.
    """
    rows = list(rows)
    nr = len(rows)
    pivots = []
    r = 0
    for c in columns:
        pivot_row = None
        for i in range(r, nr):
            if (rows[i] >> c) & 1:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        for i in range(nr):
            if i != r and (rows[i] >> c) & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(rows), pivots


def kernel(rows, ncols: int) -> tuple[int, ...]:
    """Basis of the right kernel {x : rows @ x = 0} of ncols-wide rows.

    The rows are read by as_rows.  The basis has ncols - rank(rows) rows.
    One basis vector is produced per non-pivot column c: bit c set, plus
    bit p_i for every pivot row i whose reduced row has bit c set (the
    unique completion to a kernel vector).
    """
    reduced, pivots = rref(as_rows(rows, ncols), range(ncols))
    in_pivots = set(pivots)
    basis = []
    for c in range(ncols):
        if c in in_pivots:
            continue
        v = 1 << c
        for i, p in enumerate(pivots):
            if (reduced[i] >> c) & 1:
                v |= 1 << p
        basis.append(v)
    return tuple(basis)


def reduce_row(basis, v: int) -> int:
    """Reduce packed row v against an echelon basis.

    Each basis row is eliminated at its lowest set bit, which no later row
    may have set.  The nonzero rows of an RREF with columns taken left to
    right meet this, and so does a basis built one row at a time by appending
    each nonzero residue.  The residue is 0 exactly when v lies in the row
    space, and it does not depend on which such basis spans that space.
    """
    for b in basis:
        if v & (b & -b):
            v ^= b
    return v


def span(rows) -> list[int]:
    """All 2^m elements of the span of m packed rows, built by doubling.

    Entry u is the XOR of rows[i] over the set bits i of u.
    """
    out = [0]
    for row in rows:
        out += [v ^ row for v in out]
    return out
