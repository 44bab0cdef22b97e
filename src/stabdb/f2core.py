"""Bit-packed linear algebra over GF(2).

Vectors and matrix rows are stored as Python integers, one bit per column
with column j at bit j (little-endian within a row).
"""

from __future__ import annotations

__all__ = ["BitMatrix", "rank", "rref", "kernel", "reduce_row", "span"]


class BitMatrix:
    """A rectangular matrix over GF(2) with int-packed rows.

    ``rows`` is a list of ints; bit j of row i is entry (i, j).  Zero-row
    matrices are allowed (a basis of the empty space).
    """

    __slots__ = ("ncols", "rows")

    def __init__(self, ncols: int, rows=()):
        self.ncols = ncols
        self.rows = [int(r) for r in rows]
        for r in self.rows:
            if r < 0 or r >> ncols:
                raise ValueError(f"row 0x{r:x} does not fit in {ncols} columns")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ncols, tuple(self.rows)))

    def __repr__(self) -> str:
        body = ", ".join(f"{r:0{self.ncols}b}"[::-1] for r in self.rows)
        return f"BitMatrix({self.nrows}x{self.ncols}: [{body}])"


def rank(rows) -> int:
    """GF(2) rank of packed rows by elimination (rank(m.rows) for a matrix m)."""
    basis = []  # echelonized rows, each with a distinct lowest set bit
    for v in rows:
        v = reduce_row(basis, v)
        if v:
            basis.append(v)
    return len(basis)


def rref(m: BitMatrix, columns=None):
    """Reduced row-echelon form.

    Returns ``(reduced, pivots)``; rows without a pivot sit at the bottom
    of ``reduced``.  Pivots are sought along ``columns``, by default every
    column left to right; rows are eliminated in full, but an unlisted
    column never pivots.  ``pivots`` lists the pivot columns in that order,
    each taking the topmost candidate row, so the output is deterministic.
    A caller that needs the row transform appends an identity block above
    the last column and lists only the original columns: the block then
    records which input rows make up each reduced row.
    """
    rows = list(m.rows)
    nr = len(rows)
    pivots = []
    r = 0
    for c in range(m.ncols) if columns is None else columns:
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
    return BitMatrix(m.ncols, rows), pivots


def kernel(m: BitMatrix) -> BitMatrix:
    """Basis of the right kernel {x : m @ x = 0} over GF(2).

    The basis has ncols - rank(m.rows) rows.  One basis vector is produced per
    non-pivot column c: bit c set, plus bit p_i for every pivot row i whose
    reduced row has bit c set (the unique completion to a kernel vector).
    """
    reduced, pivots = rref(m)
    in_pivots = set(pivots)
    basis = []
    for c in range(m.ncols):
        if c in in_pivots:
            continue
        v = 1 << c
        for i, p in enumerate(pivots):
            if (reduced.rows[i] >> c) & 1:
                v |= 1 << p
        basis.append(v)
    return BitMatrix(m.ncols, basis)


def reduce_row(basis, v: int) -> int:
    """Reduce packed row v against an echelon basis.

    Each basis row is eliminated at its lowest set bit, which no later row
    may have set.  The nonzero rows of an RREF in the default column order
    meet this, and so does a basis built one row at a time by appending
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
