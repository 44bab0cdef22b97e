"""Bit-packed linear algebra over GF(2).

Vectors and matrix rows are stored as Python integers, one bit per column
with column j at bit j (little-endian within a row).
"""

from __future__ import annotations

__all__ = ["BitVec", "BitMatrix", "rank", "rref", "kernel", "reduce_row"]


class BitVec:
    """A fixed-length vector over GF(2), packed into a single int.

    Bit j of ``bits`` is coordinate j.  Length is immutable after
    construction and indexing is 0-based.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("length must be nonnegative")
        if bits < 0 or bits >> n:
            raise ValueError(f"value 0x{bits:x} does not fit in {n} bits")
        self.n = n
        self.bits = bits

    @classmethod
    def from_bits(cls, seq) -> "BitVec":
        seq = list(seq)
        v = 0
        for j, b in enumerate(seq):
            if b:
                v |= 1 << j
        return cls(len(seq), v)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.n:
            raise IndexError(j)
        return (self.bits >> j) & 1

    def __iter__(self):
        b = self.bits
        for _ in range(self.n):
            yield b & 1
            b >>= 1

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.n != other.n:
            raise ValueError("length mismatch")
        return BitVec(self.n, self.bits ^ other.bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVec)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __int__(self) -> int:
        return self.bits

    def weight(self) -> int:
        return self.bits.bit_count()

    def __repr__(self) -> str:
        return f"BitVec({''.join(str(b) for b in self)!r})"


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

    @classmethod
    def from_rows(cls, bitvecs) -> "BitMatrix":
        bitvecs = list(bitvecs)
        if not bitvecs:
            raise ValueError("cannot infer ncols from an empty row list")
        n = bitvecs[0].n
        return cls(n, [v.bits for v in bitvecs])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row(self, i: int) -> BitVec:
        return BitVec(self.ncols, self.rows[i])

    def get(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ncols, tuple(self.rows)))

    def copy(self) -> "BitMatrix":
        return BitMatrix(self.ncols, self.rows)

    def __repr__(self) -> str:
        body = ", ".join(f"{r:0{self.ncols}b}"[::-1] for r in self.rows)
        return f"BitMatrix({self.nrows}x{self.ncols}: [{body}])"


def rank(m: BitMatrix) -> int:
    """GF(2) row rank by elimination on packed rows."""
    return _rank_of_rows(m.rows)


def _rank_of_rows(rows) -> int:
    basis = []  # echelonized rows, each with a distinct leading bit
    r = 0
    for v in rows:
        for b in basis:
            low = b & -b
            if v & low:
                v ^= b
        if v:
            basis.append(v)
            r += 1
    return r


def rref(m: BitMatrix):
    """Reduced row-echelon form with the row transform that produces it.

    Returns ``(reduced, pivots, transform)`` where ``transform`` is an
    invertible nrows x nrows matrix with ``transform @ m = reduced`` over
    GF(2), ``pivots`` lists pivot column indices in strictly increasing
    order, and zero rows sit at the bottom of ``reduced``.  Pivot choice is
    leftmost nonzero column, topmost candidate row, so the output is
    deterministic.
    """
    rows = list(m.rows)
    nr = len(rows)
    trans = [1 << i for i in range(nr)]
    pivots = []
    r = 0
    for c in range(m.ncols):
        pivot_row = None
        for i in range(r, nr):
            if (rows[i] >> c) & 1:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        trans[r], trans[pivot_row] = trans[pivot_row], trans[r]
        for i in range(nr):
            if i != r and (rows[i] >> c) & 1:
                rows[i] ^= rows[r]
                trans[i] ^= trans[r]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return BitMatrix(m.ncols, rows), pivots, BitMatrix(nr, trans)


def kernel(m: BitMatrix) -> BitMatrix:
    """Basis of the right kernel {x : m @ x = 0} over GF(2).

    The basis has ncols - rank(m) rows.  One basis vector is produced per
    non-pivot column c: bit c set, plus bit p_i for every pivot row i whose
    reduced row has bit c set (the unique completion to a kernel vector).
    """
    reduced, pivots, _ = rref(m)
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


def reduce_row(reduced_rows, pivots, v: int) -> int:
    """Reduce packed row v against an RREF row set.

    Returns the residue after eliminating every pivot position; the residue
    is 0 exactly when v lies in the row space.
    """
    for row, p in zip(reduced_rows, pivots):
        if (v >> p) & 1:
            v ^= row
    return v
