"""Phase-free Pauli operators as packed rows, and stabilizer groups.

An n-qubit Pauli (mod the phase subgroup <iI>) is one packed [x|z] int:
bit j marks X-type support and bit n + j Z-type support on qubit j, and
the letter on qubit j is I/X/Z/Y for (x_j, z_j) = (0,0)/(1,0)/(0,1)/(1,1).
The phase-free product of two Paulis is the XOR of their rows.  A
stabilizer group is held as a tuple of r independent such rows; pairs of
rows must commute symplectically.

Dropping phases is sound for everything computed in this package: groups
that differ only by Pauli conjugation (signs) have the same symplectic
picture, and so the same class identity, distance and flags.
"""

from __future__ import annotations

import operator

from .f2core import BitMatrix, kernel, rank, reduce_row, rref

__all__ = [
    "StabGroup",
    "parse_pauli",
    "format_pauli",
    "symplectic_product",
    "centralizer",
    "logical_rows",
]

_LETTERS = "IXZY"  # letter for the 2-bit code x + 2z


def parse_pauli(s: str, n: int | None = None) -> int:
    """Packed [x|z] row of a Pauli string over IXYZ, qubit 0 leftmost.

    If n is given the string must have exactly that length.  Malformed
    input raises ValueError naming the offending position.
    """
    if n is not None and len(s) != n:
        raise ValueError(f"expected {n} letters, got {len(s)}: {s!r}")
    x = 0
    z = 0
    for j, ch in enumerate(s):
        if ch == "I":
            continue
        if ch == "X":
            x |= 1 << j
        elif ch == "Z":
            z |= 1 << j
        elif ch == "Y":
            x |= 1 << j
            z |= 1 << j
        else:
            raise ValueError(f"invalid Pauli letter {ch!r} at position {j} in {s!r}")
    return x | (z << len(s))


def format_pauli(row: int, n: int) -> str:
    """The IXYZ string of an n-qubit packed row, qubit 0 leftmost."""
    z = row >> n
    return "".join(_LETTERS[((row >> j) & 1) | (((z >> j) & 1) << 1)] for j in range(n))


def symplectic_product(a: int, b: int, n: int) -> int:
    """0 if the n-qubit rows a and b commute as Pauli operators, 1 if they
    anticommute.

    The binary symplectic form <a_x, b_z> + <a_z, b_x> mod 2; the parity of
    |A| + |B| equals the parity of |A xor B| for the two overlap sets.
    Shifting one operand down by n keeps only its n-bit Z part, so the
    AND needs no mask.
    """
    return ((a & (b >> n)) ^ ((a >> n) & b)).bit_count() & 1


class StabGroup:
    """A stabilizer group on n qubits given by a minimal generating set.

    rows is a tuple of r = n - k packed [x|z] rows, each below 2^(2n), of
    rank r that pairwise commute; the empty tuple is the trivial group {I}.
    Every group is checked when built, by the library's own builders as
    for user input: a row that is no int raises TypeError, and a negative
    or too wide row, dependent rows or anticommuting rows ValueError.
    The _search slot is None until canon keeps the group's canonical
    search there, and the search travels with the group when it is
    copied or pickled.  So a group never changes once built: rows is a
    tuple copied from the rows given, no code assigns n or rows
    afterwards, and a changed group would keep its old self's search.
    """

    __slots__ = ("n", "rows", "_search")

    def __init__(self, n: int, rows):
        rows = tuple(map(operator.index, rows))
        for row in rows:
            if row < 0 or row >> (2 * n):
                raise ValueError(f"row 0x{row:x} does not fit in {2 * n} columns")
        if len(rows) > n:
            raise ValueError("more than n generators cannot be independent and abelian")
        if rank(rows) != len(rows):
            raise ValueError("generators are not independent")
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if symplectic_product(rows[i], rows[j], n):
                    raise ValueError(
                        f"generators {i} and {j} anticommute; not a stabilizer group"
                    )
        self.n = n
        self.rows = rows
        self._search = None

    @classmethod
    def from_strings(cls, strings, n: int | None = None) -> "StabGroup":
        """Parse generator strings; n defaults to the first string's length
        and every string must have exactly n letters."""
        strings = list(strings)
        if n is None:
            if not strings:
                raise ValueError("cannot infer qubit count from an empty list")
            n = len(strings[0])
        return cls(n, [parse_pauli(s, n) for s in strings])

    @property
    def r(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return self.n - self.r

    def generator_strings(self) -> list[str]:
        return [format_pauli(row, self.n) for row in self.rows]

    def canonical_gens(self) -> tuple[int, ...]:
        """RREF-canonical generator rows (basis-independent group id)."""
        return tuple(rref(BitMatrix(2 * self.n, self.rows))[0].rows)

    def same_group(self, other: "StabGroup") -> bool:
        return self.n == other.n and self.canonical_gens() == other.canonical_gens()

    def __repr__(self) -> str:
        return f"StabGroup(n={self.n}, <{', '.join(self.generator_strings())}>)"


def centralizer(g: StabGroup) -> BitMatrix:
    """Basis of every phase-free Pauli commuting with all generators.

    A packed row p commutes with generator s iff the symplectic form
    vanishes, i.e. p lies in the kernel of the generator matrix with X and Z
    blocks swapped.  The result has n + k rows and contains the row space of
    the generators (the group is abelian).
    """
    n = g.n
    mask = (1 << n) - 1
    swapped = [((row & mask) << n) | (row >> n) for row in g.rows]
    return kernel(BitMatrix(2 * n, swapped))


def logical_rows(g: StabGroup) -> list[int]:
    """2k packed rows spanning the centralizer modulo the group span.

    The generators and then the centralizer basis rows are reduced, one at
    a time, against the echelon basis of the residues kept so far.  The
    independent generators fill its first r places, and the centralizer
    survivors, in centralizer basis order, complete the group to its
    centralizer.
    """
    basis = []
    for row in [*g.rows, *centralizer(g).rows]:
        res = reduce_row(basis, row)
        if res:
            basis.append(res)
    return basis[g.r:]
