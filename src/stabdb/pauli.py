"""Phase-free Pauli operators and stabilizer groups.

An n-qubit Pauli (mod the phase subgroup <iI>) is a pair of length-n bit
vectors: x marks X-type support, z marks Z-type support, and the letter on
qubit j is I/X/Z/Y for (x_j, z_j) = (0,0)/(1,0)/(0,1)/(1,1).  A stabilizer
group is held as a rank-r generator matrix of packed [x|z] rows (x in bits
0..n-1, z in bits n..2n-1); pairs of rows must commute symplectically.

Dropping phases is sound for everything computed in this package: groups
that differ only by Pauli conjugation (signs) have the same symplectic
picture, and so the same class identity, distance and flags.
"""

from __future__ import annotations

from .f2core import BitMatrix, BitVec, _rank_of_rows, kernel, reduce_row, rref

__all__ = [
    "PauliOp",
    "StabGroup",
    "parse_pauli",
    "format_pauli",
    "symplectic_product",
    "span_elements",
    "span_rows",
    "centralizer",
    "logical_rows",
]

_LETTERS = "IXZY"  # letter for the 2-bit code x + 2z


class PauliOp:
    """A phase-free n-qubit Pauli operator."""

    __slots__ = ("x", "z")

    def __init__(self, x: BitVec, z: BitVec):
        if x.n != z.n:
            raise ValueError("x and z parts must have equal length")
        self.x = x
        self.z = z

    @property
    def n(self) -> int:
        return self.x.n

    @classmethod
    def from_packed(cls, n: int, row: int) -> "PauliOp":
        mask = (1 << n) - 1
        return cls(BitVec(n, row & mask), BitVec(n, row >> n))

    def packed(self) -> int:
        """The [x|z] encoding: x part in bits 0..n-1, z part above."""
        return self.x.bits | (self.z.bits << self.n)

    def letter(self, j: int) -> str:
        return _LETTERS[self.x[j] + 2 * self.z[j]]

    def weight(self) -> int:
        return (self.x.bits | self.z.bits).bit_count()

    def __mul__(self, other: "PauliOp") -> "PauliOp":
        # phase-free product is coordinatewise XOR
        return PauliOp(self.x ^ other.x, self.z ^ other.z)

    def __eq__(self, other) -> bool:
        return isinstance(other, PauliOp) and self.x == other.x and self.z == other.z

    def __hash__(self) -> int:
        return hash((self.x, self.z))

    def __repr__(self) -> str:
        return f"PauliOp({format_pauli(self)!r})"


def parse_pauli(s: str, n: int | None = None) -> PauliOp:
    """Parse a Pauli string over the alphabet IXYZ, qubit 0 leftmost.

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
    m = len(s)
    return PauliOp(BitVec(m, x), BitVec(m, z))


def format_pauli(p: PauliOp) -> str:
    return "".join(p.letter(j) for j in range(p.n))


def symplectic_product(a: PauliOp, b: PauliOp) -> int:
    """0 if a and b commute as Pauli operators, 1 if they anticommute.

    The binary symplectic form <a_x, b_z> + <a_z, b_x> mod 2; the parity of
    |A| + |B| equals the parity of |A xor B| for the two overlap sets.
    """
    if a.n != b.n:
        raise ValueError("operators act on different qubit counts")
    return ((a.x.bits & b.z.bits) ^ (a.z.bits & b.x.bits)).bit_count() & 1


def _sym_packed(a: int, b: int, n: int, mask: int) -> int:
    """Symplectic product of two packed [x|z] rows."""
    return (((a & mask) & (b >> n)) ^ ((a >> n) & (b & mask))).bit_count() & 1


class StabGroup:
    """A stabilizer group on n qubits given by a minimal generating set.

    gens holds r = n - k packed [x|z] rows of rank r that pairwise commute.
    The empty generating set (r = 0, the trivial group {I}) is legal.
    """

    __slots__ = ("n", "gens")

    def __init__(self, n: int, gens: BitMatrix, validate: bool = True):
        if gens.ncols != 2 * n:
            raise ValueError("generator matrix must have 2n columns")
        if len(gens.rows) > n:
            raise ValueError("more than n generators cannot be independent and abelian")
        self.n = n
        self.gens = gens
        if validate:
            self._check()

    def _check(self) -> None:
        rows = self.gens.rows
        if _rank_of_rows(rows) != len(rows):
            raise ValueError("generators are not independent")
        n, mask = self.n, (1 << self.n) - 1
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if _sym_packed(rows[i], rows[j], n, mask):
                    raise ValueError(
                        f"generators {i} and {j} anticommute; not a stabilizer group"
                    )

    @classmethod
    def from_strings(cls, strings, n: int | None = None) -> "StabGroup":
        """Parse generator strings; n defaults to the first string's length
        and every string must have exactly n letters."""
        strings = list(strings)
        if n is None:
            if not strings:
                raise ValueError("cannot infer qubit count from an empty list")
            n = len(strings[0])
        ops = [parse_pauli(s, n) for s in strings]
        return cls(n, BitMatrix(2 * n, [p.packed() for p in ops]))

    @property
    def r(self) -> int:
        return len(self.gens.rows)

    @property
    def k(self) -> int:
        return self.n - self.r

    def generators(self) -> list[PauliOp]:
        return [PauliOp.from_packed(self.n, row) for row in self.gens.rows]

    def generator_strings(self) -> list[str]:
        return [format_pauli(p) for p in self.generators()]

    def canonical_gens(self) -> BitMatrix:
        """RREF-canonical generator matrix (basis-independent group id)."""
        reduced, pivots, _ = rref(self.gens)
        return BitMatrix(2 * self.n, reduced.rows[: len(pivots)])

    def same_group(self, other: "StabGroup") -> bool:
        return self.n == other.n and self.canonical_gens() == other.canonical_gens()

    def __repr__(self) -> str:
        return f"StabGroup(n={self.n}, <{', '.join(self.generator_strings())}>)"


def span_rows(g: StabGroup) -> list[int]:
    """All 2^r packed span elements in Gray-code order over generator masks.

    The walk starts at the identity and flips one generator per step, so
    consecutive elements differ by a single generator; the order is fixed by
    the generator list and is reproducible.
    """
    rows = g.gens.rows
    r = len(rows)
    if r > 18:
        raise ValueError(f"span of 2^{r} elements exceeds the enumeration guard")
    walk = [0] * (1 << r)
    cur = 0
    for t in range(1, 1 << r):
        cur ^= rows[(t & -t).bit_length() - 1]
        walk[t] = cur
    return walk


def span_elements(g: StabGroup) -> list[PauliOp]:
    """All 2^r distinct phase-free products of generators (Gray-code order)."""
    return [PauliOp.from_packed(g.n, row) for row in span_rows(g)]


def centralizer(g: StabGroup) -> BitMatrix:
    """Basis of every phase-free Pauli commuting with all generators.

    A packed row p commutes with generator s iff the symplectic form
    vanishes, i.e. p lies in the kernel of the generator matrix with X and Z
    blocks swapped.  The result has n + k rows and contains the row space of
    the generators (the group is abelian).
    """
    n = g.n
    mask = (1 << n) - 1
    swapped = [((row & mask) << n) | (row >> n) for row in g.gens.rows]
    return kernel(BitMatrix(2 * n, swapped))


def logical_rows(g: StabGroup) -> list[int]:
    """2k packed rows spanning the centralizer modulo the group span.

    Centralizer basis rows are reduced against the group and against the
    rows kept so far; the survivors, in centralizer basis order, complete
    the group to its centralizer.
    """
    reduced, pivots, _ = rref(g.gens)
    srows = reduced.rows[: len(pivots)]
    out_rows, out_pivs = [], []
    for row in centralizer(g).rows:
        res = reduce_row(srows, pivots, row)
        res = reduce_row(out_rows, out_pivs, res)
        if res:
            out_rows.append(res)
            out_pivs.append((res & -res).bit_length() - 1)
    return out_rows
