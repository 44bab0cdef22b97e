"""Local Clifford + qubit permutation symmetries and the reduced form.

Single-qubit Cliffords act on phase-free Paulis only through the induced
permutation of the letters {X, Y, Z}, so the local symmetry group per qubit
is Sym({X,Y,Z}) with 6 elements, named here

    I           identity
    H           X <-> Z
    S           X <-> Y
    R  = HS     X -> Y -> Z -> X
    Ri = SH     X -> Z -> Y -> X
    V  = HSH    Y <-> Z

The full symmetry group is the wreath-like semidirect product of n letter
permutations with a qubit permutation; LCPerm carries one element and
composes by the semidirect law.  Every letter permutation is linear on the
(x, z) bit pair, which lets apply_local_clifford act on whole packed rows
with three masks per part.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .f2core import BitMatrix
from .pauli import StabGroup

__all__ = [
    "LETTER_NAMES",
    "LETTER_PERMS",
    "LocalClifford",
    "QubitPerm",
    "LCPerm",
    "RsfResult",
    "apply_local_clifford",
    "apply_perm",
    "apply_lcperm",
    "lcperm_rows",
    "compose",
    "inverse",
    "identity_lcperm",
    "random_lcperm",
    "rsf",
    "compose_letters",
    "invert_letter",
    "letter_is_even",
]

LETTER_NAMES = ("I", "H", "S", "R", "Ri", "V")

# images of the 2-bit letter codes (0=I, 1=X, 2=Z, 3=Y) under each element
LETTER_PERMS = (
    (0, 1, 2, 3),  # I
    (0, 2, 1, 3),  # H : X<->Z
    (0, 3, 2, 1),  # S : X<->Y
    (0, 3, 1, 2),  # R : X->Y->Z->X
    (0, 2, 3, 1),  # Ri: X->Z->Y->X
    (0, 1, 3, 2),  # V : Y<->Z
)

_INDEX_OF = {p: i for i, p in enumerate(LETTER_PERMS)}
_NAME_TO_INDEX = {name: i for i, name in enumerate(LETTER_NAMES)}

# _COMPOSE[a][b] = the element acting as "b first, then a"
_COMPOSE = tuple(
    tuple(_INDEX_OF[tuple(LETTER_PERMS[a][LETTER_PERMS[b][v]] for v in range(4))]
          for b in range(6))
    for a in range(6)
)
_INVERT = tuple(_COMPOSE[a].index(0) for a in range(6))

# new_x reads x / z / x^z depending on the gate; likewise new_z
_NEWX_SRC = ("x", "z", "x", "xz", "z", "xz")
_NEWZ_SRC = ("z", "x", "xz", "x", "xz", "z")


def compose_letters(a: int, b: int) -> int:
    """Index of the letter permutation "apply b, then a"."""
    return _COMPOSE[a][b]


def invert_letter(a: int) -> int:
    return _INVERT[a]


def letter_is_even(a: int) -> bool:
    """True when the permutation of {X,Y,Z} is even (I, R, Ri)."""
    return a in (0, 3, 4)


def _as_letter_index(g) -> int:
    if isinstance(g, int):
        if not 0 <= g < 6:
            raise ValueError(f"letter index out of range: {g}")
        return g
    if isinstance(g, str):
        try:
            return _NAME_TO_INDEX[g]
        except KeyError:
            raise ValueError(f"unknown letter permutation name: {g!r}") from None
    t = tuple(g)
    try:
        return _INDEX_OF[t]
    except KeyError:
        raise ValueError(f"not a letter permutation: {t}") from None


class LocalClifford:
    """One letter permutation per qubit, stored as indices into LETTER_PERMS."""

    __slots__ = ("gates",)

    def __init__(self, gates):
        self.gates = tuple(_as_letter_index(g) for g in gates)

    @classmethod
    def identity(cls, n: int) -> "LocalClifford":
        return cls((0,) * n)

    @property
    def n(self) -> int:
        return len(self.gates)

    def names(self) -> tuple[str, ...]:
        return tuple(LETTER_NAMES[g] for g in self.gates)

    def is_identity(self) -> bool:
        return all(g == 0 for g in self.gates)

    def __eq__(self, other) -> bool:
        return isinstance(other, LocalClifford) and self.gates == other.gates

    def __hash__(self) -> int:
        return hash(self.gates)

    def __repr__(self) -> str:
        return f"LocalClifford({','.join(self.names())})"


class QubitPerm:
    """A permutation of qubit positions; image[j] is where qubit j goes."""

    __slots__ = ("image",)

    def __init__(self, image):
        img = tuple(int(v) for v in image)
        if sorted(img) != list(range(len(img))):
            raise ValueError(f"not a permutation of 0..{len(img) - 1}: {img}")
        self.image = img

    @classmethod
    def identity(cls, n: int) -> "QubitPerm":
        return cls(range(n))

    @property
    def n(self) -> int:
        return len(self.image)

    def inverse(self) -> "QubitPerm":
        inv = [0] * self.n
        for j, m in enumerate(self.image):
            inv[m] = j
        return QubitPerm(inv)

    def is_identity(self) -> bool:
        return all(m == j for j, m in enumerate(self.image))

    def __eq__(self, other) -> bool:
        return isinstance(other, QubitPerm) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"QubitPerm({list(self.image)})"


@dataclass(frozen=True)
class LCPerm:
    """A local Clifford followed by a qubit permutation (semidirect pair)."""

    clifford: LocalClifford
    perm: QubitPerm

    def __post_init__(self):
        if self.clifford.n != self.perm.n:
            raise ValueError("clifford and permutation sizes differ")

    @property
    def n(self) -> int:
        return self.perm.n

    def is_identity(self) -> bool:
        return self.clifford.is_identity() and self.perm.is_identity()


def _masks(gates, src_table):
    m = {"x": 0, "z": 0, "xz": 0}
    for j, g in enumerate(gates):
        m[src_table[g]] |= 1 << j
    return m["x"], m["z"], m["xz"]


def _letter_rows(rows, n: int, gates) -> list[int]:
    mask = (1 << n) - 1
    ax, az, axz = _masks(gates, _NEWX_SRC)
    bx, bz, bxz = _masks(gates, _NEWZ_SRC)
    new_rows = []
    for row in rows:
        x = row & mask
        z = row >> n
        xz = x ^ z
        nx = (x & ax) | (z & az) | (xz & axz)
        nz = (x & bx) | (z & bz) | (xz & bxz)
        new_rows.append(nx | (nz << n))
    return new_rows


def _perm_rows(rows, n: int, image) -> list[int]:
    mask = (1 << n) - 1
    new_rows = []
    for row in rows:
        x = row & mask
        z = row >> n
        nx = 0
        nz = 0
        for j in range(n):
            if (x >> j) & 1:
                nx |= 1 << image[j]
            if (z >> j) & 1:
                nz |= 1 << image[j]
        new_rows.append(nx | (nz << n))
    return new_rows


def apply_local_clifford(g: StabGroup, w: LocalClifford) -> StabGroup:
    """Permute the letters of every generator, qubit by qubit."""
    if w.n != g.n:
        raise ValueError("qubit counts differ")
    rows = _letter_rows(g.gens.rows, g.n, w.gates)
    return StabGroup(g.n, BitMatrix(2 * g.n, rows), validate=False)


def apply_perm(g: StabGroup, p: QubitPerm) -> StabGroup:
    """Move the letter at qubit j to qubit p.image[j] in every generator."""
    if p.n != g.n:
        raise ValueError("qubit counts differ")
    rows = _perm_rows(g.gens.rows, g.n, p.image)
    return StabGroup(g.n, BitMatrix(2 * g.n, rows), validate=False)


def lcperm_rows(a: LCPerm, rows) -> list[int]:
    """Images under a of packed [x|z] rows on a.n qubits, in order.

    Unlike apply_lcperm the rows need not form a stabilizer group, so any
    set of Paulis (a centralizer basis, say) can be moved.
    """
    return _letter_rows(_perm_rows(rows, a.n, a.perm.image), a.n, a.clifford.gates)


def apply_lcperm(g: StabGroup, a: LCPerm) -> StabGroup:
    """Act by a: permute qubits, then apply the letter permutations.

    The letter list is indexed by post-permutation positions, matching the
    semidirect composition law below.
    """
    return apply_local_clifford(apply_perm(g, a.perm), a.clifford)


def compose(a: LCPerm, b: LCPerm) -> LCPerm:
    """The element acting as "b first, then a"."""
    if a.n != b.n:
        raise ValueError("sizes differ")
    n = a.n
    img_a = a.perm.image
    img_b = b.perm.image
    image = [img_a[img_b[j]] for j in range(n)]
    inv_a = a.perm.inverse().image
    gates = [
        compose_letters(a.clifford.gates[m], b.clifford.gates[inv_a[m]])
        for m in range(n)
    ]
    return LCPerm(LocalClifford(gates), QubitPerm(image))


def inverse(a: LCPerm) -> LCPerm:
    inv_perm = a.perm.inverse()
    gates = [invert_letter(a.clifford.gates[a.perm.image[m]]) for m in range(a.n)]
    return LCPerm(LocalClifford(gates), inv_perm)


def identity_lcperm(n: int) -> LCPerm:
    return LCPerm(LocalClifford.identity(n), QubitPerm.identity(n))


def random_lcperm(n: int, seed=None) -> LCPerm:
    """Uniformly random symmetry element; seed may be an int or a Random."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    image = list(range(n))
    rng.shuffle(image)
    gates = [rng.randrange(6) for _ in range(n)]
    return LCPerm(LocalClifford(gates), QubitPerm(image))


@dataclass(frozen=True)
class RsfResult:
    """Reduced standard form of a generator matrix.

    matrix holds the row-reduced generators after relabeling qubits by perm;
    its block shape is

        [ I  A1 A2 0 | B  0  C  0 ]     r rows with X pivots
        [ 0  0  0  0 | D  I  E  0 ]     remaining pure-Z rows

    with column groups (X-pivot qubits, Z-pivot qubits, other supported
    qubits, untouched qubits) and r = rank of the X part.
    """

    matrix: BitMatrix
    perm: QubitPerm
    r: int

    @property
    def n(self) -> int:
        return self.matrix.ncols // 2

    @property
    def s(self) -> int:
        """Number of pure-Z rows (Z-pivot qubits)."""
        return self.matrix.nrows - self.r


def _rref_on_bits(rows: list[int], bit_order) -> tuple[list[int], list[int]]:
    """In-place RREF of packed rows with pivots searched along bit_order.

    Rows are eliminated in full (all bits), but pivots are only chosen at
    the listed bit positions.  Returns (rows, pivot_bits).
    """
    rows = list(rows)
    nr = len(rows)
    pivots = []
    rpos = 0
    for b in bit_order:
        pivot_row = None
        for i in range(rpos, nr):
            if (rows[i] >> b) & 1:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rpos], rows[pivot_row] = rows[pivot_row], rows[rpos]
        for i in range(nr):
            if i != rpos and (rows[i] >> b) & 1:
                rows[i] ^= rows[rpos]
        pivots.append(b)
        rpos += 1
        if rpos == nr:
            break
    return rows, pivots


def rsf(g: StabGroup) -> RsfResult:
    """Reduced standard form with a deterministic qubit relabeling.

    Pivot qubits for the X block are chosen left to right, then pivots for
    the pure-Z rows left to right among the remaining qubits; the relabeling
    [X pivots, Z pivots, other supported qubits, untouched qubits] is
    returned as perm.
    """
    n = g.n
    rows, x_pivots = _rref_on_bits(g.gens.rows, range(n))
    r = len(x_pivots)
    p_x = x_pivots
    non_px = [j for j in range(n) if j not in p_x]
    bottom, z_pivot_bits = _rref_on_bits(rows[r:], [n + j for j in non_px])
    p_z = [b - n for b in z_pivot_bits]
    rows = rows[:r] + bottom
    # bottom rows are pure Z, so adding them clears top Z entries on the
    # Z-pivot qubits without disturbing any X entry
    for t, b in enumerate(z_pivot_bits):
        for i in range(r):
            if (rows[i] >> b) & 1:
                rows[i] ^= rows[r + t]
    support_x = 0
    support_z = 0
    for row in rows:
        support_x |= row & ((1 << n) - 1)
        support_z |= row >> n
    support = support_x | support_z
    placed = set(p_x) | set(p_z)
    rest = [j for j in range(n) if j not in placed and (support >> j) & 1]
    untouched = [j for j in range(n) if j not in placed and not (support >> j) & 1]
    order = p_x + p_z + rest + untouched
    image = [0] * n
    for pos, q in enumerate(order):
        image[q] = pos
    perm = QubitPerm(image)
    reduced = StabGroup(n, BitMatrix(2 * n, rows), validate=False)
    return RsfResult(apply_perm(reduced, perm).gens, perm, r)
