"""Local Clifford + qubit permutation symmetries.

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
permutations with a qubit permutation; LCPerm carries one element.  Every
letter permutation is linear on the (x, z) bit pair, which lets
apply_local_clifford act on whole packed rows with three masks per part.
"""

from __future__ import annotations

from dataclasses import dataclass

from .f2core import BitMatrix
from .pauli import StabGroup

__all__ = [
    "LETTER_NAMES",
    "LETTER_PERMS",
    "LocalClifford",
    "QubitPerm",
    "LCPerm",
    "apply_local_clifford",
    "apply_perm",
    "apply_lcperm",
    "lcperm_rows",
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

# _SOURCES[g] = (source of new x, source of new z) under gate g, numbered
# 0 = x, 1 = z, 2 = x ^ z: bit b of the images of X (code 1) and Z (code 2)
# gives the map's coefficients on x and z
_SOURCES = tuple(
    tuple((((p[1] >> b) & 1) | ((p[2] >> b) & 1) << 1) - 1 for b in (0, 1))
    for p in LETTER_PERMS
)


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


def _masks(gates, side: int) -> list[int]:
    """Qubit masks indexed by the source of new x (side 0) or new z (1)."""
    m = [0, 0, 0]
    for j, g in enumerate(gates):
        m[_SOURCES[g][side]] |= 1 << j
    return m


def _letter_rows(rows, n: int, gates) -> list[int]:
    mask = (1 << n) - 1
    ax, az, axz = _masks(gates, 0)
    bx, bz, bxz = _masks(gates, 1)
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

    The letter list is indexed by post-permutation positions.
    """
    return apply_local_clifford(apply_perm(g, a.perm), a.clifford)
