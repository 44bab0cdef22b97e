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
permutations with a qubit permutation, of order 6^n n!.  LCPerm is its one
element type: it moves the qubits first and then permutes the letter at
each position, indexed by position after the move.  lcperm_rows acts on
packed rows and apply_lcperm on groups.  Every letter permutation is linear
on the (x, z) bit pair, which lets lcperm_rows act on whole packed rows
with three masks per part.
"""

from __future__ import annotations

import operator

from .pauli import StabGroup

__all__ = [
    "LETTER_NAMES",
    "LETTER_PERMS",
    "LCPerm",
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
    try:
        return _NAME_TO_INDEX[g]
    except (KeyError, TypeError):
        raise ValueError(f"unknown letter permutation name: {g!r}") from None


class LCPerm:
    """One element of the symmetry group: a qubit permutation, then one
    letter permutation per qubit.

    image[j] is where qubit j goes (the identity when omitted), read with
    operator.index; gates[m] indexes LETTER_PERMS, by name or index, and
    acts on the letter that lands at position m.
    """

    __slots__ = ("gates", "image")

    def __init__(self, gates, image=None):
        self.gates = tuple(_as_letter_index(g) for g in gates)
        n = len(self.gates)
        self.image = tuple(range(n) if image is None else map(operator.index, image))
        if sorted(self.image) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.image}")

    @property
    def n(self) -> int:
        return len(self.gates)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LCPerm)
            and self.gates == other.gates
            and self.image == other.image
        )

    def __hash__(self) -> int:
        return hash((self.gates, self.image))

    def __repr__(self) -> str:
        names = ",".join(LETTER_NAMES[g] for g in self.gates)
        return f"LCPerm({names}; {list(self.image)})"


def _masks(gates, side: int) -> list[int]:
    """Qubit masks indexed by the source of new x (side 0) or new z (1)."""
    m = [0, 0, 0]
    for j, g in enumerate(gates):
        m[_SOURCES[g][side]] |= 1 << j
    return m


def lcperm_rows(a: LCPerm, rows) -> list[int]:
    """Images under a of packed [x|z] rows on a.n qubits, in order.

    Unlike apply_lcperm the rows need not form a stabilizer group, so any
    set of Paulis (a centralizer basis, say) can be moved.
    """
    n = a.n
    mask = (1 << n) - 1
    moves = [(j, m) for j, m in enumerate(a.image) if j != m]
    fixed = mask
    for _, m in moves:
        fixed ^= 1 << m
    ax, az, axz = _masks(a.gates, 0)
    bx, bz, bxz = _masks(a.gates, 1)
    new_rows = []
    for row in rows:
        x0 = row & mask
        z0 = row >> n
        x = x0 & fixed
        z = z0 & fixed
        for j, m in moves:
            x |= ((x0 >> j) & 1) << m
            z |= ((z0 >> j) & 1) << m
        xz = x ^ z
        nx = (x & ax) | (z & az) | (xz & axz)
        nz = (x & bx) | (z & bz) | (xz & bxz)
        new_rows.append(nx | (nz << n))
    return new_rows


def apply_lcperm(g: StabGroup, a: LCPerm) -> StabGroup:
    """Act by a: move the letter at qubit j to qubit a.image[j], then apply
    the letter permutation a.gates[a.image[j]] to it."""
    if a.n != g.n:
        raise ValueError("qubit counts differ")
    return StabGroup(g.n, lcperm_rows(a, g.rows))
