"""Per-class invariants: distance, enumerators, structure flags.

Everything here is computed exactly by enumeration over spans, centralizer
cosets, or small per-qubit search spaces.  Weight, distance, evenness,
decomposition length and the CSS / GF(4) flags are all invariant under the
local-Clifford + permutation action, which the test suite checks by acting
with random symmetries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .f2core import BitMatrix, _rank_of_rows, reduce_row, rref
from .pauli import StabGroup, logical_rows, span_rows
from .transform import (
    _NEWX_SRC,
    _NEWZ_SRC,
    LETTER_NAMES,
    LocalClifford,
    _letter_rows,
    apply_local_clifford,
    apply_perm,
    rsf,
)

__all__ = [
    "WeightEnum",
    "DecompReport",
    "weight_enumerator",
    "distance",
    "is_degenerate",
    "is_even",
    "css_rank_test",
    "css_representative",
    "gf4_linear_test",
    "gf4_representative",
    "decompose",
]

# The distance search walks 2^(2k + r) operators; like span_rows' 2^18
# guard, this one bounds the work on user input and admits every group on
# up to 12 qubits.
DISTANCE_MAX_BITS = 24

_CYCLE = LETTER_NAMES.index("R")  # X -> Y -> Z -> X


@dataclass(frozen=True)
class WeightEnum:
    """coeffs[w] counts the group elements of Pauli weight w."""

    coeffs: tuple

    def polynomial(self) -> str:
        terms = []
        for w, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if w == 0:
                terms.append(str(c))
            else:
                xs = "x" if w == 1 else f"x^{w}"
                terms.append(xs if c == 1 else f"{c}{xs}")
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class DecompReport:
    """Tensor decomposition of a stabilizer group.

    trivial_qubits lists qubits no generator touches; factors pairs each
    indecomposable tensor factor's qubit support (original indices,
    ascending) with the restricted group on those qubits; length counts the
    factors.
    """

    trivial_qubits: tuple
    factors: tuple

    @property
    def length(self) -> int:
        return len(self.factors)

    @property
    def decomposable(self) -> bool:
        """Whether the group splits across a nontrivial qubit bipartition:
        it has at least two tensor parts, each untouched qubit being one."""
        return len(self.trivial_qubits) + len(self.factors) >= 2


def _weight(row: int, n: int, mask: int) -> int:
    return ((row | (row >> n)) & mask).bit_count()


def weight_enumerator(g: StabGroup) -> WeightEnum:
    """Exact weight distribution of all 2^r group elements."""
    n = g.n
    mask = (1 << n) - 1
    coeffs = [0] * (n + 1)
    for row in span_rows(g):
        coeffs[_weight(row, n, mask)] += 1
    return WeightEnum(tuple(coeffs))


def distance(g: StabGroup) -> int:
    """Code distance.

    For k > 0 this is the minimum weight over operators commuting with the
    group but outside it; for k = 0 the minimum nonzero weight inside the
    group; the trivial group gets distance 1.  Raises ValueError when the
    search would walk more than 2^DISTANCE_MAX_BITS operators.
    """
    n = g.n
    mask = (1 << n) - 1
    if g.r == 0:
        return 1
    bits = 2 * g.k + g.r
    if bits > DISTANCE_MAX_BITS:
        raise ValueError(
            f"distance search over 2^{bits} operators exceeds the enumeration guard"
        )
    span = span_rows(g)
    if g.k == 0:
        return min(_weight(row, n, mask) for row in span if row)
    logicals = logical_rows(g)
    best = 2 * n
    cur = 0
    for t in range(1, 1 << len(logicals)):
        cur ^= logicals[(t & -t).bit_length() - 1]
        for s in span:
            w = _weight(cur ^ s, n, mask)
            if w < best:
                best = w
    return best


def is_degenerate(g: StabGroup, d: int | None = None) -> bool:
    """Whether some nonidentity group element weighs less than the distance.

    Only defined meaningfully for k > 0; k = 0 returns False.  A caller that
    already knows the distance passes it as d to skip the search.
    """
    if g.k == 0 or g.r == 0:
        return False
    n = g.n
    mask = (1 << n) - 1
    min_stab = min(_weight(row, n, mask) for row in span_rows(g) if row)
    return min_stab < (distance(g) if d is None else d)


def is_even(g: StabGroup) -> bool:
    """Whether the even-weight elements span the whole group.

    For commuting phase-free Paulis wt(ab) = wt(a) + wt(b) (mod 2), so the
    even elements form a subgroup; the group has an all-even generating set
    exactly when that subgroup is everything.
    """
    n = g.n
    mask = (1 << n) - 1
    even_rows = [row for row in span_rows(g) if _weight(row, n, mask) % 2 == 0]
    return _rank_of_rows(even_rows) == g.r


def css_rank_test(g: StabGroup) -> bool:
    """Whether the group is generated by X-type and Z-type operators.

    Holds iff rank of the X parts plus rank of the Z parts equals the
    number of generators (the sum can never be smaller); both ranks are
    invariant under change of generating set.
    """
    n = g.n
    mask = (1 << n) - 1
    x_rank = _rank_of_rows([row & mask for row in g.gens.rows])
    z_rank = _rank_of_rows([row >> n for row in g.gens.rows])
    return x_rank + z_rank == g.r


def css_representative(g: StabGroup):
    """First letter-permutation witness whose image splits X/Z, or None.

    Searches the 6^n per-qubit letter permutations depth first in odometer
    order (qubit 0 first, gates in order I, H, S, R, Ri, V) and returns the
    first (LocalClifford, transformed group) passing the rank split test.
    Each qubit adds its new X and Z columns to two incremental GF(2) bases;
    since rank(X) + rank(Z) never falls below r and only grows as columns
    are added, a branch is cut once the sum exceeds r.  Qubit permutations
    never help, so none are tried.
    """
    n, r = g.n, g.r
    if r == 0:
        return LocalClifford.identity(n), g
    cols = []
    for j in range(n):
        cx = 0
        cz = 0
        for i, row in enumerate(g.gens.rows):
            cx |= ((row >> j) & 1) << i
            cz |= ((row >> (n + j)) & 1) << i
        cols.append({"x": cx, "z": cz, "xz": cx ^ cz})
    gates = []

    def reduced(basis, col):
        out = {}
        for src, v in col.items():
            for b in basis:
                if v & (b & -b):
                    v ^= b
            out[src] = v
        return out

    def search(j, basis_x, basis_z):
        if j == n:
            return True
        room = r - len(basis_x) - len(basis_z)
        red_x = reduced(basis_x, cols[j])
        red_z = reduced(basis_z, cols[j])
        for gate in range(6):
            vx = red_x[_NEWX_SRC[gate]]
            vz = red_z[_NEWZ_SRC[gate]]
            if (vx != 0) + (vz != 0) > room:
                continue
            gates.append(gate)
            if search(
                j + 1,
                basis_x + [vx] if vx else basis_x,
                basis_z + [vz] if vz else basis_z,
            ):
                return True
            gates.pop()
        return False

    if not search(0, [], []):
        return None
    w = LocalClifford(gates)
    return w, apply_local_clifford(g, w)


def gf4_linear_test(g: StabGroup) -> bool:
    """Whether the global letter cycle X->Y->Z->X maps the group to itself,
    that is, whether the all-identity pattern solves gf4_representative's
    system.

    The trivial group is reported as not linear: it carries no nonzero
    vectors over GF(4).
    """
    w = gf4_representative(g)
    return w is not None and w.is_identity()


def gf4_representative(g: StabGroup):
    """First letter-permutation witness with a GF(4)-linear image, or None.

    Conjugating the global letter cycle by a per-qubit permutation flips it
    to the inverse cycle exactly on qubits where the permutation is odd, so
    only the per-qubit parity pattern p matters, and the lexicographically
    first witness of the full 6^n sweep is the I/H vector of the first
    passing pattern (qubit 0 most significant).  On one qubit the inverse
    cycle is the cycle plus the identity, so p passes exactly when
    cycle(s) + sum_j p_j (s on qubit j) reduces to 0 modulo the group for
    every generator s: one GF(2) linear system in p.  Groups with n - k odd
    can never pass and are rejected immediately.
    """
    n = g.n
    if g.r % 2 == 1 or g.r == 0:
        return None
    reduced, pivots, _ = rref(g.gens)
    srows = reduced.rows[: len(pivots)]
    cycled = _letter_rows(g.gens.rows, n, (_CYCLE,) * n)
    # one equation per generator and residue bit: p_j at bit j, the
    # right-hand side at bit n
    equations = []
    for row, image in zip(g.gens.rows, cycled):
        target = reduce_row(srows, pivots, image)
        parts = [
            reduce_row(srows, pivots, row & (1 << j | 1 << (n + j)))
            for j in range(n)
        ]
        for bit in range(2 * n):
            eq = ((target >> bit) & 1) << n
            for j, part in enumerate(parts):
                eq |= ((part >> bit) & 1) << j
            if eq:
                equations.append(eq)
    # Pivots taken from the last qubit down leave each kernel vector's
    # lowest bit free, so the solution with every free bit 0 is the first.
    solved, p_pivots, _ = rref(BitMatrix(n + 1, equations), range(n - 1, -1, -1))
    if any(solved.rows[len(p_pivots):]):
        return None
    pattern = [0] * n
    for row, j in zip(solved.rows, p_pivots):
        pattern[j] = row >> n
    return LocalClifford(pattern)


def decompose(g: StabGroup) -> DecompReport:
    """Split the group into untouched qubits and indecomposable factors.

    The reduced standard form exposes every tensor factorization: qubits
    with empty columns are trivial, and the connected components of the
    support-intersection graph over the reduced rows are the factors.
    """
    n = g.n
    mask = (1 << n) - 1
    if g.r == 0:
        return DecompReport(tuple(range(n)), ())
    res = rsf(g)
    plain = apply_perm(StabGroup(n, res.matrix, validate=False), res.perm.inverse())
    rows = plain.gens.rows
    sups = [((row | (row >> n)) & mask) for row in rows]
    support = 0
    for s in sups:
        support |= s
    trivial = tuple(j for j in range(n) if not (support >> j) & 1)
    parent = list(range(len(rows)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if sups[i] & sups[j]:
                a, b = find(i), find(j)
                if a != b:
                    parent[a] = b
    comps = {}
    for i in range(len(rows)):
        comps.setdefault(find(i), []).append(i)
    factors = []
    for members in comps.values():
        qmask = 0
        for i in members:
            qmask |= sups[i]
        qubits = tuple(j for j in range(n) if (qmask >> j) & 1)
        sub_rows = []
        for i in members:
            fx = 0
            fz = 0
            for pos, q in enumerate(qubits):
                fx |= ((rows[i] >> q) & 1) << pos
                fz |= ((rows[i] >> (n + q)) & 1) << pos
            sub_rows.append(fx | (fz << len(qubits)))
        factors.append(
            (qubits, StabGroup(len(qubits), BitMatrix(2 * len(qubits), sub_rows)))
        )
    factors.sort(key=lambda f: f[0])
    return DecompReport(trivial, tuple(factors))

