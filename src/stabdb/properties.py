"""Per-class invariants: distance, enumerators, structure flags.

Everything here is computed exactly: distance, weight enumerator and
degeneracy by one bit-sliced weight count over every product of a row list,
evenness from the generators' parities, and the CSS / GF(4) flags by
searches over small per-qubit spaces.  Weight, distance, evenness,
decomposition length and the CSS / GF(4) flags are all invariant under the
local-Clifford + permutation action, which the test suite checks by acting
with random symmetries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .f2core import BitMatrix, kernel, rank, reduce_row, rref, span
from .pauli import StabGroup, logical_rows
from .transform import _SOURCES, LCPerm, apply_lcperm, lcperm_rows

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

# The weight kernel weighs at most 2^MAX_PRODUCT_BITS products, in chunks
# of 2^_SLICE_BITS, so at most 2^(24 - 16) = 256 chunks: distance checks
# its 2k + r rows against it, which admits every group on up to 12 qubits,
# and weight_enumerator its r rows.
MAX_PRODUCT_BITS = 24

# _weight_slices handles 2^_SLICE_BITS products per chunk: every bit plane
# holds at most 8 KB.
_SLICE_BITS = 16

# Nodes the CSS search may visit before it refuses, as the distance guard
# does: about 1,300 times the most any class representative on up to 7
# qubits needs (803).
CSS_MAX_NODES = 1 << 20


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


def _weight_slices(rows, n: int):
    """Bit-sliced weights of all 2^m products of m packed rows, by chunks.

    Product u is the XOR of rows[i] over the set bits i of u.  The first
    c = min(m, _SLICE_BITS) rows number the 2^c products of a chunk: for
    each qubit j, bit u of two planes holds the X and Z bit of product u at
    j.  The planes are built by doubling, one row at a time: the products
    with bit i set are those without it times rows[i], so the plane is
    shifted up over itself, complemented where rows[i] has that bit.  The
    span of the other rows numbers the chunks: chunk h multiplies every
    product of the first chunk by the high product span[h], so its planes
    are the low planes, each complemented where span[h] has its bit.
    Every chunk is weighed in full, so the chunk order does not change the
    weights any caller reads.  Folding the supports x | z in one qubit at a
    time with at_least[w] |= at_least[w - 1] & support, from w = j + 1 down
    to 1, leaves bit u of at_least[w] set exactly when product u weighs at
    least w.  Yields (base, at_least) per chunk, where base is the number of the
    chunk's product 0 and at_least has n + 2 entries, the last one 0.
    Nothing is approximated: every product's weight is counted exactly.
    """
    c = min(len(rows), _SLICE_BITS)
    ones = (1 << (1 << c)) - 1
    xs = [0] * n
    zs = [0] * n
    for i, row in enumerate(rows[:c]):
        half = 1 << i
        flip = (1 << half) - 1
        for j in range(n):
            x, z = xs[j], zs[j]
            xs[j] = x | (x ^ flip if row >> j & 1 else x) << half
            zs[j] = z | (z ^ flip if row >> (n + j) & 1 else z) << half
    for h, high in enumerate(span(rows[c:])):
        at_least = [ones] + [0] * (n + 1)
        for j in range(n):
            x = xs[j] ^ ones if high >> j & 1 else xs[j]
            z = zs[j] ^ ones if high >> (n + j) & 1 else zs[j]
            support = x | z
            for w in range(j + 1, 0, -1):
                at_least[w] |= at_least[w - 1] & support
        yield h << c, at_least


def _least_weight(rows, n: int, first: int) -> int:
    """Least weight among the products of rows numbered first and up (see
    _weight_slices); none of those may be the identity.  Stops at weight 1,
    which no product can beat."""
    best = n + 1
    for base, at_least in _weight_slices(rows, n):
        skip = first - base
        valid = at_least[0] >> skip << skip if skip > 0 else at_least[0]
        best = next((w for w in range(1, best) if valid & ~at_least[w + 1]), best)
        if best == 1:
            break
    return best


def weight_enumerator(g: StabGroup) -> WeightEnum:
    """Exact weight distribution of all 2^r group elements.

    The elements are the 2^r products of the generators, each once, and
    _weight_slices marks each with its exact weight: coeffs[w] counts the
    products that weigh at least w but not w + 1.  Raises ValueError when
    the group has more than 2^MAX_PRODUCT_BITS elements.
    """
    n = g.n
    if g.r > MAX_PRODUCT_BITS:
        raise ValueError(
            f"weight enumerator over 2^{g.r} elements exceeds the enumeration guard"
        )
    coeffs = [0] * (n + 1)
    for _, at_least in _weight_slices(g.rows, n):
        for w in range(n + 1):
            coeffs[w] += (at_least[w] ^ at_least[w + 1]).bit_count()
    return WeightEnum(tuple(coeffs))


def distance(g: StabGroup) -> int:
    """Code distance.

    For k > 0 this is the minimum weight over operators commuting with the
    group but outside it; for k = 0 the minimum nonzero weight inside the
    group; the trivial group gets distance 1.  Both are exact minima over
    products of one row list.  For k = 0 the rows are the generators, and
    the products numbered 1 and up are the group's nonidentity elements.
    For k > 0 the rows are the generators followed by the 2k logical_rows,
    which complete them to a basis of the centralizer; with the generators
    in the low r bits, the products numbered 2^r and up are exactly the
    centralizer elements with a nonzero logical part, that is, those
    outside the group.  Raises ValueError, before it builds any row, when
    the search would cover more than 2^MAX_PRODUCT_BITS operators.
    """
    if g.r == 0:
        return 1
    bits = 2 * g.k + g.r
    if bits > MAX_PRODUCT_BITS:
        raise ValueError(
            f"distance search over 2^{bits} operators exceeds the enumeration guard"
        )
    if g.k == 0:
        return _least_weight(g.rows, g.n, 1)
    return _least_weight([*g.rows, *logical_rows(g)], g.n, 1 << g.r)


def is_degenerate(g: StabGroup, d: int | None = None, weights=None) -> bool:
    """Whether some nonidentity group element weighs less than the distance.

    Only defined meaningfully for k > 0; k = 0 returns False.  The element
    weights are read off the weight enumerator: some element weighs less
    than d exactly when a coefficient at 1 <= w < d is nonzero.  A caller
    that already has the distance or the enumerator's coefficients passes
    them as d or weights, so they are not computed again.
    """
    if g.k == 0:
        return False
    if weights is None:
        weights = weight_enumerator(g).coeffs
    return any(weights[1 : distance(g) if d is None else d])


def is_even(g: StabGroup) -> bool:
    """Whether every group element has even weight.

    For commuting phase-free Paulis wt(ab) = wt(a) + wt(b) (mod 2), so
    weight parity is a homomorphism from the group to Z/2 and the even
    elements form its kernel.  The kernel is the whole group exactly when
    it holds every generator, so reading the generators' parities is exact.
    """
    n = g.n
    mask = (1 << n) - 1
    return all(((row | row >> n) & mask).bit_count() % 2 == 0 for row in g.rows)


def css_rank_test(g: StabGroup) -> bool:
    """Whether the group is generated by X-type and Z-type operators.

    Holds iff rank of the X parts plus rank of the Z parts equals the
    number of generators (the sum can never be smaller); both ranks are
    invariant under change of generating set.
    """
    n = g.n
    mask = (1 << n) - 1
    x_rank = rank([row & mask for row in g.rows])
    z_rank = rank([row >> n for row in g.rows])
    return x_rank + z_rank == g.r


def css_representative(g: StabGroup):
    """First letter-permutation witness whose image splits X/Z, or None.

    Searches the 6^n per-qubit letter permutations depth first in odometer
    order (qubit 0 first, gates in order I, H, S, R, Ri, V) and returns the
    first (LCPerm, transformed group) passing the rank split test.
    Each qubit adds its new X and Z columns to two incremental GF(2) bases.
    A letter permutation draws each new column from the qubit's x, z or
    x ^ z column, so a node reduces x and z against each basis, four
    reductions in all.  Each basis vector is reduced against those before it, so
    reduction is linear, and the reduced x ^ z is exactly the XOR of the
    reduced x and z.  A branch over qubits 0..j-1 is cut once rank(X) +
    rank(Z) there exceeds R_j, the rank of the group restricted to those
    qubits, which no letter permutation changes.  The cut is exact: the
    generator combinations that vanish on the prefix span r - R_j dimensions
    and stay independent on the suffix, so the final sum is at least the
    prefix sum plus r - R_j, above r, while a witness needs exactly r.  The
    order of the odometer is unchanged, so the first witness is too.  Qubit
    permutations never help, so none are tried.  Once the search visits
    more than CSS_MAX_NODES nodes, _css_excluded answers None when it
    proves that no witness exists, and ValueError is raised otherwise.
    """
    n, r = g.n, g.r
    if r == 0:
        return LCPerm((0,) * n), g
    cols = []
    for j in range(n):
        cx = 0
        cz = 0
        for i, row in enumerate(g.rows):
            cx |= ((row >> j) & 1) << i
            cz |= ((row >> (n + j)) & 1) << i
        cols.append((cx, cz))

    # bound[j]: rank of the group restricted to qubits 0..j-1
    bound = [0]
    prefix = []
    for col in cols:
        for v in col:
            v = reduce_row(prefix, v)
            if v:
                prefix.append(v)
        bound.append(len(prefix))
    gates = []
    nodes = 0

    def search(j, basis_x, basis_z):
        nonlocal nodes
        nodes += 1
        if nodes > CSS_MAX_NODES:
            raise ValueError(f"CSS search over {CSS_MAX_NODES} nodes exceeds its guard")
        if j == n:
            return True
        room = bound[j + 1] - len(basis_x) - len(basis_z)
        cx, cz = cols[j]
        xx, xz = reduce_row(basis_x, cx), reduce_row(basis_x, cz)
        zx, zz = reduce_row(basis_z, cx), reduce_row(basis_z, cz)
        red_x = (xx, xz, xx ^ xz)
        red_z = (zx, zz, zx ^ zz)
        for gate, (src_x, src_z) in enumerate(_SOURCES):
            vx = red_x[src_x]
            vz = red_z[src_z]
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

    try:
        found = search(0, [], [])
    except ValueError:
        if not _css_excluded(cols, r):
            raise
        found = False
    del search  # it refers to itself: free the search state now
    if not found:
        return None
    w = LCPerm(gates)
    return w, apply_lcperm(g, w)


def _css_excluded(cols, r: int) -> bool:
    """Whether one GF(2) system proves that no letter permutation makes the
    group CSS; False leaves the question open.

    cols[j] = (x_j, z_j) holds qubit j's X and Z columns over the r
    generators, vectors in F_2^r, and W_j = span(x_j, z_j).  A letter
    permutation makes the new columns two of x_j, z_j and x_j + z_j, so
    it keeps W_j.  Take a CSS image whose X part spans U and whose Z part
    spans V.  Its X and Z ranks add up to r, and U + V holds every column,
    which span F_2^r (the generators are independent), so F_2^r = U ⊕ V.
    The projection onto U along V then maps each W_j into itself, onto
    the span of its new X column: rank 1 on a 2-dimensional W_j, whose
    two new columns are nonzero and distinct, so its trace there is 1.
    So if no r x r map A sends every W_j into itself with trace 1 on
    every 2-dimensional W_j, the group has no CSS form.
    A sends W_j into itself exactly when f(A w) = 0 for w = x_j, z_j and
    each f in a basis of W_j's annihilator, and f(A w) is the sum of
    A[a][b] over f_a = w_b = 1: one equation in the r^2 entries of A,
    entry (a, b) at bit a * r + b.  On such a W_j the trace of A is
    f_x(A x_j) + f_z(A z_j), where f_x(x_j) = f_z(z_j) = 1 and f_x(z_j) =
    f_z(x_j) = 0: one more equation, whose right-hand side 1 is bit r^2.
    The system has no solution exactly when that bit raises its rank.
    """
    one = 1 << (r * r)

    def entries(f, w):  # the entries of A that f(A w) sums
        return sum(w << (a * r) for a in range(r) if f >> a & 1)

    def dual(w, other):  # a functional that is 1 on w and 0 on other
        zero_on_other = kernel(BitMatrix(r, [other])).rows
        return next(f for f in zero_on_other if (f & w).bit_count() & 1)

    equations = []
    for cx, cz in cols:
        annihilator = kernel(BitMatrix(r, [cx, cz])).rows
        for f in annihilator:
            for w in (cx, cz):  # a zero or repeated w adds nothing
                equations.append(entries(f, w))
        if len(annihilator) == r - 2:
            trace = entries(dual(cx, cz), cx) ^ entries(dual(cz, cx), cz)
            equations.append(trace | one)
    return rank(equations) > rank([e & ~one for e in equations])


def gf4_linear_test(g: StabGroup) -> bool:
    """Whether the global letter cycle X->Y->Z->X maps the group to itself,
    that is, whether the all-identity pattern solves gf4_representative's
    system.

    The trivial group is reported as not linear: it carries no nonzero
    vectors over GF(4).
    """
    w = gf4_representative(g)
    return w is not None and not any(w.gates)


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
    srows = g.canonical_gens()
    cycled = lcperm_rows(LCPerm(("R",) * n), g.rows)  # X -> Y -> Z -> X
    # one equation per generator and residue bit: p_j at bit j, the
    # right-hand side at bit n
    equations = []
    for row, image in zip(g.rows, cycled):
        target = reduce_row(srows, image)
        parts = [
            reduce_row(srows, row & (1 << j | 1 << (n + j)))
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
    solved, p_pivots = rref(BitMatrix(n + 1, equations), range(n - 1, -1, -1))
    if any(solved.rows[len(p_pivots):]):
        return None
    pattern = [0] * n
    for row, j in zip(solved.rows, p_pivots):
        pattern[j] = row >> n
    return LCPerm(pattern)


def decompose(g: StabGroup) -> DecompReport:
    """Split the group into untouched qubits and indecomposable factors.

    The factors are the connected components of the support-intersection
    graph over the RREF rows (canonical_gens, in the original qubit order);
    the rows generate the group, so the components split it.  If the group
    splits over two qubit sets, the RREFs of the two sides together already
    form an RREF, which is unique, so every RREF row lies inside one side:
    no component crosses a split, and the split is the finest.
    """
    n = g.n
    mask = (1 << n) - 1
    rows = g.canonical_gens()
    sups = [((row | (row >> n)) & mask) for row in rows]
    support = 0
    for s in sups:
        support |= s
    trivial = tuple(j for j in range(n) if not (support >> j) & 1)
    # (qubit mask, row indices) of the components merged so far
    comps = []
    for i, sup in enumerate(sups):
        members = [i]
        apart = []
        for qmask, idx in comps:
            if qmask & sup:
                sup |= qmask
                members += idx
            else:
                apart.append((qmask, idx))
        comps = apart + [(sup, members)]
    factors = []
    for qmask, members in comps:
        qubits = tuple(j for j in range(n) if (qmask >> j) & 1)
        sub_rows = []
        for i in sorted(members):
            fx = 0
            fz = 0
            for pos, q in enumerate(qubits):
                fx |= ((rows[i] >> q) & 1) << pos
                fz |= ((rows[i] >> (n + q)) & 1) << pos
            sub_rows.append(fx | (fz << len(qubits)))
        factors.append((qubits, StabGroup(len(qubits), sub_rows)))
    factors.sort(key=lambda f: f[0])
    return DecompReport(trivial, tuple(factors))

