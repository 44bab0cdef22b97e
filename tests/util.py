"""Shared helpers for the test suite."""

import itertools

from stabdb.f2core import BitMatrix, rank, reduce_row, rref
from stabdb.pauli import PauliOp, StabGroup, span_rows, symplectic_product
from stabdb.transform import LocalClifford


def random_stab_group(n: int, r: int, rng) -> StabGroup:
    """A random stabilizer group with exactly r independent generators."""
    assert 0 <= r <= n
    rows: list[int] = []
    while len(rows) < r:
        cand = rng.randrange(1, 1 << (2 * n))
        p = PauliOp.from_packed(n, cand)
        if any(
            symplectic_product(p, PauliOp.from_packed(n, q)) for q in rows
        ):
            continue
        if rank(BitMatrix(2 * n, rows + [cand])) != len(rows) + 1:
            continue
        rows.append(cand)
    return StabGroup(n, BitMatrix(2 * n, rows))


def matmul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2), the oracle for rref's row transform; row
    i of the result is XOR of b-rows selected by the set bits of a's row i."""
    if a.ncols != b.nrows:
        raise ValueError("inner dimensions disagree")
    out = []
    for ra in a.rows:
        acc = 0
        j = 0
        while ra:
            if ra & 1:
                acc ^= b.rows[j]
            ra >>= 1
            j += 1
        out.append(acc)
    return BitMatrix(b.ncols, out)


def closure_order(gens, npoints: int) -> int:
    """Order of the permutation group the gens generate, by a breadth-first
    closure over their products (an exponential oracle for small groups)."""
    identity = tuple(range(npoints))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def packed_weight(row: int, n: int) -> int:
    mask = (1 << n) - 1
    return ((row | (row >> n)) & mask).bit_count()


def brute_distance(g: StabGroup) -> int:
    """Distance by scanning every packed Pauli row (exponential oracle)."""
    n = g.n
    span = set(span_rows(g))
    gens = g.gens.rows
    if g.r == 0:
        return 1
    if g.k == 0:
        return min(packed_weight(row, n) for row in span if row)
    best = None
    for row in range(1, 1 << (2 * n)):
        if row in span:
            continue
        a = PauliOp.from_packed(n, row)
        if any(
            symplectic_product(a, PauliOp.from_packed(n, h)) for h in gens
        ):
            continue
        w = packed_weight(row, n)
        if best is None or w < best:
            best = w
    return best


def reembed(report, n: int) -> StabGroup:
    """Rebuild an n-qubit group from a decomposition report's factors."""
    rows = []
    for qubits, factor in report.factors:
        m = factor.n
        for row in factor.gens.rows:
            full = 0
            for pos, q in enumerate(qubits):
                full |= ((row >> pos) & 1) << q
                full |= ((row >> (m + pos)) & 1) << (n + q)
            rows.append(full)
    return StabGroup(n, BitMatrix(2 * n, rows))


def brute_gf4_representative(g: StabGroup):
    """First I/H pattern, qubit 0 most significant, whose image is closed
    under the letter cycle X->Y->Z->X, or None; walks all 2^n patterns
    (an exponential oracle).  A qubit under H sees the inverse cycle."""
    n = g.n
    if g.r % 2 == 1 or g.r == 0:
        return None
    mask = (1 << n) - 1
    reduced, pivots, _ = rref(g.gens)
    srows = reduced.rows[: len(pivots)]
    for pattern in itertools.product((0, 1), repeat=n):
        m_inv = sum(1 << j for j, p in enumerate(pattern) if p)
        m_cycle = mask ^ m_inv
        for row in g.gens.rows:
            x = row & mask
            z = row >> n
            nx = ((x ^ z) & m_cycle) | (z & m_inv)
            nz = (x & m_cycle) | ((x ^ z) & m_inv)
            if reduce_row(srows, pivots, nx | (nz << n)):
                break
        else:
            return LocalClifford(pattern)
    return None
