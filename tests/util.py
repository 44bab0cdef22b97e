"""Shared helpers for the test suite."""

from stabdb.f2core import BitMatrix, rank
from stabdb.pauli import PauliOp, StabGroup, span_rows, symplectic_product


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
