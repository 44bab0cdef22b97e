"""Shared helpers for the test suite."""

import itertools
import random
from collections import deque

from stabdb.f2core import BitMatrix, rank, reduce_row, rref, span
from stabdb.pauli import StabGroup, centralizer, logical_rows, symplectic_product
from stabdb.transform import LCPerm


def random_stab_group(n: int, r: int, rng) -> StabGroup:
    """A random stabilizer group with exactly r independent generators.

    Each new row is uniform over the centralizer of the rows kept, outside
    their span: a uniform combination of a centralizer basis, drawn again
    while it lies in the span, which it does with odds 2^m / 2^(2n - m) <=
    1/2 for m < n rows kept.  Rejecting uniform Paulis that anticommute or
    depend would give the same distribution in about 2^m draws a row.
    """
    assert 0 <= r <= n
    g = StabGroup(n, ())
    while g.r < r:
        basis = centralizer(g).rows
        cand = 0
        for row in basis:
            if rng.getrandbits(1):
                cand ^= row
        if rank((*g.rows, cand)) > g.r:
            g = StabGroup(n, (*g.rows, cand))
    return g


def random_lcperm(n: int, seed=None) -> LCPerm:
    """Uniformly random symmetry element; seed may be an int or a Random."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    image = list(range(n))
    rng.shuffle(image)
    gates = [rng.randrange(6) for _ in range(n)]
    return LCPerm(gates, image)


def matmul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """Matrix product over GF(2), the oracle for a row transform; row
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
    elements = set(span(g.rows))
    gens = g.rows
    if g.r == 0:
        return 1
    if g.k == 0:
        return min(packed_weight(row, n) for row in elements if row)
    best = None
    for row in range(1, 1 << (2 * n)):
        if row in elements:
            continue
        if any(symplectic_product(row, h, n) for h in gens):
            continue
        w = packed_weight(row, n)
        if best is None or w < best:
            best = w
    return best


def coset_distance(g: StabGroup) -> int:
    """Distance by walking every logical coset of the span: the nonzero
    combinations of logical_rows in Gray order, each XORed with all 2^r
    span elements (k = 0: the nonzero span elements)."""
    n = g.n
    if g.r == 0:
        return 1
    elements = span(g.rows)
    if g.k == 0:
        return min(packed_weight(row, n) for row in elements if row)
    logicals = logical_rows(g)
    best = 2 * n
    cur = 0
    for t in range(1, 1 << len(logicals)):
        cur ^= logicals[(t & -t).bit_length() - 1]
        best = min(best, min(packed_weight(cur ^ s, n) for s in elements))
    return best


def span_weight_enumerator(g: StabGroup) -> tuple:
    """coeffs[w] by weighing each of the 2^r span elements."""
    coeffs = [0] * (g.n + 1)
    for row in span(g.rows):
        coeffs[packed_weight(row, g.n)] += 1
    return tuple(coeffs)


def span_is_even(g: StabGroup) -> bool:
    """Whether the even-weight span elements have the group's rank."""
    even = [row for row in span(g.rows) if packed_weight(row, g.n) % 2 == 0]
    return rank(even) == g.r


def reembed(report, n: int) -> StabGroup:
    """Rebuild an n-qubit group from a decomposition report's factors."""
    rows = []
    for qubits, factor in report.factors:
        m = factor.n
        for row in factor.rows:
            full = 0
            for pos, q in enumerate(qubits):
                full |= ((row >> pos) & 1) << q
                full |= ((row >> (m + pos)) & 1) << (n + q)
            rows.append(full)
    return StabGroup(n, rows)


def brute_split(g: StabGroup) -> tuple:
    """(trivial qubits, factor qubit tuples) of the finest tensor split, by
    trying every side A of the supported qubits (an exponential oracle).

    A splits the group when the ranks of the generators restricted to A and
    to the other supported qubits add up to r; a supported qubit's factor
    is the intersection of the splitting sides that hold it.
    """
    n = g.n
    rows = g.rows
    support = 0
    for row in rows:
        support |= (row | (row >> n)) & ((1 << n) - 1)
    supported = [j for j in range(n) if (support >> j) & 1]

    def rank_on(qubits):
        both = qubits | (qubits << n)
        return rank([row & both for row in rows])

    sides = []
    for bits in range(1 << len(supported)):
        side = sum(1 << q for t, q in enumerate(supported) if (bits >> t) & 1)
        if rank_on(side) + rank_on(support ^ side) == g.r:
            sides.append(side)
    factors = set()
    for q in supported:
        factor = support
        for side in sides:
            factor &= side if (side >> q) & 1 else support ^ side
        factors.add(tuple(j for j in range(n) if (factor >> j) & 1))
    trivial = tuple(j for j in range(n) if not (support >> j) & 1)
    return trivial, tuple(sorted(factors))


def brute_gf4_representative(g: StabGroup):
    """First I/H pattern, qubit 0 most significant, whose image is closed
    under the letter cycle X->Y->Z->X, or None; walks all 2^n patterns
    (an exponential oracle).  A qubit under H sees the inverse cycle."""
    n = g.n
    if g.r % 2 == 1 or g.r == 0:
        return None
    mask = (1 << n) - 1
    reduced, _ = rref(BitMatrix(2 * n, g.rows))
    for pattern in itertools.product((0, 1), repeat=n):
        m_inv = sum(1 << j for j, p in enumerate(pattern) if p)
        m_cycle = mask ^ m_inv
        for row in g.rows:
            x = row & mask
            z = row >> n
            nx = ((x ^ z) & m_cycle) | (z & m_inv)
            nz = (x & m_cycle) | ((x ^ z) & m_inv)
            if reduce_row(reduced.rows, nx | (nz << n)):
                break
        else:
            return LCPerm(pattern)
    return None


def reference_refine(part, adj, worklist):
    """canon._Partition.refine as it was before its one-vertex and no-split
    paths: count every vertex's neighbours in the splitting cell, then group
    every touched cell by count (the oracle the faster refine must match)."""
    self = part
    order, start, end = self.order, self.start, self.end
    queue = deque(worklist)
    inq = set(queue)
    while queue and self.nbig:  # a discrete partition cannot split
        w = queue.popleft()
        inq.discard(w)
        cnt = {}
        for u in order[w : end[w]]:
            for nb in adj[u]:
                cnt[nb] = cnt.get(nb, 0) + 1
        touched = {start[nb] for nb in cnt}
        for s in sorted(touched):
            e = end[s]
            if e - s == 1:
                continue
            groups = {}
            for v in order[s:e]:
                groups.setdefault(cnt.get(v, 0), []).append(v)
            if len(groups) == 1:
                continue
            parts = [groups[key] for key in sorted(groups)]
            order[s:e] = [v for p in parts for v in p]
            names = []
            pos = s
            for p in parts:
                if pos != s:
                    for v in p:
                        start[v] = pos
                names.append(pos)
                end[pos] = pos + len(p)
                pos += len(p)
            self.nbig += sum(1 for p in parts if len(p) > 1) - 1
            if s in inq:
                fresh = names[1:]
            else:
                largest = max(range(len(parts)), key=lambda i: len(parts[i]))
                fresh = names[:largest] + names[largest + 1 :]
            queue.extend(fresh)
            inq.update(fresh)
