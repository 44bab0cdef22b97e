"""Shared helpers for the test suite."""

import itertools
import math
import os
import random
from collections import deque

from stabdb.db import CodeRecord, _cell_name
from stabdb.f2core import rank, reduce_row, rref, span
from stabdb.pauli import StabGroup, centralizer, logical_rows, symplectic_product
from stabdb.transform import _SOURCES, LCPerm


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
        basis = centralizer(g)
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


def read_db_per_line(directory, n: int, k: int) -> list:
    """The oracle for db.read_db: the cell file read by binary line
    iteration, each line decoded as strict UTF-8, parsed by
    CodeRecord.from_json and checked against the cell, raising read_db's
    messages."""
    path = os.path.join(directory, _cell_name(n, k))
    records = []
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                rec = CodeRecord.from_json(line.decode("utf-8"))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: corrupt record: {exc}")
            if rec.n != n or rec.k != k:
                where = f"{path}:{lineno}: record of cell (n={rec.n}, k={rec.k})"
                raise ValueError(f"{where} filed under cell (n={n}, k={k})")
            records.append(rec)
    return records


def reference_css_search(g: StabGroup):
    """properties.css_representative's search as it was before it skipped
    the X<->Z mirror at qubit 0 and repeated reduced pairs: (gates of the
    first witness or None, nodes visited), with no node bound (the oracle
    the faster search must match on every group it decides)."""
    n, r = g.n, g.r
    if r == 0:
        return (0,) * n, 1
    cols = []
    for j in range(n):
        cx = cz = 0
        for i, row in enumerate(g.rows):
            cx |= ((row >> j) & 1) << i
            cz |= ((row >> (n + j)) & 1) << i
        cols.append((cx, cz))
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

    found = search(0, [], [])
    del search  # it refers to itself
    return (tuple(gates) if found else None), nodes


def matmul(a, b) -> tuple:
    """Matrix product over GF(2) of packed rows, the oracle for a row
    transform; row i of the result is XOR of b-rows selected by the set
    bits of a's row i, so a's rows are len(b) wide."""
    out = []
    for ra in a:
        if ra >> len(b):
            raise ValueError("inner dimensions disagree")
        acc = 0
        j = 0
        while ra:
            if ra & 1:
                acc ^= b[j]
            ra >>= 1
            j += 1
        out.append(acc)
    return tuple(out)


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


def perm_group_order(gens, npoints: int) -> int:
    """Order of the permutation group the gens generate, by the
    deterministic Schreier-Sims algorithm: a base and strong generating
    set, every Schreier generator sifted to the identity, and the order
    the product of the basic orbit lengths (a polynomial oracle for groups
    too large for closure_order)."""
    identity = tuple(range(npoints))

    def mul(a, b):  # a, then b
        return tuple(b[x] for x in a)

    def inv(a):
        out = [0] * npoints
        for x, y in enumerate(a):
            out[y] = x
        return tuple(out)

    def orbit(b, gs):  # point -> an element taking b there
        tr = {b: identity}
        queue = [b]
        for p in queue:
            for g in gs:
                if g[p] not in tr:
                    tr[g[p]] = mul(tr[p], g)
                    queue.append(g[p])
        return tr

    gens = [tuple(g) for g in gens if tuple(g) != identity]
    base = []
    for g in gens:
        if all(g[b] == b for b in base):
            base.append(next(x for x in range(npoints) if g[x] != x))
    level_gens = [
        [g for g in gens if all(g[b] == b for b in base[:i])] for i in range(len(base))
    ]
    trs = [orbit(b, gs) for b, gs in zip(base, level_gens)]
    i = len(base) - 1
    while i >= 0:
        for beta, u, s in ((b, u, s) for b, u in trs[i].items() for s in level_gens[i]):
            h = mul(mul(u, s), inv(trs[i][s[beta]]))  # fixes base[i]
            j = i + 1
            while j < len(base) and h[base[j]] in trs[j]:
                h = mul(h, inv(trs[j][h[base[j]]]))
                j += 1
            if h == identity:
                continue
            if j == len(base):
                base.append(next(x for x in range(npoints) if h[x] != x))
                level_gens.append([])
                trs.append(None)
            for m in range(i + 1, j + 1):
                level_gens[m].append(h)
                trs[m] = orbit(base[m], level_gens[m])
            i = j
            break
        else:
            i -= 1
    return math.prod(len(tr) for tr in trs)


def count_calls(monkeypatch, counts: dict, owner, name: str, key=None) -> None:
    """Rebinds owner.name to a wrapper that adds one to counts[key] (key
    defaults to name) on every call."""
    fn = getattr(owner, name)
    key = key or name
    counts.setdefault(key, 0)

    def call(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, call)


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
    reduced, _ = rref(g.rows, range(2 * n))
    for pattern in itertools.product((0, 1), repeat=n):
        m_inv = sum(1 << j for j, p in enumerate(pattern) if p)
        m_cycle = mask ^ m_inv
        for row in g.rows:
            x = row & mask
            z = row >> n
            nx = ((x ^ z) & m_cycle) | (z & m_inv)
            nz = (x & m_cycle) | ((x ^ z) & m_inv)
            if reduce_row(reduced, nx | (nz << n)):
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
