"""Class enumeration: extension search, graph-state search, class relations.

Two independent strategies produce a transversal of the equivalence
classes per (n, k):

* the iterative search extends every class representative at level k by
  one commuting generator to reach level k - 1, deduplicating through
  canonical keys; extensions in one orbit of the representative's
  automorphism group land in one class, so only one per orbit is
  canonicalized (canonical augmentation, McKay 1998), and

* the codeword search pairs graph orbit representatives with classical
  linear codes.

Agreement of the two key sets, together with the mass identity, certifies
completeness of the transversal.
"""

import itertools
from dataclasses import dataclass

from .canon import CanonicalKey, automorphisms, class_key
from .f2core import BitMatrix, kernel, rref
from .pauli import StabGroup, _sym_packed, logical_rows
from .transform import LocalClifford, apply_local_clifford, apply_perm, lcperm_rows, rsf


@dataclass(frozen=True)
class ClassEntry:
    """One equivalence class: canonical key, first representative found,
    and the key's lexicographic rank within its (n, k) cell."""

    key: CanonicalKey
    rep: StabGroup
    index: int


@dataclass(frozen=True)
class GraphState:
    """A simple graph on n vertices standing for the stabilizer group
    generated by g_j = X_j prod_{i ~ j} Z_i."""

    adjacency: BitMatrix

    def __post_init__(self):
        rows = self.adjacency.rows
        n = len(rows)
        if self.adjacency.ncols != n:
            raise ValueError("adjacency matrix must be square")
        for i, row in enumerate(rows):
            if (row >> i) & 1:
                raise ValueError("adjacency diagonal must be zero")
            for j in range(i + 1, n):
                if ((row >> j) & 1) != ((rows[j] >> i) & 1):
                    raise ValueError("adjacency matrix must be symmetric")

    @property
    def n(self) -> int:
        return len(self.adjacency.rows)

    def stabilizer(self) -> StabGroup:
        n = self.n
        rows = [(1 << j) | (self.adjacency.rows[j] << n) for j in range(n)]
        return StabGroup(n, BitMatrix(2 * n, rows), validate=False)


def extend_class(rep: StabGroup) -> list[StabGroup]:
    """Rank r+1 supergroups of rep, one per Aut(rep)-orbit of extensions.

    Adjoining P and adjoining P*s for s in the span give the same group,
    so extensions are the 2^2k - 1 nonzero cosets of the span in its
    centralizer, walked in Gray-code order over the logical_rows basis.
    A symmetry of rep maps each extension onto one in the same class, so
    only the Gray-earliest member of each orbit is returned: every coset
    is a 2k-bit coordinate vector, each automorphism generator a GF(2)
    map on those vectors, and an emitted coset floods its orbit.  The
    earliest extension landing in any class is the earliest of its own
    orbit, so a first-found-wins search keeps the same representatives.
    """
    if rep.k < 1:
        raise ValueError("a group with k = 0 admits no extension")
    n, r = rep.n, rep.r
    cosets = logical_rows(rep)
    basis = list(rep.gens.rows) + cosets  # spans the centralizer
    reduced, pivots, trans = rref(BitMatrix(2 * n, basis))
    steps = list(zip(reduced.rows, pivots, trans.rows))

    def coordinates(v):
        c = 0
        for row, p, combo in steps:
            if (v >> p) & 1:
                v ^= row
                c ^= combo
        if v:
            raise AssertionError(
                "internal error: automorphism image leaves the centralizer"
            )
        return c >> r

    # tables[i][c] is generator i's image of coset coordinate vector c
    tables = []
    for aut in automorphisms(rep):
        images = [coordinates(v) for v in lcperm_rows(aut, basis)]
        if any(images[:r]):
            raise AssertionError(
                "internal error: automorphism does not fix the group"
            )
        table = [0]
        for col in images[r:]:
            table += [c ^ col for c in table]
        tables.append(table)

    seen = bytearray(1 << len(cosets))
    out = []
    cur = 0
    for t in range(1, 1 << len(cosets)):
        cur ^= cosets[(t & -t).bit_length() - 1]
        c = t ^ (t >> 1)  # coordinates of cur
        if seen[c]:
            continue
        seen[c] = 1
        rows = basis[:r] + [cur]
        out.append(StabGroup(n, BitMatrix(2 * n, rows), validate=False))
        orbit = [c]
        while orbit:
            u = orbit.pop()
            for table in tables:
                v = table[u]
                if not seen[v]:
                    seen[v] = 1
                    orbit.append(v)
    return out


def _sorted_entries(found: dict) -> list[ClassEntry]:
    keys = sorted(found)
    return [ClassEntry(key, found[key], i) for i, key in enumerate(keys)]


def enumerate_classes(n: int, k_min: int = 0) -> dict:
    """Transversal of all equivalence classes for k = n down to k_min.

    Returns {(n, k): [ClassEntry, ...]} with entries in canonical key
    order.  Level k - 1 is the deduplicated set of one-generator
    extensions of level k, seeded from the single trivial class at k = n;
    a representative's extensions meet every class of supergroups, so no
    class is missed.
    """
    if not 0 <= k_min <= n:
        raise ValueError("need 0 <= k_min <= n")
    trivial = StabGroup.from_strings([], n)
    level = [ClassEntry(class_key(trivial), trivial, 0)]
    result = {(n, n): level}
    for k in range(n - 1, k_min - 1, -1):
        found = {}
        for entry in level:
            for cand in extend_class(entry.rep):
                key = class_key(cand)
                if key not in found:
                    found[key] = cand
        level = _sorted_entries(found)
        result[(n, k)] = level
    return result


def graphstate_orbits(n: int) -> list[GraphState]:
    """One graph per orbit under graph isomorphism + local complementation.

    Walks every labeled graph once: each unvisited graph seeds a closure
    under single local complementations and adjacent vertex
    transpositions, and the seed (the smallest unvisited encoding) is the
    orbit representative.
    """
    if n == 0:
        return []
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    nbits = len(pairs)

    def rows_of(code):
        rows = [0] * n
        for t, (i, j) in enumerate(pairs):
            if (code >> t) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        return rows

    def encode(rows):
        code = 0
        for t, (i, j) in enumerate(pairs):
            if (rows[i] >> j) & 1:
                code |= 1 << t
        return code

    def local_complement(rows, v):
        new = list(rows)
        nbh = rows[v]
        for a in range(n):
            if (nbh >> a) & 1:
                new[a] ^= nbh & ~(1 << a)
        return new

    def swap_adjacent(rows, a):
        b = a + 1
        new = []
        for i in range(n):
            row = rows[a] if i == b else rows[b] if i == a else rows[i]
            bit_a = (row >> a) & 1
            bit_b = (row >> b) & 1
            row &= ~((1 << a) | (1 << b))
            new.append(row | (bit_b << a) | (bit_a << b))
        return new

    seen = bytearray(1 << nbits)
    reps = []
    for code in range(1 << nbits):
        if seen[code]:
            continue
        reps.append(GraphState(BitMatrix(n, rows_of(code))))
        seen[code] = 1
        stack = [code]
        while stack:
            rows = rows_of(stack.pop())
            moves = [local_complement(rows, v) for v in range(n)]
            moves += [swap_adjacent(rows, a) for a in range(n - 1)]
            for new_rows in moves:
                e = encode(new_rows)
                if not seen[e]:
                    seen[e] = 1
                    stack.append(e)
    return reps


def cws_to_stabilizer(gs: GraphState, code: BitMatrix) -> StabGroup:
    """Stabilizer of the codeword-stabilized pair (graph, linear code).

    The group is the commutant of the word operators {Z^c} inside the
    graph group: generator j anticommutes with Z^c iff j is in the
    support of c, so for each code row the generators with odd exponent
    overlap are folded into one and that one is dropped.
    """
    n = gs.n
    if code.ncols != n:
        raise ValueError("code length must match the qubit count")
    _, pivots, _ = rref(code)
    if len(pivots) != len(code.rows):
        raise ValueError("code rows must be linearly independent")
    gens = list(gs.stabilizer().gens.rows)
    exps = [1 << j for j in range(n)]  # graph-generator content of each row
    for c in code.rows:
        hot = [i for i in range(len(gens)) if (exps[i] & c).bit_count() & 1]
        if not hot:
            continue
        first = hot[0]
        for i in hot[1:]:
            gens[i] ^= gens[first]
            exps[i] ^= exps[first]
        del gens[first], exps[first]
    return StabGroup(n, BitMatrix(2 * n, gens), validate=False)


def _lagrangian_firsts(rows: list[int], n: int) -> list[int]:
    """Half of a hyperbolic basis of the span of rows modulo the radical.

    Symplectic Gram-Schmidt: pair each leading vector with an
    anticommuting partner, then clean the remainder against the pair.
    The returned firsts commute pairwise.
    """
    mask = (1 << n) - 1
    pool = list(rows)
    firsts = []
    while pool:
        v = pool.pop(0)
        if not v:
            continue
        partner = None
        for i, w in enumerate(pool):
            if _sym_packed(v, w, n, mask):
                partner = i
                break
        if partner is None:
            firsts.append(v)
            continue
        w = pool.pop(partner)
        firsts.append(v)
        pool = [
            u
            ^ (v if _sym_packed(u, w, n, mask) else 0)
            ^ (w if _sym_packed(u, v, n, mask) else 0)
            for u in pool
        ]
    return firsts


def stabilizer_to_cws(g: StabGroup) -> tuple:
    """Graph state and word matrix reproducing the group's class.

    The group is completed to a maximal group with k pairwise commuting
    centralizer representatives; its standard form has X rank r plus
    pure-Z pivots on every remaining qubit, so a layer of H on the Z
    pivots makes the X block the identity and a layer of S where Y sits on
    the diagonal clears the symmetric Z block's diagonal, leaving graph
    generators.  The image of the original group under the same relabeling
    and layers is then a subgroup of the graph group, determined by its
    exponent vectors (the X parts), and the returned words span their
    orthogonal complement.

    cws_to_stabilizer on the result rebuilds exactly that image, a group
    in the same equivalence class as g.
    """
    n = g.n
    mask = (1 << n) - 1
    logical = _lagrangian_firsts(logical_rows(g), n)
    full = StabGroup(
        n, BitMatrix(2 * n, list(g.gens.rows) + logical), validate=False
    )
    res = rsf(full)
    h_layer = LocalClifford(["I"] * res.r + ["H"] * (n - res.r))
    h_form = apply_local_clifford(
        StabGroup(n, res.matrix, validate=False), h_layer
    )
    s_layer = LocalClifford(
        ["S" if (row >> (n + j)) & 1 else "I"
         for j, row in enumerate(h_form.gens.rows)]
    )
    graph = apply_local_clifford(h_form, s_layer)
    gph = GraphState(BitMatrix(n, [row >> n for row in graph.gens.rows]))
    image = apply_local_clifford(
        apply_local_clifford(apply_perm(g, res.perm), h_layer), s_layer
    )
    words = kernel(BitMatrix(n, [row & mask for row in image.gens.rows]))
    return gph, words


def cws_enumerate(n: int, k: int) -> list[ClassEntry]:
    """Classes of [[n, k]] found by pairing graph orbits with
    k-dimensional binary codes (one echelon representative per row
    space), in canonical key order."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    found = {}
    orbits = graphstate_orbits(n)
    for code in _rref_matrices(n, k):
        for gs in orbits:
            g = cws_to_stabilizer(gs, code)
            key = class_key(g)
            if key not in found:
                found[key] = g
    return _sorted_entries(found)


def _rref_matrices(n: int, k: int):
    """All full-rank k x n matrices in reduced row echelon form."""
    if k == 0:
        yield BitMatrix(n, [])
        return
    for pivots in itertools.combinations(range(n), k):
        free = [
            [c for c in range(pivots[i] + 1, n) if c not in pivots]
            for i in range(k)
        ]
        nfree = sum(len(f) for f in free)
        for bits in range(1 << nfree):
            rows = []
            pos = 0
            for i in range(k):
                row = 1 << pivots[i]
                for c in free[i]:
                    if (bits >> pos) & 1:
                        row |= 1 << c
                    pos += 1
                rows.append(row)
            yield BitMatrix(n, rows)


def parent_child_edges(parents, children) -> list[tuple]:
    """Edges (parent key, child key) between consecutive levels.

    A parent at level k relates to a child at level k - 1 exactly when
    one of the parent representative's extensions lands in the child's
    class; transporting a witness through the class equivalence shows the
    representative's extensions are exhaustive.
    """
    child_keys = {entry.key for entry in children}
    edges = set()
    for p in parents:
        for cand in extend_class(p.rep):
            key = class_key(cand)
            if key not in child_keys:
                raise ValueError(
                    "extension reached a class missing from children"
                )
            edges.add((p.key, key))
    return sorted(edges)
