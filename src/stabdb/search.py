"""Class enumeration: extension search and graph-state search.

The census is the iterative search, enumerate_classes: it extends every
class representative at level k by one commuting generator to reach level
k - 1, deduplicating through canonical keys.  Extensions in one orbit of
the representative's automorphism group land in one class, so only one
per orbit is canonicalized (canonical augmentation, McKay 1998).  Each
canonicalized orbit is labelled with the position its class takes in the
finished level, and one level down an extension that contains a labelled
group of a class placed before its parent's is dropped unsearched: a
symmetry carries it onto an extension of that earlier representative,
whose orbits were all met before (see extend_class).  Keys,
representatives and indexes are those of the unfiltered loop.

The codeword search, cws_enumerate, independently pairs graph orbit
representatives, grown one vertex at a time through the census's
deduplicating loop, with classical linear codes.  No command runs it; the
tests check that its key sets agree with the census, which together with
the mass identity certifies completeness of the transversal.
"""

import itertools
from dataclasses import dataclass

from .canon import CanonicalKey, automorphisms, class_key
from .f2core import BitMatrix, kernel, reduce_row, rref, span
from .pauli import StabGroup, logical_rows, symplectic_product
from .transform import LCPerm, apply_lcperm, lcperm_rows


@dataclass(frozen=True)
class ClassEntry:
    """One equivalence class: canonical key and first representative
    found.  The class's index is the entry's position in its (n, k) cell,
    whose entries are in canonical key order."""

    key: CanonicalKey
    rep: StabGroup


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
        n, rows = self.n, self.adjacency.rows
        return StabGroup(n, [1 << j | row << n for j, row in enumerate(rows)])


def extend_class(
    rep: StabGroup, known=({}, ()), position: int = 0, orbits=None
) -> list[StabGroup]:
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

    known is a level index as _label_index builds it, by default the
    empty one.  In a census, rep is the representative at `position` of
    its level, and known holds rank-r groups labelled with the position
    of their class in that level.  An extension C that contains a group
    Q labelled p < position is dropped unsearched.  A symmetry
    maps Q onto the representative P_p and C onto an extension of P_p,
    which lies in the Aut(P_p)-orbit of one that extend_class(P_p)
    returned earlier in the level.  So C's class is found already, and C
    could not be its first member: keys, representatives and indexes
    stay those of the unfiltered walk.  A dropped extension still floods
    its orbit, so the list is a subsequence of the one returned with the
    empty index.  For each returned extension, (position, coset rows of
    its orbit) is appended to orbits when that is a list.
    """
    if rep.k < 1:
        raise ValueError("a group with k = 0 admits no extension")
    n, r, k = rep.n, rep.r, rep.k
    cosets = logical_rows(rep)
    basis = [*rep.rows, *cosets]  # spans the centralizer
    # an identity block above bit 2n records which basis rows each
    # reduced row sums, so a residue's high bits are its coordinates
    tagged = [v | 1 << (2 * n + i) for i, v in enumerate(basis)]
    reduced, _ = rref(BitMatrix(2 * n + len(basis), tagged), range(2 * n))
    mask = (1 << 2 * n) - 1

    def coordinates(v):
        v = reduce_row(reduced.rows, v)
        if v & mask:
            raise AssertionError(
                "internal error: automorphism image leaves the centralizer"
            )
        return v >> (2 * n + r)

    # generator i's image of coset coordinate vector c is
    # lo[c & low] ^ hi[c >> k] for (lo, hi) = tables[i]: two 2^k-entry
    # tables in place of one of 2^(2k)
    low = (1 << k) - 1
    tables = []
    for aut in automorphisms(rep):
        images = [coordinates(v) for v in lcperm_rows(aut, basis)]
        if any(images[:r]):
            raise AssertionError(
                "internal error: automorphism does not fix the group"
            )
        tables.append((span(images[r:r + k]), span(images[r + k:])))

    labels, parents = known
    below = position * len(parents)  # labels of classes before position
    group = span(basis[:r])
    inside = set(group)
    # labelled rows inside rep itself, met by every extension
    fixed = [v for e in group for v in labels.get(e, ()) if v < below]

    def contains_earlier(x):
        """Whether rep + x contains a known group placed before position."""
        hits = fixed + [
            v for e in group for v in labels.get(e ^ x, ()) if v < below
        ]
        return any(
            all(g in inside or g ^ x in inside for g in parents[v % len(parents)])
            for v in hits
        )

    elements = span(cosets)
    seen = bytearray(len(elements))
    out = []
    for t in range(1, len(elements)):
        c = t ^ (t >> 1)  # the Gray walk's t-th coset
        if seen[c]:
            continue
        seen[c] = 1
        orbit = [c]
        for u in orbit:  # grows while it is walked
            u_lo, u_hi = u & low, u >> k
            for lo, hi in tables:
                v = lo[u_lo] ^ hi[u_hi]
                if not seen[v]:
                    seen[v] = 1
                    orbit.append(v)
        if contains_earlier(elements[c]):
            continue
        out.append(StabGroup(n, (*rep.rows, elements[c])))
        if orbits is not None:
            orbits.append((position, [elements[u] for u in orbit]))
    return out


def _transversal(candidates, firsts=None) -> list[ClassEntry]:
    """One entry per class met among candidates, the first candidate in
    it as representative, in canonical key order.  class_key is read from
    the module on each call, so a rebound one is the one used.  When
    firsts is a list, each candidate's class is appended to it as the
    class's first candidate, which the entries keep anyway: a duplicate's
    own key is a new bytes object."""
    found = {}
    for cand in candidates:
        key = class_key(cand, found)
        if key not in found:
            found[key] = cand
        if firsts is not None:
            firsts.append(found[key])
    return [ClassEntry(key, found[key]) for key in sorted(found)]


def _label_index(parents, level, firsts, orbits) -> tuple:
    """The groups of a finished level whose class the census knows, as
    extend_class reads them: ({coset row: [label, ...]}, parent rows).

    Each orbit extend_class reported is the coset rows x of groups
    P_i + x in one class, P_i the parent at position i, and firsts holds
    the representative of each orbit's class.  A label packs that class's
    position p in level as p * len(parents) + i, so p < q reads as
    label < q * len(parents).
    """
    position = {id(entry.rep): p for p, entry in enumerate(level)}
    labels = {}
    for rep, (i, rows) in zip(firsts, orbits, strict=True):
        label = position[id(rep)] * len(parents) + i
        for x in rows:
            labels.setdefault(x, []).append(label)
    return labels, [entry.rep.rows for entry in parents]


def enumerate_classes(n: int, k_min: int = 0) -> dict:
    """Transversal of all equivalence classes for k = n down to k_min.

    Returns {(n, k): [ClassEntry, ...]} with entries in canonical key
    order.  Level k - 1 is the deduplicated set of one-generator
    extensions of level k, seeded from the single trivial class at k = n;
    a representative's extensions meet every class of supergroups, so no
    class is missed.  Each level's canonicalized orbits are indexed for
    the next, where extend_class drops an extension that contains a group
    of an earlier class (see extend_class).
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got n = {n}")
    if not 0 <= k_min <= n:
        raise ValueError("need 0 <= k_min <= n")
    trivial = StabGroup.from_strings([], n)
    level = [ClassEntry(class_key(trivial), trivial)]
    result = {(n, n): level}
    known = ({}, ())  # the trivial group's level has no index
    for k in range(n - 1, k_min - 1, -1):
        firsts = []
        orbits = [] if k > k_min else None  # the last level is not extended
        parents, level = level, _transversal(
            (
                cand
                for position, entry in enumerate(level)
                for cand in extend_class(entry.rep, known, position, orbits)
            ),
            firsts,
        )
        result[(n, k)] = level
        known = ({}, ())  # freed before the next index is built
        if orbits is not None:
            known = _label_index(parents, level, firsts, orbits)
    return result


def graphstate_orbits(n: int) -> list[GraphState]:
    """One graph per class of maximal (k = 0) groups, in canonical key order.

    Each representative on m - 1 vertices gets a new vertex v = m - 1 with
    each of the 2^(m-1) neighbourhoods, and _transversal keeps one candidate
    group, in graph form, per class.  Local complementation at w != v, and
    any relabeling that fixes v, restrict to G - v, so any graph G can be
    moved to R + v, R the chosen representative of G - v's class.  And the
    k = 0 classes are exactly the graph orbits under local complementation
    plus isomorphism (Van den Nest et al. 2004; Danielsen and Parker 2006).
    The chain starts from the graph on no vertices, whose group is the
    trivial group on 0 qubits, the one class at n = 0.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got n = {n}")
    reps = [[]]  # adjacency rows of the graph on no vertices
    for m in range(1, n + 1):
        candidates = (
            GraphState(BitMatrix(m, [
                row | ((nbh >> i) & 1) << (m - 1) for i, row in enumerate(rows)
            ] + [nbh])).stabilizer()
            for rows in reps
            for nbh in range(1 << (m - 1))  # vertex m - 1's neighbours
        )
        reps = [
            [row >> m for row in entry.rep.rows]
            for entry in _transversal(candidates)
        ]
    return [GraphState(BitMatrix(n, rows)) for rows in reps]


def cws_to_stabilizer(gs: GraphState, code: BitMatrix) -> StabGroup:
    """Stabilizer of the codeword-stabilized pair (graph, linear code).

    The group is the commutant of the word operators {Z^c} inside the
    graph group: generator j anticommutes with Z^c iff j is in the
    support of c, so for each code row the generators with odd exponent
    overlap are folded into one and that one is dropped.  Once the rows
    are checked independent, some generator is always odd: the exponents
    left after folding rows c_1..c_m span exactly the vectors orthogonal
    to those rows, and one of them meets an independent c_(m+1) oddly.
    """
    n = gs.n
    if code.ncols != n:
        raise ValueError("code length must match the qubit count")
    _, pivots = rref(code)
    if len(pivots) != len(code.rows):
        raise ValueError("code rows must be linearly independent")
    gens = list(gs.stabilizer().rows)
    exps = [1 << j for j in range(n)]  # graph-generator content of each row
    for c in code.rows:
        hot = [i for i in range(len(gens)) if (exps[i] & c).bit_count() & 1]
        first = hot[0]
        for i in hot[1:]:
            gens[i] ^= gens[first]
            exps[i] ^= exps[first]
        del gens[first], exps[first]
    return StabGroup(n, gens)


def _lagrangian_firsts(rows: list[int], n: int) -> list[int]:
    """Half of a hyperbolic basis of the span of rows.

    Symplectic Gram-Schmidt: pair each leading vector with an
    anticommuting partner, then clean the remainder against the pair.
    The returned firsts commute pairwise.  The rows must be a basis of a
    space on which the symplectic form is non-degenerate, as logical_rows
    is: the group is the radical of its centralizer, and they span a
    complement of it.  Each leading vector then has a partner among the
    rows after it, and cleaning leaves the rest independent and nonzero.
    """
    pool = list(rows)
    firsts = []
    while pool:
        v = pool.pop(0)
        w = pool.pop(
            next(i for i, w in enumerate(pool) if symplectic_product(v, w, n))
        )
        firsts.append(v)
        pool = [
            u
            ^ (v if symplectic_product(u, w, n) else 0)
            ^ (w if symplectic_product(u, v, n) else 0)
            for u in pool
        ]
    return firsts


def stabilizer_to_cws(g: StabGroup) -> tuple:
    """Graph state and word matrix reproducing the group's class.

    The group is completed to a maximal group with k pairwise commuting
    centralizer representatives.  Its X part has rank r, so the qubits are
    relabeled with the r X-pivot qubits of its RREF first and the rest
    after them, each in ascending order.  The full group has rank n, so
    after a layer of H on the last n - r qubits its X block has rank n, and
    the RREF over the X columns has X block I.  A layer of S where Y sits
    on the diagonal clears the symmetric Z block's diagonal, leaving graph
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
    full = StabGroup(n, (*g.rows, *logical))
    _, p_x = rref(BitMatrix(2 * n, full.rows), range(n))
    order = p_x + [j for j in range(n) if j not in p_x]
    relabel_h = LCPerm(
        ["I"] * len(p_x) + ["H"] * (n - len(p_x)),
        [order.index(j) for j in range(n)],
    )
    h_full = apply_lcperm(full, relabel_h)
    h_rows, _ = rref(BitMatrix(2 * n, h_full.rows), range(n))
    h_form = StabGroup(n, h_rows.rows)
    s_layer = LCPerm(
        ["S" if (row >> (n + j)) & 1 else "I"
         for j, row in enumerate(h_form.rows)]
    )
    graph = apply_lcperm(h_form, s_layer)
    gph = GraphState(BitMatrix(n, [row >> n for row in graph.rows]))
    image = apply_lcperm(apply_lcperm(g, relabel_h), s_layer)
    words = kernel(BitMatrix(n, [row & mask for row in image.rows]))
    return gph, words


def cws_enumerate(n: int) -> dict:
    """Transversal of all equivalence classes on n qubits, found by pairing
    graph orbits with k-dimensional binary codes (one echelon
    representative per row space) for every k.

    Returns {(n, k): [ClassEntry, ...]} with entries in canonical key
    order, the shape enumerate_classes returns; the graph orbits are grown
    once for all k, and graphstate_orbits refuses n < 0.
    """
    orbits = graphstate_orbits(n)
    return {
        (n, k): _transversal(
            cws_to_stabilizer(gs, code) for code in _rref_matrices(n, k) for gs in orbits
        )
        for k in range(n + 1)
    }


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
