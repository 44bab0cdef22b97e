"""Colored code graphs, canonical labeling, and class identity.

A stabilizer group S on n qubits is encoded as a vertex-colored graph: one
black vertex per element of S (2^r of them, in generator Gray-code order)
and one white triangle per qubit with corners for the letters X, Y, Z.  A
black vertex joins corner (j, P) exactly when its letter at qubit j is P.
Local symmetries permute triangle corners, qubit permutations permute whole
triangles, and the black vertices follow; two groups are equivalent under
the local-Clifford + permutation action iff their graphs are isomorphic as
colored graphs, and the stabilizer of a group inside that action is exactly
the automorphism group of its graph (no two group elements share a letter
pattern, so the white action determines everything).

The canonical labeler is a small individualization-refinement search:
equitable refinement of ordered partitions, branching on the first smallest
non-singleton cell, leaf certificates compared to keep a canonical image,
discovered automorphisms pruning sibling branches orbit-wise, and a jump
back to the deepest common ancestor after every automorphism found (the
rest of that branch is the automorphism's image of a searched one).
Automorphisms are found at internal nodes too: a node whose partition is
the image of the first path's node at its depth under a map that sends
every edge to an edge is that map's image of the first path, so its first
leaf would match the first leaf.  The node records the map and jumps back
at once; one edge-membership pass replaces the descent and the sorted leaf
certificate.  The map is the position map when that sends every edge to
an edge; on a code graph, where it does not, the node derives one from
the white triangles, the black vertices following linearly, and checks
it the same way.  The key, the labeling and the order are what the
descent gives.  A recorded generator may be another element of the coset
the descent's lies in, and the generators still generate the same group.
The same search reads off the group order, as a product of orbit sizes
along its first path; correctness of the whole pipeline is certified
independently by the exact counting identity in the verify module.

Given keys already known, such as the classes a census has found so far,
class_key stops at the first leaf when that leaf serializes to one of them
(an isomorphism test, McKay & Piperno 2014).  The serialized leaf is the
graph under a relabeling, so equal bytes prove the group is in that key's
class, and that key is exactly what the full search would return.  Only
the key leaves such a search: |Aut| and its generators need the whole
tree, so canonical_form, aut_size and automorphisms never stop early.

A group object is searched at most once.  Every public search takes a
StabGroup, and all go through one entry point that keeps each full
search, a SearchResult (key, labeling, generators, order), in the group's
_search slot.  The search that found a census class then also answers
automorphisms for its extensions and canonical_form for its record, and
it travels with the group when the group is copied or pickled.  A search
stopped at a known key is not kept (it has no generators).
"""

from __future__ import annotations

import itertools
import struct
from collections import deque
from typing import NamedTuple

from .f2core import span
from .pauli import StabGroup
from .transform import _INDEX_OF, LCPerm, apply_lcperm

__all__ = [
    "ColoredGraph",
    "CanonicalKey",
    "SearchResult",
    "build_code_graph",
    "canonical_form",
    "class_key",
    "aut_size",
    "automorphisms",
    "are_equivalent",
]

CanonicalKey = bytes

# triangle corner slots are ordered (X, Y, Z); letter codes are 1, 3, 2
_SLOT_OF_CODE = (None, 0, 2, 1)
_CODE_OF_SLOT = (1, 3, 2)

_BLACK = 1
_WHITE = 2

# The search recurses about twice per qubit: the trivial group's search
# takes about 0.25 s of CPU at 64 qubits, 1.6 s at 128 and 7 s at 192 on
# a 2-core x86-64 VM, and overflows Python's recursion limit near 500.
_MAX_QUBITS = 128


class ColoredGraph:
    """A simple vertex-colored graph with colors in {1 (black), 2 (white)}."""

    __slots__ = ("nverts", "colors", "edges", "adj")

    def __init__(self, nverts: int, colors, edges):
        colors = tuple(colors)
        if len(colors) != nverts:
            raise ValueError("one color per vertex required")
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < nverts and 0 <= v < nverts):
                raise ValueError(f"edge ({u},{v}) out of range")
            seen.add((u, v) if u < v else (v, u))
        es = sorted(seen)
        adj = [[] for _ in range(nverts)]
        for u, v in es:
            adj[u].append(v)
            adj[v].append(u)
        self.nverts = nverts
        self.colors = colors
        self.edges = tuple(es)
        self.adj = tuple(tuple(a) for a in adj)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColoredGraph)
            and self.nverts == other.nverts
            and self.colors == other.colors
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"ColoredGraph(nverts={self.nverts}, nedges={len(self.edges)})"


class SearchResult(NamedTuple):
    """One canonical search of a code graph: the key, the best leaf's
    labeling (vertex -> position), and the automorphism group's generators
    and order, which are None when the search stopped at a known key."""

    key: CanonicalKey
    labeling: tuple
    generators: tuple | None
    size: int | None


def build_code_graph(g: StabGroup) -> ColoredGraph:
    """The colored graph of a stabilizer group.

    Black vertex i is the span element whose generator mask is i ^ (i >> 1),
    so the t = 2^r black vertices walk the span in Gray-code order, each
    differing from the one before by one generator.  The corners of qubit
    j's triangle are t+3j (X), t+3j+1 (Y), t+3j+2 (Z).
    Leaf certificates pack vertex positions into 16 bits, so a graph of
    more than 65,535 vertices (any group of rank 16 or more) is refused,
    and so is a group on more than _MAX_QUBITS qubits.
    """
    n, r = g.n, g.r
    if n > _MAX_QUBITS:
        raise ValueError(
            f"qubit budget exceeded: {n} qubits > {_MAX_QUBITS}, "
            "the most the canonical search takes"
        )
    if (1 << r) + 3 * n > 0xFFFF:
        raise ValueError(
            f"vertex budget exceeded: 2^{r} + 3*{n} vertices > 65535, "
            "the 16-bit limit of leaf certificates"
        )
    elements = span(g.rows)
    t = len(elements)
    # corner[j][code]: the corner a letter code 1..3 at qubit j joins; the
    # rows share these int objects, which at rank 15 saves about 11 MB
    # against computing each corner number afresh
    corner = [
        [0] + [t + 3 * j + _SLOT_OF_CODE[code] for code in (1, 2, 3)]
        for j in range(n)
    ]
    # built sorted and duplicate-free, as ColoredGraph(...) would leave it:
    # black edges in row order with corners ascending, then the triangles
    edges = []
    adj = []
    white = [[] for _ in range(3 * n)]
    mask = (1 << n) - 1
    for i in range(t):
        row = elements[i ^ (i >> 1)]
        z = row >> n
        nbs = []
        support = (row | z) & mask
        while support:  # the qubits where the row is not I, ascending
            low = support & -support
            code = (1 if row & low else 0) | (2 if z & low else 0)
            nbs.append(corner[low.bit_length() - 1][code])
            support ^= low
        adj.append(tuple(nbs))
        for c in nbs:
            edges.append((i, c))
            white[c - t].append(i)
    for j in range(n):
        a, b, c = t + 3 * j, t + 3 * j + 1, t + 3 * j + 2
        edges += [(a, b), (a, c), (b, c)]
        adj += [(*white[a - t], b, c), (*white[b - t], a, c), (*white[c - t], a, b)]
    gph = ColoredGraph.__new__(ColoredGraph)
    gph.nverts = t + 3 * n
    gph.colors = (_BLACK,) * t + (_WHITE,) * (3 * n)
    gph.edges = tuple(edges)
    gph.adj = tuple(adj)
    return gph


# --- ordered partitions with worklist refinement ---


class _Partition:
    """An ordered partition of 0..V-1 into cells, stored flat.

    order lists the vertices in partition order and each cell is a run of
    positions, named by its first position: start[v] names v's cell and
    end[s] is one past the last position of the cell named s.  A split
    keeps every fragment's vertices in their relative order and keeps the
    first fragment in place, under the cell's name.
    """

    __slots__ = ("order", "start", "end", "nbig")

    def __init__(self, groups):
        self.order = []
        self.start = [0] * sum(len(c) for c in groups)
        self.end = [0] * len(self.start)
        self.nbig = 0
        for cell in groups:
            s = len(self.order)
            self.order.extend(cell)
            for v in cell:
                self.start[v] = s
            self.end[s] = len(self.order)
            if len(cell) > 1:
                self.nbig += 1

    def copy(self) -> "_Partition":
        p = _Partition.__new__(_Partition)
        p.order = self.order[:]
        p.start = self.start[:]
        p.end = self.end[:]
        p.nbig = self.nbig
        return p

    def labeling(self) -> list[int]:
        """vertex -> position, defined only when all cells are singletons."""
        lab = [0] * len(self.order)
        for pos, v in enumerate(self.order):
            lab[v] = pos
        return lab

    def target_cell(self):
        """Name of the first smallest cell with more than one vertex."""
        end = self.end
        best = None
        best_len = len(end) + 1
        s = 0
        while s < len(end) and best_len > 2:
            ln = end[s] - s
            if 1 < ln < best_len:
                best, best_len = s, ln
            s = end[s]
        return best

    def individualize(self, v: int):
        """Split v out to the front of its cell; returns the two cell names."""
        s = self.start[v]
        e = self.end[s]
        rest = [u for u in self.order[s:e] if u != v]
        self.order[s] = v
        self.order[s + 1 : e] = rest
        for u in rest:
            self.start[u] = s + 1
        self.end[s] = s + 1
        self.end[s + 1] = e
        if len(rest) == 1:
            self.nbig -= 1
        return s, s + 1

    def refine(self, adj, worklist):
        """Equitable refinement against the worklist cells (and successors).

        A splitting cell w splits each cell by the number of neighbours its
        vertices have in w, the fragments in ascending order of that count.
        The first fragment keeps the cell's name; if the cell is queued,
        every new fragment is queued, and otherwise all fragments but the
        first largest one.  A cell whose vertices all have one count does
        not split, and that is found from its counted vertices alone: the
        cell's own run is read only when it splits.
        """
        order, start, end = self.order, self.start, self.end
        queue = deque(worklist)
        inq = set(queue)
        while queue and self.nbig:  # a discrete partition cannot split
            w = queue.popleft()
            inq.discard(w)
            # counted vertices by cell; cnt is None when every count is 1
            hits = {}
            if end[w] - w == 1:
                cnt = None
                counted = adj[order[w]]
            else:
                cnt = {}
                for u in order[w : end[w]]:
                    for nb in adj[u]:
                        cnt[nb] = cnt.get(nb, 0) + 1
                counted = cnt
            for nb in counted:
                s = start[nb]
                if s in hits:
                    hits[s].append(nb)
                else:
                    hits[s] = [nb]
            for s in sorted(hits):
                e = end[s]
                if e - s == 1:
                    continue
                hit = hits[s]
                if cnt is None or len(set(map(cnt.__getitem__, hit))) == 1:
                    if len(hit) == e - s:
                        continue
                    # two fragments: the uncounted vertices, then the counted
                    hit = set(hit)
                    cell = order[s:e]
                    lo = [v for v in cell if v not in hit]
                    m = s + len(lo)
                    order[s:m] = lo
                    order[m:e] = [v for v in cell if v in hit]
                    for v in hit:
                        start[v] = m
                    end[s] = m
                    end[m] = e
                    self.nbig += (m - s > 1) + (e - m > 1) - 1
                    fresh = s if e - m > m - s and s not in inq else m
                    queue.append(fresh)
                    inq.add(fresh)
                    continue
                groups = {}
                for v in order[s:e]:
                    groups.setdefault(cnt.get(v, 0), []).append(v)
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


# --- individualization-refinement canonical labeling ---


def _leaf_cert(edges, lab):
    cert = []
    for u, v in edges:
        a, b = lab[u], lab[v]
        if a > b:
            a, b = b, a
        cert.append((a << 16) | b)
    cert.sort()
    return cert


def _common_prefix(a: tuple, b: tuple) -> int:
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


def _maps_edges(sigma, edges, edge_codes, nverts) -> bool:
    """Whether sigma sends every edge to an edge (edge_codes holds u *
    nverts + v for each edge both ways)."""
    # a plain loop costs less per edge than all() over a generator
    for u, v in edges:
        if sigma[u] * nverts + sigma[v] not in edge_codes:
            return False
    return True


# White-corner maps a derivation tries before it gives up.  A classify-n7
# pass (perfbench, seed 1) makes 2,967 search nodes without derivations;
# trying the first map alone leaves 2,318, up to 8 leave 2,035 and up to
# 64 leave 2,015.
_WHITE_MAPS = 8


def _code_shape(gph: ColoredGraph):
    """(black table, inverse Gray code) of a graph shaped as
    build_code_graph builds, or False.

    The shape: t = 2^r black vertices first, then white triangles t+3j..
    t+3j+2, black vertices touching only white ones, no other edges (the
    edges not at a black vertex are the 3n triangle sides), and no two
    black vertices with the same neighbourhood.  The table maps each
    black neighbourhood, as a frozenset, to its vertex; the inverse Gray
    code maps i ^ (i >> 1) to i for i < t.
    """
    colors, adj, nverts = gph.colors, gph.adj, gph.nverts
    t = colors.count(_BLACK)
    if not t or t & (t - 1) or (nverts - t) % 3:
        return False
    if colors[t:] != (_WHITE,) * (nverts - t):
        return False
    if any(adj[u] and min(adj[u]) < t for u in range(t)):
        return False
    if len(gph.edges) - sum(map(len, adj[:t])) != nverts - t:
        return False
    for c in range(t, nverts, 3):
        if c + 1 not in adj[c] or c + 2 not in adj[c] or c + 2 not in adj[c + 1]:
            return False
    table = {frozenset(adj[u]): u for u in range(t)}
    if len(table) < t:
        return False
    gray_inv = [0] * t
    for i in range(t):
        gray_inv[i ^ (i >> 1)] = i
    return table, gray_inv


def _triangle_cells(start, t: int) -> list:
    """The cell names of each triangle's corners, sorted, in sorted order."""
    return sorted(map(sorted, zip(start[t::3], start[t + 1 :: 3], start[t + 2 :: 3])))


# the other two corner slots of a triangle, by slot
_OTHER_SLOTS = ((1, 2), (0, 2), (0, 1))


def _white_maps(fp, part, t, todo, i, sigma, taken):
    """Yields sigma extended to every white corner of todo[i:], so that
    each corner lands in the cell of part at the position of its cell in
    fp and each triangle lands on a whole triangle.

    sigma (-1 where unset) and taken (1 at each image) are shared and
    restored on backtracking; corners go to images in part's order, so
    the position map comes first wherever it keeps triangles whole.  When
    fp and part hold the same triangle cell names, every partial map
    extends, so each yield costs one pass over the triangles.
    """
    while i < len(todo) and sigma[todo[i]] >= 0:
        i += 1
    if i == len(todo):
        yield sigma
        return
    a = todo[i]
    base = a - (a - t) % 3
    o1, o2 = _OTHER_SLOTS[a - base]
    a1, a2 = base + o1, base + o2
    cells = [fp.start[a1], fp.start[a2]]
    s = fp.start[a]
    for b in part.order[s : part.end[s]]:
        if taken[b]:
            continue
        base = b - (b - t) % 3
        o1, o2 = _OTHER_SLOTS[b - base]
        b1, b2 = base + o1, base + o2
        for x, y in ((b1, b2), (b2, b1)):
            if [part.start[x], part.start[y]] != cells:
                continue
            sigma[a], sigma[a1], sigma[a2] = b, x, y
            taken[b] = taken[x] = taken[y] = 1
            yield from _white_maps(fp, part, t, todo, i + 1, sigma, taken)
            sigma[a] = sigma[a1] = sigma[a2] = -1
            taken[b] = taken[x] = taken[y] = 0


def _derive_aut(shape, gph, edge_codes, fp, part, first_fixed, fixed):
    """An automorphism of a code graph that sends the first path's node fp
    onto part, found without descending, or None.

    Tried for up to _WHITE_MAPS white maps (see _white_maps).  A white
    map acts on the letters of each qubit as a permutation of X, Y and Z,
    which is linear, so on the black vertices it is linear too: black
    vertex 2^(k+1) - 1, generator k alone in Gray order, goes to the one
    whose neighbourhood is the image of its own, and every other black
    vertex i to the product of the images of the generators in its mask
    i ^ (i >> 1).  The map is accepted when every generator has an image,
    it is a bijection, it sends the first path's individualized vertices
    onto part's in order, and it sends every edge to an edge.  shape is
    _code_shape(gph).
    """
    table, gray_inv = shape
    t = len(table)
    if _triangle_cells(fp.start, t) != _triangle_cells(part.start, t):
        return None
    adj = gph.adj
    sigma = [-1] * gph.nverts
    image_of = sigma.__getitem__
    todo = [a for a in fp.order if a >= t]
    white_maps = _white_maps(fp, part, t, todo, 0, sigma, bytearray(gph.nverts))
    for _ in itertools.islice(white_maps, _WHITE_MAPS):  # each fills sigma's corners
        # the image masks of black vertices 0..t-1, doubled generator by
        # generator as the reflected Gray code is
        masks = [0]
        for k in range(t.bit_length() - 1):
            image = table.get(frozenset(map(image_of, adj[(2 << k) - 1])))
            if image is None:
                break
            image ^= image >> 1
            masks += [m ^ image for m in reversed(masks)]
        else:
            sigma[:t] = map(gray_inv.__getitem__, masks)
            if (
                all(sigma[a] == b for a, b in zip(first_fixed, fixed))
                and len(set(masks)) == t
                and _maps_edges(sigma, gph.edges, edge_codes, gph.nverts)
            ):
                return tuple(sigma)
    return None


def _canonical_search(gph: ColoredGraph, known=()) -> SearchResult:
    """The canonical key, best labeling, automorphism generators and order.

    The order is read off the search tree (McKay & Piperno, "Practical
    graph isomorphism II", 2014).  At each node of the first path, once its
    subtree is done, the generators found that fix the node's individualized
    vertices generate the node's whole stabilizer; the first child's orbit
    in the target cell is then the index of the child's stabilizer in it,
    so |Aut| is the product of those orbit sizes along the first path.

    A leaf whose certificate equals the best leaf's yields an automorphism
    g that fixes the common prefix of the two individualized paths, and
    the search jumps back to the node at that depth (McKay, "Practical
    graph isomorphism", 1981).  The abandoned branch below it is g's image
    of the sibling branch holding the matched leaf, which was searched
    before: it holds the same certificates, so no better leaf, and it
    holds a leaf equal to the first one only if that branch did, which
    would have jumped back above it already.  A first-path node is never
    cut, since every leaf shares its path up to the node's depth, so the
    orbit sizes, the generated group and the best certificate are those of
    the full search, found with fewer generators.

    Most such leaves are caught before the search reaches them.  Once the
    first leaf is known, take a node whose cells end where those of the
    first path's node at the same depth end, and let sigma send the vertex
    at each position of that first-path node to the vertex at the same
    position here.  If sigma maps every edge to an edge, it is an
    automorphism; refinement commutes with it, so the node's first leaf is
    sigma's image of the first leaf, with the same certificate.  The
    search would descend to that leaf, record sigma and return the common
    prefix with the first path; the node does both at once, checking
    edges instead of sorting a certificate.  So the order and the key
    cannot change, and _leaf_cert runs only at the first leaf and at
    leaves that no such node catches.

    Where the position map fails at such a node of a code graph, the node
    derives a map instead of descending (_derive_aut): the white corners
    of each cell of the first-path node go onto the same cell here, whole
    triangles onto whole triangles, for a few such maps; each generator's
    black vertex goes to the one whose neighbourhood is the image of its
    own, and every other black vertex to the product of its generators'
    images.  The map is taken when it is a bijection that sends the first
    path's individualized vertices onto this node's, in order, and every
    edge to an edge.  It is then an automorphism, and the search tree is
    invariant under it, so this node and each of its ancestors below the
    common prefix with the first path are its images of the first path's
    nodes at their depths, whose subtrees are searched: the jump back to
    the common prefix holds as for a leaf equal to the first one, and the
    map, which fixes the prefix and sends the first path's next vertex to
    this branch's, merges the orbit as that leaf's automorphism would.  So
    the key, the best labeling and the order are those of the descent.
    The generator recorded may be another element of the coset the
    descent's lies in, so the generators may differ while they generate
    the same group.
    Other graphs (not 2^r black vertices with distinct neighbourhoods,
    then 3n white vertices in triangles, with black vertices touching only
    white ones) never derive.

    A leaf whose certificate equals the first leaf's is always caught this
    way, so a leaf is compared with the best leaf alone.  Its automorphism
    maps the first path onto a path of the tree ending in the same discrete
    partition.  Each individualized vertex sits at the front of the cell
    its node targeted, so the path can be read back from that partition:
    the leaf ends the image path, at the first leaf's depth, where its
    cells end where the first leaf's do and sigma is that automorphism.

    known is a container of canonical keys.  When the first leaf
    serializes to one of them, the search stops there and returns that
    key and the first labeling, with None for the generators and the
    order, which only the whole tree gives (see the module docstring).
    """
    adj = gph.adj
    edges = gph.edges
    nverts = gph.nverts
    by_color = {}
    for v, c in enumerate(gph.colors):
        by_color.setdefault(c, []).append(v)
    cells = [by_color[c] for c in sorted(by_color)]
    root = _Partition(cells)
    root.refine(adj, [root.start[cell[0]] for cell in cells])

    # (certificate, labeling, individualized path) of the first and best leaves
    first = best = first_key = None
    first_parts = []  # the first path's partitions, by depth
    # u * nverts + v for each edge both ways, filled at the first leaf: a
    # search that stops there at a known key never reads it
    edge_codes = set()
    shape = None  # _code_shape(gph), built at the first derivation
    gens: list[tuple] = []
    gen_seen: set[tuple] = set()
    size = 1

    def record_aut(perm):
        perm = tuple(perm)
        if any(perm[i] != i for i in range(nverts)) and perm not in gen_seen:
            gen_seen.add(perm)
            gens.append(perm)

    def explore(part, fixed):
        """Searches below the node; returns the depth to resume at."""
        nonlocal size, first, best, first_key, shape
        depth = len(fixed)
        if first is None:
            first_parts.append(part)
        elif depth < len(first_parts) and part.end == first_parts[depth].end:
            # sigma sends each first-path vertex to the one at its position here
            fp = first_parts[depth]
            sigma = [0] * nverts
            for a, b in zip(fp.order, part.order):
                sigma[a] = b
            if not _maps_edges(sigma, edges, edge_codes, nverts):
                if shape is None:
                    shape = _code_shape(gph)
                sigma = shape and _derive_aut(
                    shape, gph, edge_codes, fp, part, first[2], fixed
                )
            if sigma:
                record_aut(sigma)
                return _common_prefix(fixed, first[2])
        if part.nbig == 0:
            lab = part.labeling()
            cert = _leaf_cert(edges, lab)
            if first is None:
                first = best = (cert, lab, fixed)
                if known:
                    first_key = _serialize(gph, lab, cert)
                    if first_key in known:
                        return -1  # every ancestor returns at once
                edge_codes.update(u * nverts + v for u, v in edges)
                edge_codes.update(v * nverts + u for u, v in edges)
                return depth
            if cert == best[0]:
                record_aut([part.order[p] for p in best[1]])
                return _common_prefix(fixed, best[2])
            if cert < best[0]:
                best = (cert, lab, fixed)
            return depth
        first_path = first is None  # no leaf reached yet
        s = part.target_cell()
        candidates = part.order[s : part.end[s]]
        explored = []
        # orbits on the target cell of the generators that fix this node's
        # individualized vertices (such generators map the cell onto itself)
        uf = {v: v for v in candidates}
        merged = 0

        def find(x):
            while uf[x] != x:
                uf[x] = uf[uf[x]]
                x = uf[x]
            return x

        def merge_new_gens():
            nonlocal merged
            for g in gens[merged:]:
                if all(g[f] == f for f in fixed):
                    for w in candidates:
                        a, b = find(w), find(g[w])
                        if a != b:
                            uf[a] = b
            merged = len(gens)

        for v in candidates:
            if explored:
                merge_new_gens()
                if any(find(v) == find(u) for u in explored):
                    continue
            child = part.copy()
            child.refine(adj, child.individualize(v))
            back = explore(child, fixed + (v,))
            if back < depth:
                return back
            explored.append(v)
        if first_path:
            merge_new_gens()
            root_v = find(candidates[0])
            size *= sum(1 for u in candidates if find(u) == root_v)
        return depth

    stopped = explore(root, ()) < 0
    del explore  # it refers to itself: free the search state now
    if stopped:
        return SearchResult(first_key, tuple(first[1]), None, None)
    cert, lab, _ = best
    return SearchResult(_serialize(gph, lab, cert), tuple(lab), tuple(gens), size)


def _serialize(gph: ColoredGraph, lab, cert) -> bytes:
    """The graph relabeled by lab, as bytes; cert is lab's leaf certificate."""
    inv = [0] * gph.nverts
    for v, p in enumerate(lab):
        inv[p] = v
    colors = bytes(gph.colors[inv[p]] for p in range(gph.nverts))
    return (
        struct.pack(">H", gph.nverts)
        + colors
        + struct.pack(f">{len(cert)}I", *cert)
    )


def _group_search(g: StabGroup, known=()) -> SearchResult:
    """_canonical_search of g's code graph, run at most once per group object.

    A full search is kept in g's _search slot, and later calls return it
    whatever their known keys: its key is the one a search stopped at a
    known key returns.  A stopped search is not kept.  The record is
    shared by every later caller and by every copy of g, so it is all
    tuples, and it stays g's because g's rows are a tuple (see StabGroup).
    """
    if not isinstance(g, StabGroup):
        raise TypeError(f"expected a StabGroup, got {type(g).__name__}")
    found = g._search
    if found is None:
        found = _canonical_search(build_code_graph(g), known)
        if found.size is not None:
            g._search = found
    return found


def canonical_form(g: StabGroup) -> tuple[CanonicalKey, SearchResult]:
    """Canonical key plus the exact automorphism group of a group's code
    graph.

    The key is invariant under every color-preserving relabeling of the
    graph: equal keys exactly for equivalent groups.  A group is searched
    at most once (see the module docstring).
    """
    found = _group_search(g)
    return found.key, found


def class_key(g: StabGroup, known=()) -> CanonicalKey:
    """Equivalence-class identifier: equal exactly for equivalent groups.

    known is a container of class keys, such as the keys found so far in a
    census.  The search stops at its first leaf when that leaf's bytes are
    in it: they are a relabeled copy of g's code graph, so g lies in that
    key's class, and the key returned is the one the full search gives.
    """
    return _group_search(g, known).key


def aut_size(g: StabGroup) -> int:
    """Order of the symmetry stabilizer {phi : phi(S) = S}."""
    return _group_search(g).size


def _lcperm_of_vertex_map(vmap, n: int, t: int) -> LCPerm:
    """The LCPerm a triangle-preserving vertex map induces on the qubits.

    vmap[v] is the image of vertex v; black vertices are 0..t-1 and qubit
    j's corners are t+3j+slot.  The corner slots of triangle j land in
    triangle image[j], and their slot map is that qubit's letter
    permutation, indexed by post-permutation position.
    """
    image = [0] * n
    gates = [0] * n
    for j in range(n):
        base = t + 3 * j
        jj = (vmap[base] - t) // 3
        perm4 = [0, 0, 0, 0]
        for code in (1, 2, 3):
            slot = (vmap[base + _SLOT_OF_CODE[code]] - t) % 3
            perm4[code] = _CODE_OF_SLOT[slot]
        image[j] = jj
        gates[jj] = _INDEX_OF[tuple(perm4)]
    return LCPerm(gates, image)


def automorphisms(g: StabGroup) -> tuple[LCPerm, ...]:
    """Generators of the symmetry stabilizer {phi : phi(S) = S}, as LCPerms.

    They are the code graph's automorphism generators found by the
    canonical search, decoded through their action on the qubit triangles.
    """
    gens = _group_search(g).generators
    t = 1 << g.r
    return tuple(_lcperm_of_vertex_map(perm, g.n, t) for perm in gens)


def are_equivalent(a: StabGroup, b: StabGroup, witness: bool = False):
    """Whether two groups are related by local symmetries plus permutation.

    With witness=True returns (flag, LCPerm or None); the returned element
    maps a onto b and is re-verified by applying it before returning.
    b is searched knowing a's key, so an equivalent b stops at its first
    leaf; that leaf labels b onto a's canonical image, as the witness needs,
    and so does the best leaf of a kept full search of b.
    """
    if a.n != b.n:
        raise ValueError("groups act on different qubit counts")
    if a.r != b.r:
        return (False, None) if witness else False
    found_a = _group_search(a)
    found_b = _group_search(b, {found_a.key})
    if not witness:
        return found_a.key == found_b.key
    if found_a.key != found_b.key:
        return False, None
    # inv_b[p]: b's vertex at position p of the common canonical image
    inv_b = [0] * len(found_b.labeling)
    for v, p in enumerate(found_b.labeling):
        inv_b[p] = v
    w = _lcperm_of_vertex_map([inv_b[p] for p in found_a.labeling], a.n, 1 << a.r)
    moved = apply_lcperm(a, w)
    if not moved.same_group(b):
        raise AssertionError("internal error: witness failed verification")
    return True, w
