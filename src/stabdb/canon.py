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
discovered automorphisms pruning sibling branches orbit-wise.  Group orders
come from a stabilizer chain over the discovered generators; correctness of
the whole pipeline is certified independently by the exact counting
identity in the verify module.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass

from .pauli import StabGroup, span_rows
from .transform import LETTER_PERMS, LCPerm, LocalClifford, QubitPerm, apply_lcperm

__all__ = [
    "ColoredGraph",
    "CanonicalKey",
    "AutInfo",
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
_PERM_INDEX = {p: i for i, p in enumerate(LETTER_PERMS)}

_BLACK = 1
_WHITE = 2


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


@dataclass(frozen=True)
class AutInfo:
    """Order and generators of a colored-graph automorphism group."""

    size: int
    generators: tuple


def build_code_graph(g: StabGroup) -> ColoredGraph:
    """The colored graph of a stabilizer group.

    Black vertices 0..2^r-1 are the span elements in Gray-code order; the
    corners of qubit j's triangle are t+3j (X), t+3j+1 (Y), t+3j+2 (Z).
    """
    n, r = g.n, g.r
    if r > 18 or (1 << r) + 3 * n > 0xFFFF:
        raise ValueError("vertex budget exceeded")
    rows = span_rows(g)
    t = len(rows)
    nverts = t + 3 * n
    colors = [_BLACK] * t + [_WHITE] * (3 * n)
    edges = []
    for j in range(n):
        base = t + 3 * j
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
    for i, row in enumerate(rows):
        x = row
        z = row >> n
        for j in range(n):
            code = ((x >> j) & 1) + 2 * ((z >> j) & 1)
            if code:
                edges.append((i, t + 3 * j + _SLOT_OF_CODE[code]))
    return ColoredGraph(nverts, colors, edges)


# --- ordered partitions with worklist refinement ---


class _Partition:
    """An ordered partition of 0..V-1 into cells, supporting refinement.

    Cells carry stable integer ids; seq lists ids in partition order.  When
    a cell splits, the first fragment keeps the id and the rest are
    inserted immediately after it, so relative order is preserved.
    """

    __slots__ = ("cells", "seq", "cell_of", "nbig", "next_id")

    def __init__(self, groups):
        self.cells = {}
        self.seq = []
        self.nbig = 0
        total = sum(len(c) for c in groups)
        self.cell_of = [0] * total
        for i, cell in enumerate(groups):
            self.cells[i] = list(cell)
            self.seq.append(i)
            for v in cell:
                self.cell_of[v] = i
            if len(cell) > 1:
                self.nbig += 1
        self.next_id = len(groups)

    def copy(self) -> "_Partition":
        p = _Partition.__new__(_Partition)
        p.cells = {cid: list(cell) for cid, cell in self.cells.items()}
        p.seq = list(self.seq)
        p.cell_of = list(self.cell_of)
        p.nbig = self.nbig
        p.next_id = self.next_id
        return p

    def labeling(self) -> list[int]:
        """vertex -> position, defined only when all cells are singletons."""
        lab = [0] * len(self.cell_of)
        pos = 0
        for cid in self.seq:
            lab[self.cells[cid][0]] = pos
            pos += 1
        return lab

    def target_cell(self):
        """Id of the first smallest cell with more than one vertex."""
        best = None
        best_len = None
        for cid in self.seq:
            ln = len(self.cells[cid])
            if ln > 1 and (best is None or ln < best_len):
                best, best_len = cid, ln
        return best

    def individualize(self, v: int):
        """Split v out to the front of its cell; returns the two cell ids."""
        cid = self.cell_of[v]
        cell = self.cells[cid]
        rest = [u for u in cell if u != v]
        nid = self.next_id
        self.next_id += 1
        self.cells[cid] = rest
        self.cells[nid] = [v]
        self.cell_of[v] = nid
        idx = self.seq.index(cid)
        self.seq.insert(idx, nid)
        if len(rest) == 1:
            self.nbig -= 1
        return nid, cid

    def refine(self, adj, worklist):
        """Equitable refinement against the worklist cells (and successors)."""
        queue = deque(worklist)
        inq = set(queue)
        while queue:
            w = queue.popleft()
            inq.discard(w)
            cnt = {}
            for u in self.cells[w]:
                for nb in adj[u]:
                    cnt[nb] = cnt.get(nb, 0) + 1
            touched = set()
            for nb in cnt:
                cid = self.cell_of[nb]
                if len(self.cells[cid]) > 1:
                    touched.add(cid)
            if not touched:
                continue
            for cid in [c for c in self.seq if c in touched]:
                cell = self.cells[cid]
                groups = {}
                for v in cell:
                    groups.setdefault(cnt.get(v, 0), []).append(v)
                if len(groups) == 1:
                    continue
                parts = [groups[key] for key in sorted(groups)]
                self.cells[cid] = parts[0]
                idx = self.seq.index(cid)
                new_ids = []
                for p in parts[1:]:
                    nid = self.next_id
                    self.next_id += 1
                    self.cells[nid] = p
                    for v in p:
                        self.cell_of[v] = nid
                    new_ids.append(nid)
                self.seq[idx + 1 : idx + 1] = new_ids
                self.nbig -= 1
                self.nbig += sum(1 for p in parts if len(p) > 1)
                all_ids = [cid] + new_ids
                if cid in inq:
                    for nid in new_ids:
                        queue.append(nid)
                        inq.add(nid)
                else:
                    largest = max(range(len(parts)), key=lambda i: len(parts[i]))
                    for i, aid in enumerate(all_ids):
                        if i != largest:
                            queue.append(aid)
                            inq.add(aid)


# --- permutation helpers and stabilizer chains ---


def _perm_mul(a, b):
    """Apply b first, then a."""
    return tuple(a[i] for i in b)


def _perm_inv(a):
    inv = [0] * len(a)
    for i, ai in enumerate(a):
        inv[ai] = i
    return tuple(inv)


def _perm_group_order(gens, npoints: int) -> int:
    """Exact order of the permutation group generated by gens.

    Builds a stabilizer chain and then verifies the Schreier condition at
    every level, sifting any residue back in until a fixpoint; the order is
    the product of the transversal sizes of the verified chain.
    """
    ident = tuple(range(npoints))
    todo = [tuple(g) for g in gens]
    todo = [g for g in dict.fromkeys(todo) if g != ident]
    if not todo:
        return 1

    base: list[int] = []
    level_gens: list[list] = []
    trans: list[dict] = []

    def gens_for(level):
        out = []
        for lvl in range(level, len(base)):
            out.extend(level_gens[lvl])
        return out

    def rebuild_orbit(level):
        b = base[level]
        t = {b: ident}
        frontier = [b]
        gl = gens_for(level)
        while frontier:
            d = frontier.pop()
            td = t[d]
            for g in gl:
                im = g[d]
                if im not in t:
                    t[im] = _perm_mul(g, td)
                    frontier.append(im)
        trans[level] = t

    def sift(g, start=0):
        for level in range(start, len(base)):
            u = trans[level].get(g[base[level]])
            if u is None:
                return g, level
            g = _perm_mul(_perm_inv(u), g)
        return g, len(base)

    def insert(g, level):
        if level == len(base):
            b = next(i for i in range(npoints) if g[i] != i)
            base.append(b)
            level_gens.append([])
            trans.append({})
        level_gens[level].append(g)
        for lvl in range(level + 1):
            rebuild_orbit(lvl)

    for g in todo:
        residue, level = sift(g)
        if residue != ident:
            insert(residue, level)

    # verify Schreier's condition everywhere; re-sift residues until stable
    stable = False
    while not stable:
        stable = True
        for level in range(len(base)):
            gl = gens_for(level)
            for d, td in list(trans[level].items()):
                for g in gl:
                    u = trans[level][g[d]]
                    s = _perm_mul(_perm_inv(u), _perm_mul(g, td))
                    if s == ident:
                        continue
                    residue, lvl = sift(s, level + 1)
                    if residue != ident:
                        insert(residue, lvl)
                        stable = False
                        break
                if not stable:
                    break
            if not stable:
                break

    order = 1
    for t in trans:
        order *= len(t)
    return order


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


def _canonical_search(gph: ColoredGraph):
    """Returns (best labeling, automorphism generators)."""
    adj = gph.adj
    edges = gph.edges
    nverts = gph.nverts
    by_color = {}
    for v, c in enumerate(gph.colors):
        by_color.setdefault(c, []).append(v)
    root = _Partition([by_color[c] for c in sorted(by_color)])
    root.refine(adj, list(root.seq))

    state = {"first": None, "first_lab": None, "best": None, "best_lab": None}
    gens: list[tuple] = []
    gen_seen: set[tuple] = set()

    def record_aut(lab_a, lab_b):
        # lab_a and lab_b index the same canonical image: their quotient is
        # an automorphism
        inv_b = [0] * nverts
        for v, p in enumerate(lab_b):
            inv_b[p] = v
        perm = tuple(inv_b[lab_a[v]] for v in range(nverts))
        if any(perm[i] != i for i in range(nverts)) and perm not in gen_seen:
            gen_seen.add(perm)
            gens.append(perm)

    def explore(part, fixed):
        if part.nbig == 0:
            lab = part.labeling()
            cert = _leaf_cert(edges, lab)
            if state["first"] is None:
                state["first"] = cert
                state["first_lab"] = lab
                state["best"] = cert
                state["best_lab"] = lab
                return
            if cert == state["first"]:
                record_aut(state["first_lab"], lab)
            if cert < state["best"]:
                state["best"] = cert
                state["best_lab"] = lab
            elif cert == state["best"] and cert != state["first"]:
                record_aut(state["best_lab"], lab)
            return
        tcid = part.target_cell()
        candidates = list(part.cells[tcid])
        explored = []
        uf = None
        uf_gen_count = -1

        def find(x):
            while uf[x] != x:
                uf[x] = uf[uf[x]]
                x = uf[x]
            return x

        for v in candidates:
            if explored:
                if uf_gen_count != len(gens):
                    usable = [
                        g for g in gens if all(g[f] == f for f in fixed)
                    ]
                    uf = list(range(nverts))
                    for g in usable:
                        for w in range(nverts):
                            a, b = find(w), find(g[w])
                            if a != b:
                                uf[a] = b
                    uf_gen_count = len(gens)
                if any(find(v) == find(u) for u in explored):
                    continue
            child = part.copy()
            nid, cid = child.individualize(v)
            child.refine(adj, [nid, cid])
            explore(child, fixed + (v,))
            explored.append(v)

    explore(root, ())
    return state["best_lab"], gens


def _serialize(gph: ColoredGraph, lab) -> bytes:
    inv = [0] * gph.nverts
    for v, p in enumerate(lab):
        inv[p] = v
    colors = bytes(gph.colors[inv[p]] for p in range(gph.nverts))
    cert = _leaf_cert(gph.edges, lab)
    return (
        struct.pack(">H", gph.nverts)
        + colors
        + b"".join(struct.pack(">I", e) for e in cert)
    )


def canonical_form(gph: ColoredGraph) -> tuple[CanonicalKey, AutInfo]:
    """Canonical key plus the exact automorphism group of the colored graph.

    The key is invariant under every color-preserving relabeling: equal
    keys exactly for isomorphic colored graphs.
    """
    lab, gens = _canonical_search(gph)
    key = _serialize(gph, lab)
    return key, AutInfo(_perm_group_order(gens, gph.nverts), tuple(gens))


def class_key(g: StabGroup) -> CanonicalKey:
    """Equivalence-class identifier: equal exactly for equivalent groups."""
    gph = build_code_graph(g)
    lab, _ = _canonical_search(gph)
    return _serialize(gph, lab)


def aut_size(g: StabGroup) -> int:
    """Order of the symmetry stabilizer {phi : phi(S) = S}."""
    _, aut = canonical_form(build_code_graph(g))
    return aut.size


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
        gates[jj] = _PERM_INDEX[tuple(perm4)]
    return LCPerm(LocalClifford(gates), QubitPerm(image))


def automorphisms(g: StabGroup) -> tuple[LCPerm, ...]:
    """Generators of the symmetry stabilizer {phi : phi(S) = S}, as LCPerms.

    They are the code graph's automorphism generators found by the
    canonical search, decoded through their action on the qubit triangles.
    """
    _, gens = _canonical_search(build_code_graph(g))
    t = 1 << g.r
    return tuple(_lcperm_of_vertex_map(perm, g.n, t) for perm in gens)


def _witness_from_labelings(a: StabGroup, lab_a, lab_b) -> LCPerm:
    """LCPerm carrying group a onto group b, from matching canonical labels."""
    inv_b = [0] * len(lab_b)
    for v, p in enumerate(lab_b):
        inv_b[p] = v
    return _lcperm_of_vertex_map([inv_b[p] for p in lab_a], a.n, 1 << a.r)


def are_equivalent(a: StabGroup, b: StabGroup, witness: bool = False):
    """Whether two groups are related by local symmetries plus permutation.

    With witness=True returns (flag, LCPerm or None); the returned element
    maps a onto b and is re-verified by applying it before returning.
    """
    if a.n != b.n:
        raise ValueError("groups act on different qubit counts")
    if witness is False:
        return class_key(a) == class_key(b)
    if a.r != b.r:
        return False, None
    ga, gb = build_code_graph(a), build_code_graph(b)
    lab_a, _ = _canonical_search(ga)
    lab_b, _ = _canonical_search(gb)
    if _serialize(ga, lab_a) != _serialize(gb, lab_b):
        return False, None
    w = _witness_from_labelings(a, lab_a, lab_b)
    moved = apply_lcperm(a, w)
    if not moved.same_group(b):
        raise AssertionError("internal error: witness failed verification")
    return True, w
