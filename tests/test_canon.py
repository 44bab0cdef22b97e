"""Code graphs, canonical keys, automorphism orders, equivalence witnesses."""

import gc
import hashlib
import itertools
import math
import pickle
import random

import pytest

from stabdb import canon, search
from stabdb.canon import (
    ColoredGraph,
    are_equivalent,
    aut_size,
    automorphisms,
    build_code_graph,
    canonical_form,
    class_key,
)
from stabdb.db import build_records
from stabdb.pauli import StabGroup
from stabdb.search import enumerate_classes, extend_class
from stabdb.transform import LETTER_PERMS, LCPerm, apply_lcperm
from util import (
    closure_order,
    count_calls,
    perm_group_order,
    random_lcperm,
    random_stab_group,
    reference_refine,
)


def group(*strings, n=None):
    return StabGroup.from_strings(strings, n=n)


def graph_form(gph):
    """(key, SearchResult) of a bare colored graph, searched afresh: the
    search canonical_form runs on a group's code graph."""
    found = canon._canonical_search(gph)
    return found.key, found


def _fresh_copy(g):
    """The same group as a new object, which has no kept search."""
    return StabGroup.from_strings(g.generator_strings(), g.n)


def _cycle7_row(j):
    letters = ["I"] * 7
    letters[j] = "X"
    letters[(j - 1) % 7] = letters[(j + 1) % 7] = "Z"
    return "".join(letters)


# seven-qubit codes with large automorphism groups
N7_CODES = {
    "ghz7": group("XXXXXXX", *("I" * j + "ZZ" + "I" * (5 - j) for j in range(6))),
    "all_z7": group(*("I" * j + "Z" + "I" * (6 - j) for j in range(7))),
    "steane": group(
        "IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"
    ),
    "cycle7": group(*(_cycle7_row(j) for j in range(7))),
    "repetition7": group(*("I" * j + "ZZ" + "I" * (5 - j) for j in range(6))),
}


class TestBuildCodeGraph:
    def test_two_generator_three_qubit(self):
        # span II, XII, IXY, XXY: 4 black + 9 white; XXY has degree 3
        g = group("XII", "IXY")
        gph = build_code_graph(g)
        assert gph.nverts == 4 + 9
        blacks = [v for v in range(gph.nverts) if gph.colors[v] == 1]
        assert len(blacks) == 4
        degrees = sorted(len(gph.adj[v]) for v in blacks)
        assert degrees == [0, 1, 2, 3]

    def test_gray_order_steps_by_one_generator(self):
        # black vertex i is the span element with generator mask
        # i ^ (i >> 1), read back off its corners: X, Y, Z at slots 0, 1, 2
        g = group("ZZI", "IZZ", "XXX")
        gph = build_code_graph(g)
        t = 1 << g.r
        rows = []
        for v in range(t):
            row = 0
            for c in gph.adj[v]:
                j, slot = divmod(c - t, 3)
                row |= (slot < 2) << j | (slot > 0) << (g.n + j)
            rows.append(row)
        assert rows[0] == 0
        assert len(set(rows)) == 8
        gens = set(g.rows)
        for a, b in zip(rows, rows[1:]):
            assert a ^ b in gens

    def test_empty_group_one_qubit(self):
        gph = build_code_graph(group(n=1))
        assert gph.nverts == 1 + 3
        assert len(gph.adj[0]) == 0  # isolated black vertex
        assert len(gph.edges) == 3  # just the triangle

    def test_bell_degrees(self):
        gph = build_code_graph(group("XX", "ZZ"))
        blacks = sorted(len(gph.adj[v]) for v in range(4))
        assert blacks == [0, 2, 2, 2]
        assert sum(1 for c in gph.colors if c == 2) == 6

    def test_triangles_are_cliques(self):
        g = group("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
        gph = build_code_graph(g)
        t = 1 << g.r
        es = set(gph.edges)
        for j in range(g.n):
            b = t + 3 * j
            for u, v in [(b, b + 1), (b, b + 2), (b + 1, b + 2)]:
                assert (u, v) in es

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            # r=19 > guard; build an oversized fake via direct spans is
            # impossible, so check the guard through span size directly
            n = 19
            rows = [(1 << (n + j)) for j in range(19)]  # Z_j generators
            build_code_graph(StabGroup(n, rows))

    def test_rejects_loops(self):
        with pytest.raises(ValueError, match="loop"):
            ColoredGraph(2, (1, 2), [(0, 0)])

    def test_rejects_wrong_color_count(self):
        with pytest.raises(ValueError, match="one color per vertex"):
            ColoredGraph(2, (1,), [(0, 1)])

    def test_rejects_edge_out_of_range(self):
        with pytest.raises(ValueError, match=r"edge \(0,2\) out of range"):
            ColoredGraph(2, (1, 2), [(0, 2)])

    def test_qubit_guard(self):
        with pytest.raises(ValueError, match="qubit budget exceeded: 129 qubits > 128"):
            build_code_graph(StabGroup.from_strings([], 129))

    def test_direct_build_matches_validated_graph(self, full_enumeration):
        # build_code_graph lays out adj and the sorted edges itself; they
        # must be what ColoredGraph's validate, dedupe and sort pass leaves
        groups = [
            e.rep
            for n in range(1, 6)
            for entries in full_enumeration[n]["classes"].values()
            for e in entries
        ]
        groups += [group(n=4), group("ZIZ", "XIX"), group("IXIZ")]
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randrange(1, 10)
            groups.append(random_stab_group(n, rng.randrange(n + 1), rng))
        assert any(g.r == 0 for g in groups)
        for g in groups:
            gph = build_code_graph(g)
            checked = ColoredGraph(gph.nverts, gph.colors, gph.edges)
            assert gph == checked
            assert gph.adj == checked.adj

    def test_black_neighborhoods_distinct(self):
        # faithfulness: distinct span elements touch distinct white sets
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randrange(1, 6)
            g = random_stab_group(n, rng.randrange(n + 1), rng)
            gph = build_code_graph(g)
            t = 1 << g.r
            hoods = [tuple(gph.adj[v]) for v in range(t)]
            assert len(set(hoods)) == t


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randrange(2, 9)
            edges = set()
            for _ in range(rng.randrange(0, 2 * n)):
                u, v = rng.sample(range(n), 2)
                edges.add((min(u, v), max(u, v)))
            colors = [rng.choice([1, 2]) for _ in range(n)]
            gph = ColoredGraph(n, colors, edges)
            key1, _ = graph_form(gph)
            relab = list(range(n))
            rng.shuffle(relab)
            gph2 = ColoredGraph(
                n,
                [colors[relab.index(i)] for i in range(n)],
                [(relab[u], relab[v]) for u, v in edges],
            )
            key2, _ = graph_form(gph2)
            assert key1 == key2

    def test_takes_only_groups(self):
        # a bare graph has no slot to keep its search in
        with pytest.raises(TypeError):
            canonical_form(build_code_graph(group("XX", "ZZ")))

    def test_single_triangle_aut(self):
        key, aut = graph_form(build_code_graph(group(n=1)))
        assert aut.size == 6

    def test_single_z_aut(self):
        assert aut_size(group("Z")) == 2

    def test_generators_preserve_colors_and_triangles(self):
        g = group("XXXX", "ZZZZ")
        gph = build_code_graph(g)
        _, aut = graph_form(gph)
        t = 1 << g.r
        for perm in aut.generators:
            for v in range(gph.nverts):
                assert gph.colors[perm[v]] == gph.colors[v]
            # triangle blocks map to triangle blocks
            for j in range(g.n):
                targets = {(perm[t + 3 * j + s] - t) // 3 for s in range(3)}
                assert len(targets) == 1
            # adjacency preserved
            es = set(gph.edges)
            for u, v in gph.edges:
                a, b = perm[u], perm[v]
                assert (min(a, b), max(a, b)) in es


def _count_automorphisms(gph: ColoredGraph) -> int:
    """Color- and edge-preserving vertex permutations, counted by extending
    partial maps one vertex at a time (exponential oracle)."""
    nv = gph.nverts
    adj = [set(a) for a in gph.adj]
    image = []

    def extend():
        v = len(image)
        if v == nv:
            return 1
        total = 0
        for w in range(nv):
            if w in image or gph.colors[w] != gph.colors[v]:
                continue
            if all((u in adj[v]) == (image[u] in adj[w]) for u in range(v)):
                image.append(w)
                total += extend()
                image.pop()
        return total

    return extend()


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


def _random_colored_graphs():
    """200 seeded random two-colored graphs on 1 to 7 vertices."""
    rng = random.Random(31)
    for _ in range(200):
        nv = rng.randrange(1, 8)
        density = rng.random()
        edges = [
            (u, v)
            for u in range(nv)
            for v in range(u + 1, nv)
            if rng.random() < density
        ]
        colors = [rng.choice([1, 2]) for _ in range(nv)]
        yield ColoredGraph(nv, colors, edges)


class TestAutOrder:
    @pytest.mark.parametrize(
        "nverts,edges,expect",
        [
            (6, _cycle(6), 12),
            (6, [(i, j) for i in range(3) for j in range(3, 6)], 72),
            (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 72),
            (
                10,
                _cycle(5)
                + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
                120,
            ),
            (8, [], 40320),
        ],
        ids=["C6", "K33", "two_triangles", "petersen", "isolated8"],
    )
    def test_known_graphs(self, nverts, edges, expect):
        gph = ColoredGraph(nverts, [1] * nverts, edges)
        assert _count_automorphisms(gph) == expect
        aut = graph_form(gph)[1]
        assert aut.size == expect
        # the generators the jump-back search keeps still generate the group
        assert closure_order(aut.generators, nverts) == expect
        assert len(aut.generators) <= nverts - 1

    def test_random_colored_graphs(self):
        for gph in _random_colored_graphs():
            nv = gph.nverts
            aut = graph_form(gph)[1]
            assert aut.size == _count_automorphisms(gph)
            assert closure_order(aut.generators, nv) == aut.size
            assert len(aut.generators) <= nv - 1


class TestRefine:
    """refine splits against a one-vertex cell without counting, and skips
    a touched cell whose counted vertices fill it with one count; every
    call must leave exactly the ordered partition the reference does."""

    @pytest.fixture
    def checked_calls(self, monkeypatch):
        calls = []
        refine = canon._Partition.refine

        def checked(part, adj, worklist):
            expect = part.copy()
            reference_refine(expect, adj, worklist)
            refine(part, adj, worklist)
            assert part.order == expect.order
            assert part.start == expect.start
            assert part.end == expect.end
            assert part.nbig == expect.nbig
            calls.append(1)

        monkeypatch.setattr(canon._Partition, "refine", checked)
        return calls

    def test_searches_match_reference(self, checked_calls, full_enumeration):
        graphs = [
            build_code_graph(e.rep)
            for n in range(1, 6)
            for entries in full_enumeration[n]["classes"].values()
            for e in entries
        ]
        graphs += [build_code_graph(h) for hs in _n7_images().values() for h in hs]
        graphs += _random_colored_graphs()
        for gph in graphs:  # graphs: no search is remembered
            graph_form(gph)
        assert len(checked_calls) > len(graphs)

    def test_one_vertex_splitter_fills_a_cell(self, checked_calls):
        # 0 is joined to all of {1, 2, 3}, which does not split, and to 4
        # but not 5, which splits {4, 5}
        adj = ColoredGraph(6, [1] * 6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)]).adj
        part = canon._Partition([[0], [1, 2, 3], [4, 5]])
        part.refine(adj, [0])
        assert part.order == [0, 1, 2, 3, 5, 4]
        assert len(checked_calls) == 1

    def test_splitter_cuts_a_queued_cell(self, checked_calls):
        # individualizing 0 queues {0} and the rest {1, 2, 3}; {0} splits
        # the rest into {1} and its neighbours {2, 3} while the rest is
        # still queued, so {2, 3} is queued although it is the larger
        # fragment, and only {2, 3} splits {4, 5}
        adj = ColoredGraph(6, [1] * 6, [(0, 2), (0, 3), (2, 4)]).adj
        part = canon._Partition([[0, 1, 2, 3], [4, 5]])
        worklist = part.individualize(0)
        assert worklist == (0, 1)
        part.refine(adj, worklist)
        assert part.order == [0, 1, 3, 2, 5, 4]
        assert part.nbig == 0


class TestKnownAutSizes:
    @pytest.mark.parametrize(
        "strings,n,expect",
        [
            ([], 1, 6),
            (["Z"], 1, 2),
            (["XX", "ZZ"], 2, 12),
            (["ZZZZ", "XXXX"], 4, 144),
            (["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"], 5, 360),
        ],
    )
    def test_tabulated(self, strings, n, expect):
        assert aut_size(group(*strings, n=n)) == expect

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_trivial_group(self, n):
        assert aut_size(group(n=n)) == 6**n * math.factorial(n)

    def test_brute_force_small(self):
        # compare against literal enumeration of all 6^n n! symmetries
        rng = random.Random(21)
        for _ in range(12):
            n = rng.randrange(1, 4)
            g = random_stab_group(n, rng.randrange(n + 1), rng)
            target = g.canonical_gens()
            count = 0
            for image in itertools.permutations(range(n)):
                for gates in itertools.product(range(6), repeat=n):
                    lp = LCPerm(gates, image)
                    if apply_lcperm(g, lp).canonical_gens() == target:
                        count += 1
            assert aut_size(g) == count


def _letter_point_perm(a: LCPerm) -> tuple:
    """a as a permutation of the 3n points (qubit j, letter X/Z/Y), which
    it permutes faithfully: qubit j's letter moves to qubit image[j]."""
    out = [0] * (3 * a.n)
    for j, m in enumerate(a.image):
        letters = LETTER_PERMS[a.gates[m]]
        for code in (1, 2, 3):
            out[3 * j + code - 1] = 3 * m + letters[code] - 1
    return tuple(out)


@pytest.fixture(scope="module")
def class_reps():
    """Every class representative for n <= 4."""
    return [
        e.rep
        for n in range(1, 5)
        for entries in enumerate_classes(n).values()
        for e in entries
    ]


class TestAutomorphisms:
    def test_generators_fix_class_reps(self, class_reps):
        for g in class_reps:
            for a in automorphisms(g):
                assert apply_lcperm(g, a).same_group(g)

    def test_generators_give_aut_size(self, class_reps):
        for g in class_reps:
            points = [_letter_point_perm(a) for a in automorphisms(g)]
            assert closure_order(points, 3 * g.n) == aut_size(g)


class TestClassKey:
    def test_lc_image_equal(self):
        assert class_key(group("XX")) == class_key(group("ZZ"))

    def test_perm_plus_letters_equal(self):
        assert class_key(group("XIZ")) == class_key(group("ZXI"))

    def test_distinct_classes(self):
        assert class_key(group("XX", "ZZ")) != class_key(group("XI", "IX"))

    def test_invariance_fuzz(self):
        rng = random.Random(17)
        for _ in range(150):
            n = rng.randrange(1, 7)
            g = random_stab_group(n, rng.randrange(n + 1), rng)
            lp = random_lcperm(n, rng)
            assert class_key(g) == class_key(apply_lcperm(g, lp))


class TestAreEquivalent:
    def test_reflexive_with_identity_witness(self):
        g = group("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
        eq, w = are_equivalent(g, g, witness=True)
        assert eq
        assert apply_lcperm(g, w).same_group(g)

    def test_random_images(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randrange(1, 6)
            g = random_stab_group(n, rng.randrange(n + 1), rng)
            lp = random_lcperm(n, rng)
            h = apply_lcperm(g, lp)
            eq, w = are_equivalent(g, h, witness=True)
            assert eq
            assert apply_lcperm(g, w).same_group(h)
            assert are_equivalent(g, h) is True

    def test_distinct_four_qubit_classes(self):
        # two inequivalent rank-3 groups on 4 qubits
        a = group("XZZX", "YZXI", "IXZZ")
        b = group("XXXX", "ZZII", "IIZZ")
        assert are_equivalent(a, b) is False
        eq, w = are_equivalent(a, b, witness=True)
        assert eq is False and w is None

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="different qubit counts"):
            are_equivalent(group("XX"), group("XXX"))

    def test_rank_mismatch_is_inequivalent(self):
        a, b = group("XX", "ZZ"), group("XX")
        assert are_equivalent(a, b) is False
        assert are_equivalent(a, b, witness=True) == (False, None)


class TestEarlyExit:
    """class_key(g, known) stops at the first leaf when that leaf's bytes
    are a known key, and must still return exactly class_key(g)."""

    def test_known_keys_never_change_the_key(self, full_enumeration):
        for n in range(1, 6):
            classes = full_enumeration[n]["classes"]
            for k in range(n, 0, -1):
                parent_keys = {e.key for e in classes[(n, k)]}
                level_keys = {e.key for e in classes[(n, k - 1)]}
                found = set()  # as enumerate_classes passes them
                for entry in classes[(n, k)]:
                    for cand in extend_class(entry.rep):
                        # the full search of cand is kept on it, so the
                        # known-key searches run on fresh copies
                        key = class_key(cand)
                        assert class_key(_fresh_copy(cand), found) == key
                        assert class_key(_fresh_copy(cand), level_keys) == key
                        # another cell's keys: a different vertex count
                        assert class_key(_fresh_copy(cand), parent_keys) == key
                        found.add(key)
                assert found == level_keys

    @pytest.mark.parametrize(
        "g", [N7_CODES["ghz7"], N7_CODES["all_z7"]], ids=["ghz7", "all_z7"]
    )
    def test_known_key_searches_less(self, g, monkeypatch):
        calls = []
        refine = canon._Partition.refine

        def counted(self, adj, worklist):
            calls.append(1)
            return refine(self, adj, worklist)

        monkeypatch.setattr(canon._Partition, "refine", counted)
        # fresh copies, so that neither call reads a kept search
        key = class_key(_fresh_copy(g))
        full = len(calls)
        calls.clear()
        assert class_key(_fresh_copy(g), {key}) == key
        assert len(calls) < full


def _pin_digests(full_enumeration, fields) -> set:
    """sha256 of fields(key, SearchResult) over every n <= 5 class
    representative and N7_CODES, once from the graphs and once from the
    groups, whose searches the census that found them has already run."""
    reps = [
        e.rep
        for n in range(1, 6)
        for cell in sorted(full_enumeration[n]["classes"])
        for e in full_enumeration[n]["classes"][cell]
    ]
    digests = set()
    for form in (lambda g: graph_form(build_code_graph(g)), canonical_form):
        digest = hashlib.sha256()
        for g in reps + list(N7_CODES.values()):
            digest.update(repr(fields(*form(g))).encode())
        digests.add(digest.hexdigest())
    return digests


def _n7_images() -> dict:
    """Each of N7_CODES with 10 seeded random images of it."""
    rng = random.Random(19)
    return {
        name: [g] + [apply_lcperm(g, random_lcperm(7, rng)) for _ in range(10)]
        for name, g in N7_CODES.items()
    }


class TestExactPruning:
    """A node whose partition is an automorphism's image of the first
    path's node at its depth is cut with no leaf certificate; the search
    must return exactly the key and |Aut| of the unpruned one."""

    def test_keys_and_orders_pinned(self, full_enumeration):
        # the digest of the search that descends to every automorphism leaf
        # and sorts its certificate
        assert _pin_digests(full_enumeration, lambda key, aut: (key, aut.size)) == {
            "2087b98575f6b84ae37a8da8843f051f1b30aa846fc2ba0fd014bdd0a9cd270c"
        }

    def test_generators_pinned(self, full_enumeration):
        # the generator tuples, in order: an automorphism derived where a
        # branch mirrors the first path may be another element of the coset
        # of the one the descent would read off a leaf, so these differ
        # from the unpruned search's while generating the same group
        assert _pin_digests(full_enumeration, lambda key, aut: aut.generators) == {
            "6d2cf8c7d1e7c432fa366350874880a0c8677050e26fe0c27706f7cda12bb822"
        }

    @pytest.mark.parametrize("name", sorted(N7_CODES))
    def test_one_leaf_cert_per_search(self, name, monkeypatch):
        calls = []
        leaf_cert = canon._leaf_cert

        def counted(edges, lab):
            calls.append(1)
            return leaf_cert(edges, lab)

        monkeypatch.setattr(canon, "_leaf_cert", counted)
        rng = random.Random(43)
        g = N7_CODES[name]
        for h in [g] + [apply_lcperm(g, random_lcperm(7, rng)) for _ in range(10)]:
            calls.clear()
            graph_form(build_code_graph(h))
            assert len(calls) == 1

    def test_search_leaves_no_garbage(self, monkeypatch):
        derived = _record_derivations(monkeypatch)
        ghz7 = N7_CODES["ghz7"]
        image = apply_lcperm(ghz7, random_lcperm(7, 53))
        for gph in (build_code_graph(ghz7), build_code_graph(image)):
            gc.collect()
            gc.disable()
            try:
                graph_form(gph)
                assert gc.collect() == 0
            finally:
                gc.enable()
        # the image's search recorded derived automorphisms
        assert any(sigma is not None for sigma in derived)


def _record_derivations(monkeypatch) -> list:
    """Rebinds canon._derive_aut to a wrapper that appends each result,
    an automorphism or None, to the list returned."""
    derived = []
    derive_aut = canon._derive_aut

    def call(*args):
        derived.append(derive_aut(*args))
        return derived[-1]

    monkeypatch.setattr(canon, "_derive_aut", call)
    return derived


def _assert_automorphisms(gph: ColoredGraph, perms) -> None:
    """Each of perms is a colour-preserving bijection of gph's vertices
    that sends every edge to an edge."""
    edges = set(gph.edges)
    for perm in perms:
        assert sorted(perm) == list(range(gph.nverts))
        assert all(gph.colors[perm[v]] == gph.colors[v] for v in range(gph.nverts))
        for u, v in gph.edges:
            a, b = perm[u], perm[v]
            assert (min(a, b), max(a, b)) in edges


class TestDerivedAutomorphisms:
    """Where the position map fails at a node whose cells end where the
    first path's do, a code graph's search derives the automorphism from
    the white triangles; any other graph keeps the position map alone."""

    def test_generic_graphs_never_derive(self, monkeypatch):
        counts = {}
        count_calls(monkeypatch, counts, canon, "_derive_aut")
        known = [
            ColoredGraph(6, [1] * 6, _cycle(6)),
            ColoredGraph(
                10,
                [1] * 10,
                _cycle(5)
                + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
            ),
            ColoredGraph(8, [1] * 8, []),
        ]
        # a code graph numbered backwards: its colour-1 vertices come last
        code = build_code_graph(group("XXXXX", "ZZIII", "IZZII", "IIZZI", "IIIZZ"))
        back = code.nverts - 1
        reversed_code = ColoredGraph(
            code.nverts,
            code.colors[::-1],
            [(back - u, back - v) for u, v in code.edges],
        )
        for gph in [*_random_colored_graphs(), *known, reversed_code]:
            aut = graph_form(gph)[1]
            assert closure_order(aut.generators, gph.nverts) == aut.size
        assert counts["_derive_aut"] == 0
        # the same graph in code order derives, and finds the same order
        assert graph_form(code)[1].size == aut.size
        assert counts["_derive_aut"] > 0

    def test_image_generators_are_automorphisms(self, full_enumeration, monkeypatch):
        # a random image of every n <= 5 class: each generator is a
        # colour-preserving bijection sending every edge to an edge, and
        # the generators give |Aut| on the letter points
        derived = _record_derivations(monkeypatch)
        rng = random.Random(59)
        for n in range(1, 6):
            for entries in full_enumeration[n]["classes"].values():
                for e in entries:
                    h = apply_lcperm(e.rep, random_lcperm(n, rng))
                    _, found = canonical_form(h)
                    _assert_automorphisms(build_code_graph(h), found.generators)
                    points = [_letter_point_perm(a) for a in automorphisms(h)]
                    assert perm_group_order(points, 3 * n) == found.size
        assert sum(sigma is not None for sigma in derived) > 0

    def test_black_vertices_out_of_gray_order(self, monkeypatch):
        # shuffling the black vertices keeps the code shape, so the search
        # still derives, but the black map it reads off the Gray order is
        # wrong there: the bijection and edge checks must refuse it, and the
        # key and order stay those of the graph in code order
        derived = _record_derivations(monkeypatch)
        rng = random.Random(67)
        for name in ("ghz7", "steane", "all_z7", "repetition7"):
            code = build_code_graph(N7_CODES[name])
            t = code.colors.count(1)
            perm = rng.sample(range(t), t) + list(range(t, code.nverts))
            shuffled = ColoredGraph(
                code.nverts, code.colors, [(perm[u], perm[v]) for u, v in code.edges]
            )
            key, aut = graph_form(code)
            shuffled_key, shuffled_aut = graph_form(shuffled)
            assert (shuffled_key, shuffled_aut.size) == (key, aut.size)
            _assert_automorphisms(shuffled, shuffled_aut.generators)
        assert derived.count(None) > 0

    def test_group_order_oracle(self, class_reps):
        # perm_group_order agrees with the closure wherever that runs
        for g in class_reps:
            points = [_letter_point_perm(a) for a in automorphisms(g)]
            assert perm_group_order(points, 3 * g.n) == closure_order(points, 3 * g.n)
        for gph in _random_colored_graphs():
            gens = graph_form(gph)[1].generators
            assert perm_group_order(gens, gph.nverts) == closure_order(gens, gph.nverts)


class TestSearchWork:
    """The search's work as machine-independent counts: a change that
    grows the search tree fails here."""

    def test_census_n5_counts(self, monkeypatch):
        # fresh groups, so every search runs: one refine per node (each
        # root and each individualized child), one _leaf_cert per leaf that
        # no automorphism check caught
        counts = {}
        count_calls(monkeypatch, counts, canon, "_canonical_search", "search")
        count_calls(monkeypatch, counts, canon._Partition, "refine")
        count_calls(monkeypatch, counts, canon, "_leaf_cert", "leaf_cert")
        enumerate_classes(5)
        assert counts == {"search": 196, "refine": 2197, "leaf_cert": 199}

    def test_n7_images_refine_counts(self, monkeypatch):
        # refine calls (search nodes) per code over N7_CODES and 10 images
        # of each; descending to a leaf for every automorphism the position
        # map misses took 892 for GHZ7 and its images, and 2,190 in all
        counts = {}
        count_calls(monkeypatch, counts, canon._Partition, "refine")
        per_code = {}
        for name, groups in _n7_images().items():
            counts["refine"] = 0
            for h in groups:
                graph_form(build_code_graph(h))
            per_code[name] = counts["refine"]
        assert per_code == {
            "ghz7": 275,
            "all_z7": 297,
            "steane": 171,
            "cycle7": 55,
            "repetition7": 297,
        }


class TestOneSearchPerGroup:
    """A group object's full search is run once and kept on the group; a
    census then searches each class once."""

    @staticmethod
    def count_searches(monkeypatch):
        searches = []
        search_graph = canon._canonical_search
        monkeypatch.setattr(
            canon,
            "_canonical_search",
            lambda gph, known=(): searches.append(1) or search_graph(gph, known),
        )
        return searches

    def test_remembered_group_matches_fresh_copy(self, class_reps):
        rng = random.Random(5)
        groups = list(class_reps) + list(N7_CODES.values())
        groups += [apply_lcperm(g, random_lcperm(7, rng)) for g in N7_CODES.values()]
        for g in groups:
            class_key(g)  # kept from here on
            assert g._search is not None
            fresh = _fresh_copy(g)
            assert fresh._search is None
            assert class_key(g) == class_key(fresh)
            assert aut_size(g) == aut_size(fresh)
            assert automorphisms(g) == automorphisms(fresh)
            assert canonical_form(g) == graph_form(build_code_graph(fresh))

    def test_census_searches_each_class_once(self, monkeypatch):
        searches = self.count_searches(monkeypatch)
        candidates = []
        monkeypatch.setattr(
            search,
            "class_key",
            lambda g, known=(): candidates.append(g) or class_key(g, known),
        )
        classes = enumerate_classes(5)
        records = build_records(classes)
        assert len(searches) == len(candidates) == 196
        reps = {id(e.rep) for entries in classes.values() for e in entries}
        assert len(reps) == sum(map(len, records.values())) == 112
        # every duplicate stopped at its first leaf, and none keeps a search
        duplicates = [g for g in candidates if id(g) not in reps]
        assert len(duplicates) == 84
        assert not any(g._search for g in duplicates)
        assert sum(1 for g in candidates if g._search) == 112

    def test_pickled_level_keeps_its_searches(self, monkeypatch):
        level = pickle.loads(pickle.dumps(enumerate_classes(5)[(5, 2)]))
        assert len(level) == 40
        fresh = [_fresh_copy(e.rep) for e in level]
        expect = [(automorphisms(g), canonical_form(g)) for g in fresh]
        searches = self.count_searches(monkeypatch)
        got = [(automorphisms(e.rep), canonical_form(e.rep)) for e in level]
        assert searches == []
        assert got == expect
