"""Code graphs, canonical keys, automorphism orders, equivalence witnesses."""

import itertools
import math
import random

import pytest

from stabdb.canon import (
    ColoredGraph,
    _perm_group_order,
    are_equivalent,
    aut_size,
    automorphisms,
    build_code_graph,
    canonical_form,
    class_key,
)
from stabdb.pauli import StabGroup
from stabdb.search import enumerate_classes
from stabdb.transform import (
    LETTER_PERMS,
    LCPerm,
    LocalClifford,
    QubitPerm,
    apply_lcperm,
    random_lcperm,
)
from util import random_stab_group


def group(*strings, n=None):
    return StabGroup.from_strings(strings, n=n)


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
            from stabdb.f2core import BitMatrix

            n = 19
            rows = [(1 << (n + j)) for j in range(19)]  # Z_j generators
            build_code_graph(StabGroup(n, BitMatrix(2 * n, rows)))

    def test_rejects_loops(self):
        with pytest.raises(ValueError, match="loop"):
            ColoredGraph(2, (1, 2), [(0, 0)])

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
            key1, _ = canonical_form(gph)
            relab = list(range(n))
            rng.shuffle(relab)
            gph2 = ColoredGraph(
                n,
                [colors[relab.index(i)] for i in range(n)],
                [(relab[u], relab[v]) for u, v in edges],
            )
            key2, _ = canonical_form(gph2)
            assert key1 == key2

    def test_single_triangle_aut(self):
        key, aut = canonical_form(build_code_graph(group(n=1)))
        assert aut.size == 6

    def test_single_z_aut(self):
        assert aut_size(group("Z")) == 2

    def test_generators_preserve_colors_and_triangles(self):
        g = group("XXXX", "ZZZZ")
        gph = build_code_graph(g)
        _, aut = canonical_form(gph)
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
                p = QubitPerm(image)
                for gates in itertools.product(range(6), repeat=n):
                    lp = LCPerm(LocalClifford(gates), p)
                    if apply_lcperm(g, lp).canonical_gens() == target:
                        count += 1
            assert aut_size(g) == count


def _letter_point_perm(a: LCPerm) -> tuple:
    """a as a permutation of the 3n points (qubit j, letter X/Z/Y), which
    it permutes faithfully: qubit j's letter moves to qubit image[j]."""
    out = [0] * (3 * a.n)
    for j, m in enumerate(a.perm.image):
        letters = LETTER_PERMS[a.clifford.gates[m]]
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
            assert _perm_group_order(points, 3 * g.n) == aut_size(g)


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
        with pytest.raises(ValueError):
            are_equivalent(group("XX"), group("XXX"))
