"""Invariant computations checked against the known classification rows,
brute-force oracles, and transformation invariance."""

import gc
import itertools
import random
import time
import tracemalloc

import pytest

from stabdb import properties
from stabdb.canon import aut_size, class_key
from stabdb.f2core import span
from stabdb.pauli import StabGroup, parse_pauli, symplectic_product
from stabdb.properties import (
    WeightEnum,
    css_rank_test,
    css_representative,
    decompose,
    distance,
    gf4_linear_test,
    gf4_representative,
    is_degenerate,
    is_even,
    weight_enumerator,
)
from stabdb.search import GraphState, enumerate_classes
from stabdb.transform import LCPerm, apply_lcperm

from reference_data import (
    CLASS_ROWS,
    GF4_INDECOMPOSABLE_ROWS,
    PERFECT_513_ROW,
    STEANE_ROW,
    group_from_row,
)
from util import (
    brute_distance,
    brute_gf4_representative,
    brute_split,
    coset_distance,
    count_calls,
    packed_weight,
    random_lcperm,
    random_stab_group,
    reembed,
    reference_css_search,
    span_is_even,
    span_weight_enumerator,
)

# ---------------------------------------------------------------- reference


def test_reference_weight_enumerators():
    for row in CLASS_ROWS:
        g = group_from_row(row)
        assert weight_enumerator(g).coeffs == row[5], row[:4]


def test_reference_distances():
    for row in CLASS_ROWS:
        g = group_from_row(row)
        assert distance(g) == row[2], row[:4]


def test_reference_aut_sizes():
    for row in CLASS_ROWS:
        g = group_from_row(row)
        assert aut_size(g) == row[3], row[:4]


def test_reference_rows_are_indecomposable():
    for row in CLASS_ROWS:
        g = group_from_row(row)
        assert not decompose(g).decomposable, row[:4]


def test_reference_rows_pairwise_inequivalent():
    seen = {}
    for row in CLASS_ROWS:
        key = (row[0], row[1], class_key(group_from_row(row)))
        assert key not in seen, (row[:4], seen[key])
        seen[key] = row[:4]


# ----------------------------------------------------------------- distance


def test_distance_brute_force_small():
    rng = random.Random(11)
    cases = [
        StabGroup.from_strings([], 1),
        StabGroup.from_strings(["Z"]),
        StabGroup.from_strings(["XX", "ZZ"]),
        StabGroup.from_strings(["ZZI", "IZZ"]),
        StabGroup.from_strings(["XXX"]),
    ]
    for _ in range(25):
        n = rng.randint(1, 3)
        cases.append(random_stab_group(n, rng.randint(0, n), rng))
    for g in cases:
        assert distance(g) == brute_distance(g)


def test_distance_past_the_old_centralizer_bound(monkeypatch):
    # groups with 2k + r > 24, whose 2^(2k + r) centralizer operators the
    # distance no longer walks: it reads the 2^r group elements alone
    for n in (20, 24):
        assert distance(StabGroup.from_strings(["X" * n, "Z" * n])) == 2
    # five copies of [[5,1,3]]: n = 25, r = 20, k = 5
    five = group_from_row(PERFECT_513_ROW).generator_strings()
    g = StabGroup.from_strings(
        ["I" * (5 * c) + s + "I" * (20 - 5 * c) for c in range(5) for s in five]
    )
    assert (g.n, g.r, g.k) == (25, 20, 5)
    counts = {}
    count_calls(monkeypatch, counts, properties, "_weight_slices")
    weights = weight_enumerator(g).coeffs
    assert distance(g, weights) == 3
    assert not is_degenerate(g, weights)
    assert counts["_weight_slices"] == 1


@pytest.fixture(scope="module")
def weight_oracles(full_enumeration):
    """(group, distance, weight enumerator, degenerate, even) by the span and
    coset walks, for every n <= 5 class representative and 300 seeded
    random groups on up to 9 qubits."""
    groups = [
        e.rep
        for n in range(1, 6)
        for entries in full_enumeration[n]["classes"].values()
        for e in entries
    ]
    rng = random.Random(53)
    for _ in range(300):
        n = rng.randint(1, 9)
        groups.append(random_stab_group(n, rng.randint(0, n), rng))
    out = []
    for g in groups:
        d = coset_distance(g)
        coeffs = span_weight_enumerator(g)
        least = next((w for w, c in enumerate(coeffs) if w and c), None)
        degenerate = g.k > 0 and least is not None and least < d
        out.append((g, d, coeffs, degenerate, span_is_even(g)))
    return out


@pytest.mark.parametrize("slice_bits", [None, 2])
def test_weight_invariants_match_walks(weight_oracles, monkeypatch, slice_bits):
    # with 2-bit chunks every group of rank 3 or more takes the
    # multi-chunk path
    if slice_bits is not None:
        monkeypatch.setattr(properties, "_SLICE_BITS", slice_bits)
    for g, d, coeffs, degenerate, even in weight_oracles:
        assert distance(g) == d, g
        assert weight_enumerator(g).coeffs == coeffs, g
        assert is_degenerate(g) == degenerate, g
        assert distance(g, coeffs) == d, g
        assert is_degenerate(g, coeffs) == degenerate, g
        assert is_even(g) == even, g


def test_distance_over_two_chunks_matches_brute_force():
    # 2^17 centralizer operators, more than one chunk of 2^16 products, on
    # the brute-force side; the distance reads the 2 group elements
    g = random_stab_group(9, 1, random.Random(59))
    assert 2 * g.k + g.r == 17
    assert distance(g) == brute_distance(g)


def test_distance_at_the_guard_is_fast_and_small():
    # 2k + r = 24: 2^24 centralizer operators, which the distance reads off
    # the enumerator of the 2^8 group elements
    g = random_stab_group(16, 8, random.Random(3))
    # the oracle: no Pauli of weight 1, and some of weight 2, commutes
    # with every generator and lies outside the group
    n = g.n
    elements = set(span(g.rows))

    def logical(row):
        return row not in elements and not any(
            symplectic_product(row, s, n) for s in g.rows
        )

    singles = [letter << j for j in range(n) for letter in (1, 1 << n, 1 | 1 << n)]
    assert not any(map(logical, singles))
    assert any(logical(a ^ b) for a, b in itertools.combinations(singles, 2))
    start = time.perf_counter()
    assert distance(g) == 2
    assert time.perf_counter() - start < 2.0
    tracemalloc.start()
    try:
        distance(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_weight_kernel_at_its_bound():
    # r = 24 = 2k + r, the most the one bound admits: 2^24 group elements
    # (a random graph state carried by a random symmetry, as every k = 0
    # class is a graph state's)
    rng = random.Random(61)
    n = 24
    adjacency = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < 0.5:
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
    graph = GraphState(adjacency).stabilizer()
    g = apply_lcperm(graph, random_lcperm(n, rng))
    assert g.r == 24
    coeffs = weight_enumerator(g).coeffs
    assert sum(coeffs) == 1 << 24
    assert next(w for w in range(1, n + 1) if coeffs[w]) == distance(g)


def test_weight_kernel_refuses_above_its_bound(monkeypatch):
    # r = 25 on 25 qubits: both refuse before the kernel weighs anything
    def no_work(rows, n):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(properties, "_weight_slices", no_work)
    g = StabGroup.from_strings(["I" * j + "Z" + "I" * (24 - j) for j in range(25)])
    with pytest.raises(ValueError, match="enumeration guard"):
        weight_enumerator(g)
    with pytest.raises(ValueError, match="enumeration guard"):
        distance(g)


def test_degeneracy_examples():
    assert is_degenerate(group_from_row(next(
        r for r in CLASS_ROWS if r[:3] == (6, 1, 3))))
    assert not is_degenerate(group_from_row(PERFECT_513_ROW))
    assert not is_degenerate(group_from_row(STEANE_ROW))
    # k = 0 and trivial groups are never called degenerate
    assert not is_degenerate(StabGroup.from_strings(["ZZ", "XX"]))
    assert not is_degenerate(StabGroup.from_strings([], 2))
    # appending a fixed qubit keeps d=3 but adds a weight-1 stabilizer
    padded = StabGroup.from_strings(
        [s + "I" for s in group_from_row(PERFECT_513_ROW).generator_strings()]
        + ["IIIIIX"]
    )
    assert distance(padded) == 3 and is_degenerate(padded)


def test_weight_enum_polynomial_format():
    assert WeightEnum((1, 0, 0, 0, 15, 0)).polynomial() == "1 + 15x^4"
    assert WeightEnum((1, 1)).polynomial() == "1 + x"
    assert WeightEnum((1,)).polynomial() == "1"


def test_weight_parity_additivity_single_qubit():
    # commuting pairs multiply with even weight defect, anticommuting odd
    ops = [parse_pauli(s) for s in "IXZY"]
    for a in ops:
        for b in ops:
            wa, wb = packed_weight(a, 1), packed_weight(b, 1)
            defect = packed_weight(a ^ b, 1) - wa - wb
            assert defect % 2 == symplectic_product(a, b, 1)


# ------------------------------------------------------------------- parity


def test_evenness_examples():
    for row in CLASS_ROWS:
        g = group_from_row(row)
        w = row[5]
        has_odd = any(c and i % 2 for i, c in enumerate(w))
        assert is_even(g) == (not has_odd), row[:4]
    assert not is_even(StabGroup.from_strings(["Z"]))
    assert is_even(StabGroup.from_strings([], 3))


# --------------------------------------------------------------------- CSS


def test_css_rank_test_examples():
    assert css_rank_test(StabGroup.from_strings(["ZZZZ", "XXXX"]))
    assert css_rank_test(StabGroup.from_strings(["XX", "ZZ"]))
    assert not css_rank_test(StabGroup.from_strings(["YY"]))
    assert css_rank_test(StabGroup.from_strings([], 2))
    # generator-set invariant: the Y-form presentation is the same group,
    # and mixing Y rows with pure-Z span elements recovers pure-X ones
    assert css_rank_test(group_from_row(STEANE_ROW))
    # group-level failure that a Hadamard repairs
    assert not css_rank_test(StabGroup.from_strings(["XZ", "ZX"]))


def test_css_representative_found():
    g = group_from_row(STEANE_ROW)
    w, image = css_representative(g)
    assert css_rank_test(image)
    assert class_key(image) == class_key(g)
    # a group needing an actual transform: H on one Bell qubit
    g = StabGroup.from_strings(["XZ", "ZX"])
    w, image = css_representative(g)
    assert css_rank_test(image) and not css_rank_test(g)
    assert class_key(image) == class_key(g)
    # trivial group counts as CSS with the identity witness
    w, image = css_representative(StabGroup.from_strings([], 3))
    assert list(w.gates) == [0, 0, 0]


def test_css_representative_absent():
    # smallest class with no CSS form, fingerprint w = 1 + 4x^3 + 3x^4
    row = next(r for r in CLASS_ROWS if r[5] == (1, 0, 0, 4, 3))
    assert css_representative(group_from_row(row)) is None
    assert css_representative(group_from_row(PERFECT_513_ROW)) is None
    g = StabGroup.from_strings(["ZIXZ", "YXYI", "IZZX"])
    assert css_representative(g) is None


def test_css_search_is_bounded(monkeypatch):
    # the [[5,1,3]] code has no CSS form, so its search runs to exhaustion,
    # and one of its maps that keep every qubit's column span has trace 1
    # on every plane, so the exact fallback leaves it open
    monkeypatch.setattr(properties, "CSS_MAX_NODES", 10)
    with pytest.raises(ValueError, match="CSS search over 10 nodes"):
        css_representative(group_from_row(PERFECT_513_ROW))


def test_css_search_skips_idle_qubits():
    # an idle qubit's six gates all reduce to the pair (0, 0), so it adds one
    # node instead of six subtrees: [[5,1,3]] after 6 idle qubits is
    # decided within the node bound
    five = group_from_row(PERFECT_513_ROW).generator_strings()
    g = StabGroup.from_strings(["I" * 6 + s for s in five])
    assert css_representative(g) is None


def test_css_fallback_agrees_with_search(full_enumeration, monkeypatch):
    # with no node allowed, only the fallback answers a group of rank >= 1:
    # it may prove there is no CSS form, and never for a class the search
    # finds a witness for
    reps = [
        e.rep
        for n in range(1, 7)
        for entries in full_enumeration[n]["classes"].values()
        for e in entries
    ]
    found = [css_representative(g) for g in reps]
    monkeypatch.setattr(properties, "CSS_MAX_NODES", 0)
    decided = 0
    for g, witness in zip(reps, found):
        if g.r == 0:
            continue
        try:
            got = css_representative(g)
        except ValueError:
            continue
        assert got is None and witness is None, g
        decided += 1
    assert (len(reps), decided) == (640, 135)


def test_css_fallback_decides_random_20_qubit_groups(monkeypatch):
    # past the bound, a generic group's only maps keeping every qubit's
    # column span are 0 and the identity, which proves there is no CSS form
    monkeypatch.setattr(properties, "CSS_MAX_NODES", 1000)
    ranks = []
    excluded = properties._css_excluded
    monkeypatch.setattr(
        properties, "_css_excluded", lambda cols, r: ranks.append(r) or excluded(cols, r)
    )
    for seed in range(1, 5):
        assert css_representative(random_stab_group(20, 18, random.Random(seed))) is None
    assert ranks == [18] * 4  # each search reached the bound


def _all_z7_images(count):
    zero = StabGroup.from_strings(["I" * j + "Z" + "I" * (6 - j) for j in range(7)])
    rng = random.Random(47)
    return [apply_lcperm(zero, random_lcperm(7, rng)) for _ in range(count)]


def test_css_prefix_bound_walks_one_path(monkeypatch):
    # an image of |0>^7 has rank j on its first j qubits, so the bound
    # admits only the letter maps that keep each qubit's one letter out of
    # Y, and every node it admits leads to a witness: n + 1 nodes in all
    monkeypatch.setattr(properties, "CSS_MAX_NODES", 8)
    for g in _all_z7_images(20):
        w, image = css_representative(g)
        assert css_rank_test(image)


def test_css_search_leaves_no_garbage():
    g = _all_z7_images(1)[0]
    gc.collect()
    gc.disable()
    try:
        css_representative(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_css_witness_is_first_odometer_hit():
    # the pruned search returns exactly the first witness of the plain 6^n
    # odometer (qubit 0 most significant, gates in index order), or None
    # when the odometer finds none
    for n in range(1, 5):
        for entries in enumerate_classes(n).values():
            for e in entries:
                first = next(
                    (
                        w
                        for w in map(LCPerm, itertools.product(range(6), repeat=n))
                        if css_rank_test(apply_lcperm(e.rep, w))
                    ),
                    None,
                )
                res = css_representative(e.rep)
                if first is None:
                    assert res is None, e.rep
                else:
                    w, image = res
                    assert w == first, e.rep
                    assert image.rows == apply_lcperm(e.rep, w).rows


def test_css_search_matches_unmirrored_reference(full_enumeration, monkeypatch):
    # skipping the X<->Z mirror at qubit 0, and a gate whose reduced pair
    # repeats one already tried at its node, keeps the first witness, or
    # None, of the search that tries both, on every n <= 6 class and on 140
    # random 7-qubit groups, and visits fewer nodes: a node below qubit n
    # makes 4 reduce_row calls, after 2n for the prefix ranks
    reps = [
        e.rep
        for n in range(1, 7)
        for entries in full_enumeration[n]["classes"].values()
        for e in entries
    ]
    rng = random.Random(61)
    randoms = [random_stab_group(7, 1 + i % 7, rng) for i in range(140)]
    counts = {}
    count_calls(monkeypatch, counts, properties, "reduce_row")
    work = []
    for groups in (reps, randoms):
        counts["reduce_row"] = 0
        nodes = reference_nodes = 0
        for g in groups:
            before = counts["reduce_row"]
            res = css_representative(g)
            reference, visited = reference_css_search(g)
            assert (None if res is None else tuple(res[0].gates)) == reference, g
            if g.r:
                calls = counts["reduce_row"] - before - 2 * g.n
                nodes += calls // 4 + (res is not None)
                reference_nodes += visited
        work.append((counts["reduce_row"], nodes, reference_nodes))
    # (reduce_row calls, nodes, the reference's nodes)
    assert work == [(35034, 7468, 13568), (21604, 4971, 10919)]


def test_css_reference_counts_small():
    # every reference class on up to 5 qubits: CSS iff a witness exists,
    # and the listed generator form is already split whenever one exists
    for row in CLASS_ROWS:
        if row[0] > 5:
            continue
        g = group_from_row(row)
        res = css_representative(g)
        if css_rank_test(g):
            assert res is not None
    # d >= 2 CSS counts on 4 and 5 qubits from the refined tables
    found = {}
    for row in CLASS_ROWS:
        n, k, d = row[:3]
        if d >= 2 and k >= 1 and n <= 5:
            if css_representative(group_from_row(row)) is not None:
                found[(n, k, d)] = found.get((n, k, d), 0) + 1
    assert found == {(4, 1, 2): 1, (4, 2, 2): 1, (5, 1, 2): 3, (5, 2, 2): 1}


# -------------------------------------------------------------------- GF(4)


def test_gf4_linear_reference_rows():
    for row in GF4_INDECOMPOSABLE_ROWS:
        g = group_from_row(row + (None,))
        assert gf4_linear_test(g), row[:4]
        assert (row[0] - row[1]) % 2 == 0
        assert aut_size(g) == row[3]


def test_gf4_linear_counterexamples():
    assert not gf4_linear_test(StabGroup.from_strings(["XX"]))
    assert not gf4_linear_test(StabGroup.from_strings([], 2))
    row = next(r for r in CLASS_ROWS if r[5] == (1, 0, 0, 4, 3))
    assert not gf4_linear_test(group_from_row(row))


def test_gf4_representative():
    g = StabGroup.from_strings(["XZ", "ZX"])
    w = gf4_representative(g)
    assert w is not None
    assert gf4_linear_test(apply_lcperm(g, w))
    # already linear: identity pattern comes first
    bell = StabGroup.from_strings(["XX", "ZZ"])
    assert list(gf4_representative(bell).gates) == [0, 0]
    # odd rank can never be closed under the three-cycle
    assert gf4_representative(StabGroup.from_strings(["ZZ"])) is None
    assert gf4_representative(StabGroup.from_strings([], 2)) is None
    assert gf4_representative(group_from_row(PERFECT_513_ROW)) is not None


def test_gf4_representative_matches_sweep(full_enumeration):
    rng = random.Random(41)
    reps = [
        e.rep
        for n in range(1, 6)
        for entries in full_enumeration[n]["classes"].values()
        for e in entries
    ]
    linear = [g for g in reps if gf4_linear_test(g)]
    groups = reps + [
        apply_lcperm(g, random_lcperm(g.n, rng))
        for g in rng.choices(linear, k=100)
    ]
    for _ in range(500):
        n = rng.randint(1, 8)
        groups.append(random_stab_group(n, rng.randint(0, n), rng))
    witnesses = 0
    for g in groups:
        got = gf4_representative(g)
        assert got == brute_gf4_representative(g), g
        witnesses += got is not None
    assert witnesses > 100


def test_gf4_representative_is_fast_on_20_qubits():
    g = random_stab_group(20, 18, random.Random(7))
    start = time.perf_counter()
    gf4_representative(g)
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------ decomposition


def test_decompose_examples():
    g = StabGroup.from_strings(["XXII", "ZZII", "IIXX", "IIZZ"])
    rep = decompose(g)
    assert rep.trivial_qubits == ()
    assert rep.length == 2
    assert [f[0] for f in rep.factors] == [(0, 1), (2, 3)]
    for qubits, factor in rep.factors:
        assert factor.same_group(StabGroup.from_strings(["XX", "ZZ"]))

    g = StabGroup.from_strings(["XIX", "ZIZ"])
    rep = decompose(g)
    assert rep.trivial_qubits == (1,)
    assert rep.length == 1
    assert rep.factors[0][0] == (0, 2)

    rep = decompose(StabGroup.from_strings([], 3))
    assert rep.trivial_qubits == (0, 1, 2)
    assert rep.length == 0

    assert not decompose(StabGroup.from_strings([], 1)).decomposable
    assert not decompose(StabGroup.from_strings(["XX", "ZZ"])).decomposable
    assert decompose(StabGroup.from_strings([], 2)).decomposable
    assert decompose(StabGroup.from_strings(["XXI", "ZZI"])).decomposable


def test_decompose_roundtrip_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = random_stab_group(n, rng.randint(0, n), rng)
        rep = decompose(g)
        assert reembed(rep, n).same_group(g)
        touched = set()
        for qubits, factor in rep.factors:
            assert factor.r >= 1
            assert not decompose(factor).decomposable
            assert not set(qubits) & touched
            touched |= set(qubits)
        assert touched | set(rep.trivial_qubits) == set(range(n))


def test_decompose_known_products():
    bell = ["XX", "ZZ"]
    fourtwotwo = ["ZZZZ", "XXXX"]
    g = StabGroup.from_strings(
        [s + "IIII" for s in bell] + ["II" + s for s in fourtwotwo]
    )
    rep = decompose(g)
    assert rep.length == 2 and rep.trivial_qubits == ()
    sizes = sorted(f[1].n for f in rep.factors)
    assert sizes == [2, 4]


def _random_product(rng):
    """A random symmetry image of the tensor product of two random groups
    on at most 8 qubits in all."""
    n1 = rng.randint(1, 4)
    n2 = rng.randint(1, 8 - n1)
    n = n1 + n2
    rows = []
    for lo, m in ((0, n1), (n1, n2)):
        part = random_stab_group(m, rng.randint(1, m), rng)
        for row in part.rows:
            x, z = row & ((1 << m) - 1), row >> m
            rows.append((x << lo) | (z << (n + lo)))
    g = StabGroup(n, rows)
    return apply_lcperm(g, random_lcperm(n, rng))


def test_decompose_matches_bipartition_oracle(full_enumeration):
    groups = [
        e.rep
        for n in range(1, 6)
        for entries in full_enumeration[n]["classes"].values()
        for e in entries
    ]
    rng = random.Random(41)
    for _ in range(500):
        n = rng.randint(1, 8)
        groups.append(random_stab_group(n, rng.randint(0, n), rng))
    groups.extend(_random_product(rng) for _ in range(300))
    for g in groups:
        rep = decompose(g)
        got = (rep.trivial_qubits, tuple(qubits for qubits, _ in rep.factors))
        assert got == brute_split(g), g


# --------------------------------------------------------------- invariance


def test_flags_invariant_under_equivalence():
    rng = random.Random(23)
    for trial in range(30):
        n = rng.randint(2, 5)
        g = random_stab_group(n, rng.randint(1, n), rng)
        h = apply_lcperm(g, random_lcperm(n, rng))
        assert distance(g) == distance(h)
        assert weight_enumerator(g).coeffs == weight_enumerator(h).coeffs
        assert is_even(g) == is_even(h)
        assert is_degenerate(g) == is_degenerate(h)
        assert decompose(g).decomposable == decompose(h).decomposable
        assert decompose(g).length == decompose(h).length
        assert (css_representative(g) is None) == (
            css_representative(h) is None)
        assert (gf4_representative(g) is None) == (
            gf4_representative(h) is None)


def test_css_flag_matches_class_membership():
    # the CSS flag of a class can be certified from any representative
    rng = random.Random(31)
    base = group_from_row(next(r for r in CLASS_ROWS if r[:3] == (4, 2, 2)))
    for _ in range(10):
        moved = apply_lcperm(base, random_lcperm(4, rng))
        w, image = css_representative(moved)
        assert css_rank_test(image)
        assert class_key(image) == class_key(base)
