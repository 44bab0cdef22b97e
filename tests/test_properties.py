"""Invariant computations checked against the known classification rows,
brute-force oracles, and transformation invariance."""

import itertools
import random
import time

import pytest

from stabdb.canon import aut_size, class_key
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
from stabdb.search import enumerate_classes
from stabdb.transform import (
    LocalClifford,
    apply_lcperm,
    apply_local_clifford,
    random_lcperm,
)

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
    random_stab_group,
    reembed,
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


def test_distance_search_is_bounded():
    # 2k + r = 25 > 24: one generator on 13 qubits leaves 2^24 cosets
    g = StabGroup.from_strings(["Z" * 13])
    with pytest.raises(ValueError, match="enumeration guard"):
        distance(g)
    with pytest.raises(ValueError, match="enumeration guard"):
        is_degenerate(g)


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
            defect = (a * b).weight() - a.weight() - b.weight()
            assert defect % 2 == symplectic_product(a, b)


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
                        for w in map(
                            LocalClifford, itertools.product(range(6), repeat=n)
                        )
                        if css_rank_test(apply_local_clifford(e.rep, w))
                    ),
                    None,
                )
                res = css_representative(e.rep)
                if first is None:
                    assert res is None, e.rep
                else:
                    w, image = res
                    assert w == first, e.rep
                    assert image.gens == apply_local_clifford(e.rep, w).gens


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
    assert gf4_linear_test(apply_lcperm_letters(g, w))
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


def apply_lcperm_letters(g, clifford):
    from stabdb.transform import apply_local_clifford

    return apply_local_clifford(g, clifford)


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
