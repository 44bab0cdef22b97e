"""Letter-permutation action, qubit permutations, semidirect law."""

import random

import pytest

from stabdb.pauli import StabGroup
from stabdb.transform import (
    LETTER_NAMES,
    LETTER_PERMS,
    LocalClifford,
    QubitPerm,
    apply_lcperm,
    apply_local_clifford,
    apply_perm,
    compose,
    compose_letters,
    identity_lcperm,
    inverse,
    invert_letter,
    letter_is_even,
    random_lcperm,
)
from util import random_stab_group


def group(*strings, n=None):
    return StabGroup.from_strings(strings, n=n)


class TestLetterTables:
    def test_all_six_distinct_fix_identity(self):
        assert len(set(LETTER_PERMS)) == 6
        for p in LETTER_PERMS:
            assert p[0] == 0
            assert sorted(p) == [0, 1, 2, 3]

    def test_r_is_h_after_s(self):
        i_h = LETTER_NAMES.index("H")
        i_s = LETTER_NAMES.index("S")
        assert compose_letters(i_h, i_s) == LETTER_NAMES.index("R")
        assert compose_letters(i_s, i_h) == LETTER_NAMES.index("Ri")

    def test_v_is_hsh(self):
        i_h = LETTER_NAMES.index("H")
        i_s = LETTER_NAMES.index("S")
        assert compose_letters(i_h, compose_letters(i_s, i_h)) == LETTER_NAMES.index("V")

    def test_inverses(self):
        for a in range(6):
            assert compose_letters(a, invert_letter(a)) == 0
            assert compose_letters(invert_letter(a), a) == 0

    def test_parity(self):
        # the two 3-cycles and the identity are even, the swaps odd
        assert [letter_is_even(a) for a in range(6)] == [
            True, False, False, True, True, False,
        ]


class TestApplyLocalClifford:
    def test_hadamard_both(self):
        g = apply_local_clifford(group("XX"), LocalClifford(["H", "H"]))
        assert g.generator_strings() == ["ZZ"]

    def test_identity(self):
        g = group("XZ", "ZX")
        out = apply_local_clifford(g, LocalClifford.identity(2))
        assert out.generator_strings() == g.generator_strings()

    def test_cycle_on_one_qubit(self):
        g = apply_local_clifford(group("XZ"), LocalClifford(["R", "I"]))
        assert g.generator_strings() == ["YZ"]

    def test_every_letter_on_every_input(self):
        # act on the single-qubit Paulis and compare against the table
        codes = "IXZY"
        for gi in range(6):
            w = LocalClifford([gi])
            for v in range(1, 4):
                g = StabGroup.from_strings([codes[v]])
                out = apply_local_clifford(g, w)
                expect = codes[LETTER_PERMS[gi][v]]
                assert out.generator_strings() == [expect]

    def test_preserves_rank_and_commutation(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_stab_group(4, rng.randrange(5), rng)
            w = LocalClifford([rng.randrange(6) for _ in range(4)])
            out = apply_local_clifford(g, w)
            StabGroup(out.n, out.gens)  # validate=True checks both


class TestApplyPerm:
    def test_swap(self):
        g = apply_perm(group("XIZ"), QubitPerm([0, 2, 1]))
        assert g.generator_strings() == ["XZI"]

    def test_identity(self):
        g = group("XYZ")
        assert apply_perm(g, QubitPerm.identity(3)).generator_strings() == ["XYZ"]

    def test_three_cycle_on_decomposable_group(self):
        g = group("IIIX", "ZZII", "IZZI")
        out = apply_perm(g, QubitPerm([0, 2, 3, 1]))
        assert out.generator_strings() == ["IXII", "ZIZI", "IIZZ"]

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            QubitPerm([0, 0, 1])


class TestSemidirect:
    def test_identity_laws(self):
        rng = random.Random(3)
        for _ in range(10):
            a = random_lcperm(4, rng)
            e = identity_lcperm(4)
            assert compose(e, a) == a
            assert compose(a, e) == a

    def test_inverse_law(self):
        rng = random.Random(4)
        for _ in range(20):
            a = random_lcperm(5, rng)
            assert compose(a, inverse(a)).is_identity()
            assert compose(inverse(a), a).is_identity()

    def test_associativity(self):
        rng = random.Random(5)
        for _ in range(20):
            a, b, c = (random_lcperm(4, rng) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_action_property(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randrange(1, 6)
            g = random_stab_group(n, rng.randrange(n + 1), rng)
            a = random_lcperm(n, rng)
            b = random_lcperm(n, rng)
            lhs = apply_lcperm(g, compose(a, b))
            rhs = apply_lcperm(apply_lcperm(g, b), a)
            assert lhs.gens == rhs.gens

    def test_action_invertible(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randrange(1, 6)
            g = random_stab_group(n, rng.randrange(n + 1), rng)
            a = random_lcperm(n, rng)
            back = apply_lcperm(apply_lcperm(g, a), inverse(a))
            assert back.gens == g.gens

    def test_seeded_generation_reproducible(self):
        assert random_lcperm(5, 123) == random_lcperm(5, 123)
