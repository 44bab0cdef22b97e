"""LCPerm: letter permutations, qubit permutations, the semidirect action."""

import random

import pytest

from stabdb.pauli import StabGroup
from stabdb.transform import (
    LETTER_NAMES,
    LETTER_PERMS,
    LCPerm,
    apply_lcperm,
    lcperm_rows,
)
from util import random_lcperm, random_stab_group

CODES = "IXZY"  # the 2-bit letter codes LETTER_PERMS permutes


def group(*strings, n=None):
    return StabGroup.from_strings(strings, n=n)


def letter(name):
    return LETTER_PERMS[LETTER_NAMES.index(name)]


def after(a, b):
    """The letter permutation "apply b, then a"."""
    return tuple(a[v] for v in b)


def inverted(p):
    return tuple(sorted(range(len(p)), key=p.__getitem__))


class TestLetterTables:
    def test_all_six_distinct_fix_identity(self):
        assert len(set(LETTER_PERMS)) == 6
        for p in LETTER_PERMS:
            assert p[0] == 0
            assert sorted(p) == [0, 1, 2, 3]

    def test_r_is_h_after_s(self):
        assert after(letter("H"), letter("S")) == letter("R")
        assert after(letter("S"), letter("H")) == letter("Ri")

    def test_v_is_hsh(self):
        assert after(letter("H"), after(letter("S"), letter("H"))) == letter("V")

    def test_inverses(self):
        # the table is a group: closed under composition and inverses
        for a in LETTER_PERMS:
            assert {after(a, b) for b in LETTER_PERMS} == set(LETTER_PERMS)
            inv = inverted(a)
            assert inv in LETTER_PERMS
            assert after(a, inv) == after(inv, a) == letter("I")

    def test_parity(self):
        # the two 3-cycles and the identity are even, the swaps odd
        def even(p):
            return sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0

        assert [even(p) for p in LETTER_PERMS] == [
            True, False, False, True, True, False,
        ]


class TestLCPerm:
    def test_names_and_indices(self):
        a = LCPerm(["I", "H", "Ri", 3, 5])
        assert a.gates == (0, 1, 4, 3, 5)
        assert a.image == (0, 1, 2, 3, 4)
        assert a == LCPerm([0, 1, 4, 3, 5], range(5))
        assert hash(a) == hash(LCPerm([0, 1, 4, 3, 5], range(5)))
        assert a != LCPerm([0, 1, 4, 3, 5], [1, 0, 2, 3, 4])
        assert LCPerm(["V", "S"]).n == 2

    def test_rejects_bad_letters(self):
        for gates in ([6], [-1], ["X"], [(0, 2, 1, 3)]):
            with pytest.raises(ValueError):
                LCPerm(gates)


class TestApplyLetters:
    def test_hadamard_both(self):
        g = apply_lcperm(group("XX"), LCPerm(["H", "H"]))
        assert g.generator_strings() == ["ZZ"]

    def test_identity(self):
        g = group("XZ", "ZX")
        out = apply_lcperm(g, LCPerm(["I", "I"]))
        assert out.generator_strings() == g.generator_strings()

    def test_cycle_on_one_qubit(self):
        g = apply_lcperm(group("XZ"), LCPerm(["R", "I"]))
        assert g.generator_strings() == ["YZ"]

    def test_every_letter_on_every_input(self):
        # act on the single-qubit Paulis and compare against the table
        for gi in range(6):
            w = LCPerm([gi])
            for v in range(1, 4):
                g = StabGroup.from_strings([CODES[v]])
                out = apply_lcperm(g, w)
                expect = CODES[LETTER_PERMS[gi][v]]
                assert out.generator_strings() == [expect]

    def test_preserves_rank_and_commutation(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_stab_group(4, rng.randrange(5), rng)
            w = LCPerm([rng.randrange(6) for _ in range(4)])
            out = apply_lcperm(g, w)
            StabGroup(out.n, out.rows)  # the build checks both


class TestApplyPerm:
    def test_swap(self):
        g = apply_lcperm(group("XIZ"), LCPerm("III", [0, 2, 1]))
        assert g.generator_strings() == ["XZI"]

    def test_identity(self):
        g = group("XYZ")
        assert apply_lcperm(g, LCPerm("III", range(3))).generator_strings() == ["XYZ"]

    def test_three_cycle_on_decomposable_group(self):
        g = group("IIIX", "ZZII", "IZZI")
        out = apply_lcperm(g, LCPerm("IIII", [0, 2, 3, 1]))
        assert out.generator_strings() == ["IXII", "ZIZI", "IIZZ"]

    def test_rejects_non_permutation(self):
        for image in ([0, 0, 1], [0, 1], [1, 2, 3]):
            with pytest.raises(ValueError):
                LCPerm("III", image)

    def test_rejects_non_int_image(self):
        # image entries are read as ints, never truncated: [1.9, 0.2] is
        # no swap
        with pytest.raises(TypeError):
            LCPerm([0, 0], [1.9, 0.2])
        with pytest.raises(TypeError):
            LCPerm("II", ["1", "0"])

    def test_rejects_other_qubit_count(self):
        with pytest.raises(ValueError, match="qubit counts differ"):
            apply_lcperm(group("XIZ"), LCPerm("II"))


class TestSemidirect:
    def test_identity_laws(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randrange(1, 6)
            g = random_stab_group(n, rng.randrange(n + 1), rng)
            for e in (LCPerm(["I"] * n), LCPerm([0] * n, range(n))):
                assert apply_lcperm(g, e).rows == g.rows
                assert lcperm_rows(e, g.rows) == list(g.rows)

    def test_action_property(self):
        # qubit j's letter moves to qubit image[j] and takes the letter
        # permutation listed there, on strings and on bare rows alike
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randrange(1, 6)
            g = random_stab_group(n, rng.randrange(n + 1), rng)
            a = random_lcperm(n, rng)
            expect = []
            for s in g.generator_strings():
                out = [""] * n
                for j, c in enumerate(s):
                    m = a.image[j]
                    out[m] = CODES[LETTER_PERMS[a.gates[m]][CODES.index(c)]]
                expect.append("".join(out))
            h = apply_lcperm(g, a)
            assert h.generator_strings() == expect
            assert tuple(lcperm_rows(a, g.rows)) == h.rows

    def test_action_invertible(self):
        # undo the letters where they now sit, then move the qubits back
        # along the inverted image
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randrange(1, 6)
            g = random_stab_group(n, rng.randrange(n + 1), rng)
            a = random_lcperm(n, rng)
            undo = LCPerm(
                LETTER_PERMS.index(inverted(LETTER_PERMS[i])) for i in a.gates
            )
            back = LCPerm([0] * n, inverted(a.image))
            out = apply_lcperm(apply_lcperm(apply_lcperm(g, a), undo), back)
            assert out.rows == g.rows

    def test_seeded_generation_reproducible(self):
        assert random_lcperm(5, 123) == random_lcperm(5, 123)
