"""Pauli parsing, symplectic form, spans, centralizers.

The symplectic product is cross-checked against a dense matrix oracle: each
phase-free Pauli is realized as a complex 2^n x 2^n matrix and commutation
is read off the actual commutator.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabdb.f2core import BitMatrix, rank
from stabdb.pauli import (
    PauliOp,
    StabGroup,
    centralizer,
    format_pauli,
    logical_rows,
    parse_pauli,
    span_elements,
    span_rows,
    symplectic_product,
)

_M = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def dense(p: PauliOp) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for j in range(p.n):
        out = np.kron(out, _M[p.letter(j)])
    return out


def all_paulis(n):
    for letters in itertools.product("IXYZ", repeat=n):
        yield parse_pauli("".join(letters))


class TestParse:
    def test_example(self):
        p = parse_pauli("XIZ", 3)
        assert list(p.x) == [1, 0, 0]
        assert list(p.z) == [0, 0, 1]

    def test_y_sets_both(self):
        p = parse_pauli("IY")
        assert p.x.bits == 0b10 and p.z.bits == 0b10

    def test_roundtrip(self):
        for s in ["IIII", "XYZI", "YYYY", "ZIXZ"]:
            assert format_pauli(parse_pauli(s)) == s

    def test_bad_letter(self):
        with pytest.raises(ValueError, match="position 2"):
            parse_pauli("XIQZ")

    def test_bad_length(self):
        with pytest.raises(ValueError):
            parse_pauli("XX", 3)

    def test_weight(self):
        assert parse_pauli("IXYZ").weight() == 3
        assert parse_pauli("III").weight() == 0


class TestSymplecticProduct:
    def test_anticommuting_pair(self):
        assert symplectic_product(parse_pauli("X"), parse_pauli("Z")) == 1
        assert symplectic_product(parse_pauli("XX"), parse_pauli("ZI")) == 1

    def test_commuting_pair(self):
        assert symplectic_product(parse_pauli("XX"), parse_pauli("ZZ")) == 0
        assert symplectic_product(parse_pauli("XIZ"), parse_pauli("ZIX")) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dense_oracle(self, n):
        ops = list(all_paulis(n))
        mats = [dense(p) for p in ops]
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                commutes = np.allclose(mats[i] @ mats[j], mats[j] @ mats[i])
                assert symplectic_product(a, b) == (0 if commutes else 1)

    def test_product_is_xor(self):
        a, b = parse_pauli("XYI"), parse_pauli("ZYX")
        assert format_pauli(a * b) == "YIX"


class TestStabGroup:
    def test_bell(self):
        g = StabGroup.from_strings(["XX", "ZZ"])
        assert g.n == 2 and g.k == 0 and g.r == 2

    def test_trivial(self):
        g = StabGroup.from_strings([], n=3)
        assert g.k == 3 and g.r == 0

    def test_rejects_dependent(self):
        with pytest.raises(ValueError, match="independent"):
            StabGroup.from_strings(["XX", "ZZ", "YY"])

    def test_rejects_anticommuting(self):
        with pytest.raises(ValueError, match="anticommute"):
            StabGroup.from_strings(["XI", "ZI"])

    @pytest.mark.parametrize("strings", [["XX", "Z"], ["X", "ZZ"]])
    def test_rejects_mixed_lengths(self, strings):
        # the first string fixes n; a shorter or longer one is named
        with pytest.raises(ValueError, match="expected .* letters"):
            StabGroup.from_strings(strings)

    def test_same_group_basis_independent(self):
        a = StabGroup.from_strings(["XX", "ZZ"])
        b = StabGroup.from_strings(["YY", "ZZ"])
        assert a.same_group(b)
        c = StabGroup.from_strings(["XI", "IX"])
        assert not a.same_group(c)


class TestSpan:
    def test_bell_span(self):
        g = StabGroup.from_strings(["XX", "ZZ"])
        got = {format_pauli(p) for p in span_elements(g)}
        assert got == {"II", "XX", "ZZ", "YY"}

    def test_gray_order_steps_by_one_generator(self):
        g = StabGroup.from_strings(["ZZI", "IZZ", "XXX"])
        rows = span_rows(g)
        assert rows[0] == 0
        assert len(set(rows)) == 8
        gens = set(g.gens.rows)
        for a, b in zip(rows, rows[1:]):
            assert a ^ b in gens

    def test_trivial_span(self):
        g = StabGroup.from_strings([], n=2)
        assert [p.packed() for p in span_elements(g)] == [0]


class TestCentralizer:
    def test_zz_centralizer_exhaustive(self):
        # every 2-qubit Pauli commuting with ZZ, checked against brute force
        g = StabGroup.from_strings(["ZZ"])
        cent = centralizer(g)
        assert cent.nrows == 3  # n + k = 2 + 1
        zz = parse_pauli("ZZ")
        members = set()
        for t in range(1 << cent.nrows):
            v = 0
            for i in range(cent.nrows):
                if (t >> i) & 1:
                    v ^= cent.rows[i]
            members.add(v)
        expected = {
            p.packed() for p in all_paulis(2) if symplectic_product(p, zz) == 0
        }
        assert members == expected

    def test_contains_group(self):
        g = StabGroup.from_strings(["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"])
        cent = centralizer(g)
        assert cent.nrows == 6  # n + k = 5 + 1
        from stabdb.f2core import rref, reduce_row

        reduced, pivots, _ = rref(cent)
        rows = reduced.rows[: len(pivots)]
        for gen in g.gens.rows:
            assert reduce_row(rows, pivots, gen) == 0
        # the logical ZZZZZ commutes with all four generators
        assert reduce_row(rows, pivots, parse_pauli("ZZZZZ").packed()) == 0
        # a weight-1 operator does not (distance 3)
        assert reduce_row(rows, pivots, parse_pauli("ZIIII").packed()) != 0

    def test_logical_rows_complete_the_group(self):
        # 2k centralizer rows, independent of each other and of the group
        g = StabGroup.from_strings(["XXXX", "ZZZZ"])
        logical = logical_rows(g)
        assert len(logical) == 2 * g.k
        assert rank(BitMatrix(2 * g.n, list(g.gens.rows) + logical)) == g.n + g.k
        for row in logical:
            p = PauliOp.from_packed(g.n, row)
            assert not any(symplectic_product(p, s) for s in g.generators())
        assert logical_rows(StabGroup.from_strings(["XX", "ZZ"])) == []

    def test_trivial_group(self):
        g = StabGroup.from_strings([], n=2)
        assert centralizer(g).nrows == 4


@st.composite
def pauli_pairs(draw):
    n = draw(st.integers(1, 6))
    a = draw(st.integers(0, (1 << (2 * n)) - 1))
    b = draw(st.integers(0, (1 << (2 * n)) - 1))
    return PauliOp.from_packed(n, a), PauliOp.from_packed(n, b)


@settings(max_examples=200)
@given(pauli_pairs())
def test_symplectic_form_is_symmetric_bilinear(pair):
    a, b = pair
    assert symplectic_product(a, b) == symplectic_product(b, a)
    ab = a * b
    c = PauliOp.from_packed(a.n, 0b101 % (1 << (2 * a.n)))
    lhs = symplectic_product(ab, c)
    rhs = symplectic_product(a, c) ^ symplectic_product(b, c)
    assert lhs == rhs
