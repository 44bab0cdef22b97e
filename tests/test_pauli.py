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

from stabdb.f2core import rank, span
from stabdb.pauli import (
    StabGroup,
    centralizer,
    format_pauli,
    logical_rows,
    parse_pauli,
    symplectic_product,
)

from util import packed_weight

_M = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def dense(row: int, n: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for letter in format_pauli(row, n):
        out = np.kron(out, _M[letter])
    return out


def all_paulis(n):
    for letters in itertools.product("IXYZ", repeat=n):
        yield parse_pauli("".join(letters))


class TestParse:
    def test_example(self):
        # x part in bits 0..2, z part in bits 3..5
        assert parse_pauli("XIZ", 3) == 0b001 | (0b100 << 3)

    def test_y_sets_both(self):
        assert parse_pauli("IY") == 0b10 | (0b10 << 2)

    def test_roundtrip(self):
        for s in ["IIII", "XYZI", "YYYY", "ZIXZ"]:
            assert format_pauli(parse_pauli(s), len(s)) == s

    def test_bad_letter(self):
        with pytest.raises(ValueError, match="position 2"):
            parse_pauli("XIQZ")

    def test_bad_length(self):
        with pytest.raises(ValueError):
            parse_pauli("XX", 3)

    def test_weight(self):
        assert packed_weight(parse_pauli("IXYZ"), 4) == 3
        assert packed_weight(parse_pauli("III"), 3) == 0


class TestSymplecticProduct:
    def test_anticommuting_pair(self):
        assert symplectic_product(parse_pauli("X"), parse_pauli("Z"), 1) == 1
        assert symplectic_product(parse_pauli("XX"), parse_pauli("ZI"), 2) == 1

    def test_commuting_pair(self):
        assert symplectic_product(parse_pauli("XX"), parse_pauli("ZZ"), 2) == 0
        assert symplectic_product(parse_pauli("XIZ"), parse_pauli("ZIX"), 3) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dense_oracle(self, n):
        ops = list(all_paulis(n))
        mats = [dense(p, n) for p in ops]
        for i, a in enumerate(ops):
            for j, b in enumerate(ops):
                commutes = np.allclose(mats[i] @ mats[j], mats[j] @ mats[i])
                assert symplectic_product(a, b, n) == (0 if commutes else 1)

    def test_product_is_xor(self):
        a, b = parse_pauli("XYI"), parse_pauli("ZYX")
        assert format_pauli(a ^ b, 3) == "YIX"


class TestStabGroup:
    def test_bell(self):
        g = StabGroup.from_strings(["XX", "ZZ"])
        assert g.n == 2 and g.k == 0 and g.r == 2

    def test_trivial(self):
        g = StabGroup.from_strings([], n=3)
        assert g.k == 3 and g.r == 0

    def test_rejects_dependent(self):
        with pytest.raises(ValueError, match="cannot be independent"):
            StabGroup.from_strings(["XX", "ZZ", "YY"])
        with pytest.raises(ValueError, match="generators are not independent"):
            StabGroup.from_strings(["XX", "XX"])

    def test_rejects_rows_out_of_range(self):
        # a row of 2n + 1 bits, or a negative one, fits no 2n columns
        for row in (0b10001, -1):
            with pytest.raises(ValueError, match="does not fit in 4 columns"):
                StabGroup(2, [row])
        # a row is an int: a float or a digit string is not read as one
        for row in (1.0, "1"):
            with pytest.raises(TypeError):
                StabGroup(2, [row])

    def test_rows_are_a_tuple_copied_when_built(self):
        rows = [parse_pauli("XX"), parse_pauli("ZZ")]
        g = StabGroup(2, rows)
        assert type(g.rows) is tuple and g.rows == tuple(rows)
        rows[0] = parse_pauli("YY")
        rows.append(parse_pauli("XI"))
        assert g.generator_strings() == ["XX", "ZZ"]

    def test_empty_list_needs_n(self):
        with pytest.raises(ValueError, match="cannot infer qubit count"):
            StabGroup.from_strings([])

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
        got = {format_pauli(row, 2) for row in span(g.rows)}
        assert got == {"II", "XX", "ZZ", "YY"}

    def test_trivial_span(self):
        g = StabGroup.from_strings([], n=2)
        assert span(g.rows) == [0]


class TestCentralizer:
    def test_zz_centralizer_exhaustive(self):
        # every 2-qubit Pauli commuting with ZZ, checked against brute force
        g = StabGroup.from_strings(["ZZ"])
        cent = centralizer(g)
        assert len(cent) == 3  # n + k = 2 + 1
        zz = parse_pauli("ZZ")
        members = set()
        for t in range(1 << len(cent)):
            v = 0
            for i in range(len(cent)):
                if (t >> i) & 1:
                    v ^= cent[i]
            members.add(v)
        expected = {p for p in all_paulis(2) if symplectic_product(p, zz, 2) == 0}
        assert members == expected

    def test_contains_group(self):
        g = StabGroup.from_strings(["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"])
        cent = centralizer(g)
        assert len(cent) == 6  # n + k = 5 + 1
        from stabdb.f2core import rref, reduce_row

        reduced, pivots = rref(cent, range(10))
        rows = reduced[: len(pivots)]
        for gen in g.rows:
            assert reduce_row(rows, gen) == 0
        # the logical ZZZZZ commutes with all four generators
        assert reduce_row(rows, parse_pauli("ZZZZZ")) == 0
        # a weight-1 operator does not (distance 3)
        assert reduce_row(rows, parse_pauli("ZIIII")) != 0

    def test_logical_rows_complete_the_group(self):
        # 2k centralizer rows, independent of each other and of the group
        g = StabGroup.from_strings(["XXXX", "ZZZZ"])
        logical = logical_rows(g)
        assert len(logical) == 2 * g.k
        assert rank([*g.rows, *logical]) == g.n + g.k
        for row in logical:
            assert not any(symplectic_product(row, s, g.n) for s in g.rows)
        assert logical_rows(StabGroup.from_strings(["XX", "ZZ"])) == []

    def test_trivial_group(self):
        g = StabGroup.from_strings([], n=2)
        assert centralizer(g) == (1, 2, 4, 8)


@st.composite
def pauli_pairs(draw):
    n = draw(st.integers(1, 6))
    a = draw(st.integers(0, (1 << (2 * n)) - 1))
    b = draw(st.integers(0, (1 << (2 * n)) - 1))
    return n, a, b


@settings(max_examples=200)
@given(pauli_pairs())
def test_symplectic_form_is_symmetric_bilinear(pair):
    n, a, b = pair
    assert symplectic_product(a, b, n) == symplectic_product(b, a, n)
    c = 0b101 % (1 << (2 * n))
    lhs = symplectic_product(a ^ b, c, n)
    rhs = symplectic_product(a, c, n) ^ symplectic_product(b, c, n)
    assert lhs == rhs
