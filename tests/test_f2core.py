"""Packed GF(2) linear algebra: fixed examples plus algebraic fuzz."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabdb.f2core import BitMatrix, BitVec, kernel, rank, reduce_row, rref

from util import matmul


def mat(ncols, *rows):
    return BitMatrix(ncols, rows)


def bits_to_int(s):
    """'1100' with coordinate 0 leftmost -> packed int."""
    v = 0
    for j, ch in enumerate(s):
        if ch == "1":
            v |= 1 << j
    return v


class TestBitVec:
    def test_roundtrip(self):
        v = BitVec.from_bits([1, 0, 1, 1])
        assert v.n == 4
        assert list(v) == [1, 0, 1, 1]
        assert v.bits == 0b1101

    def test_weight(self):
        assert BitVec(5, 0).weight() == 0
        assert BitVec.from_bits([1, 1, 0, 1]).weight() == 3

    def test_xor(self):
        a = BitVec.from_bits([1, 1, 0])
        b = BitVec.from_bits([0, 1, 1])
        assert (a ^ b) == BitVec.from_bits([1, 0, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BitVec(3, 0) ^ BitVec(4, 0)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            BitVec(2, 0b100)


class TestRank:
    def test_dependent_triple(self):
        # 1100, 0110 and their sum 1010 span a 2-dimensional space
        m = mat(4, bits_to_int("1100"), bits_to_int("0110"), bits_to_int("1010"))
        assert rank(m) == 2

    def test_identity(self):
        m = mat(3, 0b001, 0b010, 0b100)
        assert rank(m) == 3

    def test_zero(self):
        assert rank(mat(4, 0, 0)) == 0
        assert rank(BitMatrix(4, [])) == 0


class TestRref:
    def test_example(self):
        m = mat(4, bits_to_int("1100"), bits_to_int("0110"), bits_to_int("1010"))
        reduced, pivots, transform = rref(m)
        assert pivots == [0, 1]
        assert reduced.rows[2] == 0
        # transform certifies the reduction
        assert matmul(transform, m) == reduced

    def test_pivot_columns_are_unit(self):
        m = mat(5, 0b10110, 0b01101, 0b11011)
        reduced, pivots, _ = rref(m)
        for i, p in enumerate(pivots):
            col = [(row >> p) & 1 for row in reduced.rows]
            assert col == [1 if j == i else 0 for j in range(reduced.nrows)]


class TestKernel:
    def test_single_parity(self):
        # kernel of the all-ones row = even-weight vectors, dimension 2
        m = mat(3, 0b111)
        ker = kernel(m)
        assert ker.nrows == 2
        for row in ker.rows:
            assert bin(row).count("1") % 2 == 0

    def test_full_rank_trivial_kernel(self):
        m = mat(2, 0b01, 0b10)
        assert kernel(m).nrows == 0


class TestReduceRow:
    def test_membership(self):
        m = mat(4, bits_to_int("1100"), bits_to_int("0110"))
        reduced, pivots, _ = rref(m)
        rows = reduced.rows[: len(pivots)]
        assert reduce_row(rows, pivots, bits_to_int("1010")) == 0
        assert reduce_row(rows, pivots, bits_to_int("1000")) != 0


@st.composite
def matrices(draw, max_dim=8):
    ncols = draw(st.integers(1, max_dim))
    nrows = draw(st.integers(0, max_dim))
    rows = draw(
        st.lists(st.integers(0, (1 << ncols) - 1), min_size=nrows, max_size=nrows)
    )
    return BitMatrix(ncols, rows)


@settings(max_examples=200)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel(m).nrows == m.ncols


@settings(max_examples=200)
@given(matrices())
def test_rref_idempotent(m):
    reduced, pivots, _ = rref(m)
    again, pivots2, _ = rref(reduced)
    assert again == reduced
    assert pivots2 == pivots
    assert len(pivots) == rank(m)


@settings(max_examples=200)
@given(matrices())
def test_rref_transform_invertible(m):
    reduced, _, transform = rref(m)
    assert matmul(transform, m) == reduced
    assert rank(transform) == m.nrows


@settings(max_examples=200)
@given(matrices())
def test_kernel_annihilates(m):
    ker = kernel(m)
    for krow in ker.rows:
        for mrow in m.rows:
            assert (krow & mrow).bit_count() % 2 == 0
