"""Packed GF(2) linear algebra: fixed examples plus algebraic fuzz."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabdb.f2core import kernel, rank, reduce_row, rref, span

from util import matmul


def rref_with_transform(rows, ncols, columns=None):
    """rref of ncols-wide rows with its row transform, read off an identity
    block placed above their columns, which no listed column reaches."""
    tagged = [row | 1 << (ncols + i) for i, row in enumerate(rows)]
    full, pivots = rref(tagged, range(ncols) if columns is None else columns)
    mask = (1 << ncols) - 1
    reduced = tuple(row & mask for row in full)
    transform = tuple(row >> ncols for row in full)
    return reduced, pivots, transform


def bits_to_int(s):
    """'1100' with coordinate 0 leftmost -> packed int."""
    v = 0
    for j, ch in enumerate(s):
        if ch == "1":
            v |= 1 << j
    return v


class TestRank:
    def test_dependent_triple(self):
        # 1100, 0110 and their sum 1010 span a 2-dimensional space
        rows = [bits_to_int("1100"), bits_to_int("0110"), bits_to_int("1010")]
        assert rank(rows) == 2

    def test_identity(self):
        assert rank([0b001, 0b010, 0b100]) == 3

    def test_zero(self):
        assert rank([0, 0]) == 0
        assert rank([]) == 0


class TestRref:
    def test_example(self):
        m = [bits_to_int("1100"), bits_to_int("0110"), bits_to_int("1010")]
        reduced, pivots, transform = rref_with_transform(m, 4)
        assert (reduced, pivots) == rref(m, range(4))
        assert pivots == [0, 1]
        assert reduced[2] == 0
        # transform certifies the reduction
        assert matmul(transform, m) == reduced
        assert rank(transform) == 3

    def test_pivot_columns_are_unit(self):
        m = [0b10110, 0b01101, 0b11011]
        reduced, pivots = rref(m, range(5))
        for i, p in enumerate(pivots):
            col = [(row >> p) & 1 for row in reduced]
            assert col == [1 if j == i else 0 for j in range(len(reduced))]

    def test_column_order(self):
        m = [bits_to_int("1100"), bits_to_int("0110"), bits_to_int("0011")]
        reduced, pivots, transform = rref_with_transform(m, 4, [3, 1])
        assert (reduced, pivots) == rref(m, [3, 1])
        # pivots come in the listed order; an unlisted column never pivots
        assert pivots == [3, 1]
        assert reduced == (
            bits_to_int("0011"),
            bits_to_int("0110"),
            bits_to_int("1010"),
        )
        assert matmul(transform, m) == reduced
        assert rank(transform) == 3


class TestKernel:
    def test_single_parity(self):
        # kernel of the all-ones row = even-weight vectors, dimension 2
        ker = kernel([0b111], 3)
        assert len(ker) == 2
        for row in ker:
            assert bin(row).count("1") % 2 == 0

    def test_full_rank_trivial_kernel(self):
        assert kernel([0b01, 0b10], 2) == ()

    def test_out_of_range_rejected(self):
        # a row with a bit at or above ncols, or a negative row, does not
        # fit; a row that is no int is refused, not truncated
        with pytest.raises(ValueError, match="does not fit"):
            kernel([0b100], 2)
        with pytest.raises(ValueError, match="does not fit"):
            kernel([-1], 2)
        with pytest.raises(TypeError):
            kernel([1.5], 2)
        with pytest.raises(TypeError):
            kernel(["1"], 2)


class TestReduceRow:
    def test_membership(self):
        m = [bits_to_int("1100"), bits_to_int("0110")]
        reduced, pivots = rref(m, range(4))
        rows = reduced[: len(pivots)]
        assert reduce_row(rows, bits_to_int("1010")) == 0
        assert reduce_row(rows, bits_to_int("1000")) != 0


@st.composite
def matrices(draw, max_dim=8):
    ncols = draw(st.integers(1, max_dim))
    nrows = draw(st.integers(0, max_dim))
    rows = draw(
        st.lists(st.integers(0, (1 << ncols) - 1), min_size=nrows, max_size=nrows)
    )
    return rows, ncols


@settings(max_examples=200)
@given(matrices())
def test_rank_nullity(m):
    rows, ncols = m
    assert rank(rows) + len(kernel(rows, ncols)) == ncols


@settings(max_examples=200)
@given(matrices())
def test_rref_idempotent(m):
    rows, ncols = m
    reduced, pivots = rref(rows, range(ncols))
    again, pivots2 = rref(reduced, range(ncols))
    assert again == reduced
    assert pivots2 == pivots
    assert len(pivots) == rank(rows)


@settings(max_examples=200)
@given(matrices())
def test_rref_transform_invertible(m):
    rows, ncols = m
    reduced, pivots, transform = rref_with_transform(rows, ncols)
    assert (reduced, pivots) == rref(rows, range(ncols))
    assert matmul(transform, rows) == reduced
    assert rank(transform) == len(rows)


@settings(max_examples=200)
@given(matrices(), st.randoms(use_true_random=False))
def test_rref_column_order(m, rnd):
    rows, ncols = m
    order = rnd.sample(range(ncols), rnd.randint(0, ncols))
    reduced, pivots, transform = rref_with_transform(rows, ncols, order)
    assert (reduced, pivots) == rref(rows, order)
    assert matmul(transform, rows) == reduced
    assert rank(transform) == len(rows)
    assert pivots == [c for c in order if c in pivots]
    for i, p in enumerate(pivots):
        col = [(row >> p) & 1 for row in reduced]
        assert col == [1 if j == i else 0 for j in range(len(reduced))]
    # rows past the pivots vanish on every listed column
    for row in reduced[len(pivots):]:
        assert not any((row >> c) & 1 for c in order)


@settings(max_examples=200)
@given(matrices())
def test_span_entries(m):
    rows, _ = m
    elements = span(rows)
    assert len(elements) == 1 << len(rows)
    for u, v in enumerate(elements):
        want = 0
        for i, row in enumerate(rows):
            if (u >> i) & 1:
                want ^= row
        assert v == want


@settings(max_examples=200)
@given(matrices(), st.data())
def test_reduce_row_membership(m, data):
    # an echelon basis built one row at a time, each row reduced against
    # the ones before it; v is tested against the span by brute force
    rows, ncols = m
    basis = []
    for row in rows:
        res = reduce_row(basis, row)
        if res:
            basis.append(res)
    assert len(basis) == rank(rows)
    elements = span(rows)
    v = data.draw(st.integers(0, (1 << ncols) - 1) | st.sampled_from(elements))
    assert (reduce_row(basis, v) == 0) == (v in elements)


@settings(max_examples=200)
@given(matrices())
def test_kernel_annihilates(m):
    rows, ncols = m
    for krow in kernel(rows, ncols):
        for mrow in rows:
            assert (krow & mrow).bit_count() % 2 == 0
