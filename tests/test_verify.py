"""Counting identities and the mass certification of enumerated cells."""

import itertools

import pytest

from stabdb.canon import aut_size
from stabdb.f2core import _rank_of_rows
from stabdb.pauli import StabGroup, symplectic_product
from stabdb.search import _rref_matrices, enumerate_classes
from stabdb.verify import gaussian_coeff, lcperm_order, mass_check, nlp_count


def test_gaussian_examples():
    assert gaussian_coeff(2, 1) == 3
    assert gaussian_coeff(4, 2) == 35
    assert gaussian_coeff(5, 2) == 155
    for n in range(6):
        assert gaussian_coeff(n, 0) == 1
        assert gaussian_coeff(n, n) == 1
    assert gaussian_coeff(3, 4) == 0
    assert gaussian_coeff(3, -1) == 0


def test_gaussian_symmetry_and_brute_count():
    for n in range(1, 6):
        for k in range(n + 1):
            assert gaussian_coeff(n, k) == gaussian_coeff(n, n - k)
    # one echelon matrix per subspace
    for n, k in [(3, 1), (4, 2), (4, 3)]:
        assert len(list(_rref_matrices(n, k))) == gaussian_coeff(n, k)


def test_lcperm_order():
    assert lcperm_order(1) == 6
    assert lcperm_order(2) == 72
    assert lcperm_order(3) == 1296


def test_nlp_examples():
    assert nlp_count(1, 0) == 3
    assert nlp_count(1, 1) == 1
    assert nlp_count(2, 1) == 15
    assert nlp_count(2, 0) == 15
    assert nlp_count(3, 2) == 63
    assert nlp_count(3, 0) == 135
    for n in range(1, 7):
        assert nlp_count(n, n) == 1
    assert nlp_count(3, 5) == 0


def _brute_group_count(n, r):
    """Count rank-r phase-free stabilizer groups by scanning row subsets."""
    rows = list(range(1, 1 << (2 * n)))
    spans = set()
    for combo in itertools.combinations(rows, r):
        if _rank_of_rows(list(combo)) != r:
            continue
        if any(
            symplectic_product(a, b, n)
            for a, b in itertools.combinations(combo, 2)
        ):
            continue
        span = [0]
        for g in combo:
            span += [g ^ s for s in span]
        spans.add(frozenset(span))
    return len(spans)


def test_nlp_matches_brute_force():
    assert _brute_group_count(1, 0) == 1
    assert _brute_group_count(1, 1) == 3
    assert _brute_group_count(2, 1) == 15
    assert _brute_group_count(2, 2) == 15


def test_mass_check_on_enumeration():
    for n in (2, 3):
        res = enumerate_classes(n)
        for k in range(n + 1):
            cell = [(e.key, aut_size(e.rep)) for e in res[(n, k)]]
            lhs, rhs, ok = mass_check(cell, n, k)
            assert ok and lhs == rhs == nlp_count(n, k)


def test_mass_check_detects_missing_class():
    res = enumerate_classes(2)
    cell = [(e.key, aut_size(e.rep)) for e in res[(2, 1)]]
    lhs, rhs, ok = mass_check(cell[:-1], 2, 1)
    assert not ok and lhs < rhs


def test_mass_check_bell_pair_split():
    # the 15 maximal groups on 2 qubits split into orbits of 6 and 9
    bell = StabGroup.from_strings(["XX", "ZZ"], 2)
    prod = StabGroup.from_strings(["ZI", "IZ"], 2)
    assert aut_size(bell) == 12
    assert aut_size(prod) == 8
    lhs, rhs, ok = mass_check(
        [(b"a", 12), (b"b", 8)], 2, 0
    )
    assert (lhs, rhs, ok) == (15, 15, True)


def test_mass_check_rejects_bad_aut():
    with pytest.raises(ValueError):
        mass_check([(b"x", 7)], 2, 1)
    with pytest.raises(ValueError):
        mass_check([(b"x", 0)], 2, 1)
