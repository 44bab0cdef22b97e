"""Extension search, graph orbits, and codeword-search cross checks."""

import random

import pytest

from stabdb.canon import class_key
from stabdb.f2core import BitMatrix
from stabdb import search
from stabdb.pauli import StabGroup, logical_rows, span_rows
from stabdb.search import (
    GraphState,
    _rref_matrices,
    cws_enumerate,
    cws_to_stabilizer,
    enumerate_classes,
    extend_class,
    graphstate_orbits,
    parent_child_edges,
    stabilizer_to_cws,
)

from util import random_stab_group


def _counts(result, n):
    return tuple(len(result[(n, k)]) for k in range(n + 1))


def test_enumerate_small_counts():
    assert _counts(enumerate_classes(1), 1) == (1, 1)
    assert _counts(enumerate_classes(2), 2) == (2, 2, 1)
    assert _counts(enumerate_classes(3), 3) == (3, 5, 3, 1)


def test_enumerate_kmin_cutoff():
    res = enumerate_classes(3, k_min=2)
    assert sorted(res) == [(3, 2), (3, 3)]
    assert len(res[(3, 2)]) == 3
    with pytest.raises(ValueError):
        enumerate_classes(3, k_min=4)


def test_entry_order_and_indices():
    for entries in enumerate_classes(3).values():
        keys = [e.key for e in entries]
        assert keys == sorted(keys)
        assert [e.index for e in entries] == list(range(len(entries)))


def _full_walk(rep):
    """Generator rows of every coset extension of rep, in Gray-code order:
    the unpruned walk that extend_class selects from."""
    cosets = logical_rows(rep)
    out, cur = [], 0
    for t in range(1, 1 << len(cosets)):
        cur ^= cosets[(t & -t).bit_length() - 1]
        out.append(list(rep.gens.rows) + [cur])
    return out


def test_trivial_extensions_single_class():
    # X, Y and Z form one orbit: only the Gray-first coset X is kept
    exts = extend_class(StabGroup.from_strings([], 1))
    assert [g.generator_strings() for g in exts] == [["X"]]


def test_zz_extensions_two_classes():
    # cosets XX, XY (one orbit: S on qubit 1 fixes ZZ) and IZ
    rep = StabGroup.from_strings(["ZZ"], 2)
    exts = extend_class(rep)
    assert len(_full_walk(rep)) == 3
    assert [g.generator_strings() for g in exts] == [["ZZ", "XX"], ["ZZ", "IZ"]]
    assert len({class_key(g) for g in exts}) == 2


def test_extend_class_shape():
    rng = random.Random(7)
    groups = [random_stab_group(n, r, rng) for n in range(1, 5) for r in range(n)]
    groups += [
        random_stab_group(n, rng.randrange(0, n), rng)
        for n in (rng.randrange(1, 5) for _ in range(12))
    ]
    for g in groups:
        exts = extend_class(g)
        rows = [ext.gens.rows for ext in exts]
        full = _full_walk(g)
        # a subsequence of the full walk, same rows in the same order
        it = iter(full)
        assert all(any(row == f for f in it) for row in rows)
        first = {}
        for f in full:
            key = class_key(StabGroup(g.n, BitMatrix(2 * g.n, f)))
            first.setdefault(key, f)
        assert {class_key(ext) for ext in exts} == set(first)
        assert all(f in rows for f in first.values())
        base = set(span_rows(g))
        seen = set()
        for ext in exts:
            assert ext.r == g.r + 1
            span = frozenset(span_rows(ext))
            assert base <= span
            assert span not in seen  # distinct groups, not just classes
            seen.add(span)


def test_extension_work_counts(monkeypatch):
    # one class_key per orbit of extensions, plus one for the trivial group
    calls = []
    monkeypatch.setattr(
        search, "class_key", lambda g: calls.append(g) or class_key(g)
    )
    for n, want in ((4, 90), (5, 445)):
        calls.clear()
        enumerate_classes(n)
        assert len(calls) == want, n


def test_extend_maximal_group_rejected():
    with pytest.raises(ValueError):
        extend_class(StabGroup.from_strings(["Z"], 1))


GRAPH_ORBIT_COUNTS = {1: 1, 2: 2, 3: 3, 4: 6, 5: 11, 6: 26}


def test_graphstate_orbit_counts():
    for n, want in GRAPH_ORBIT_COUNTS.items():
        assert len(graphstate_orbits(n)) == want
    assert graphstate_orbits(0) == []


def test_graphstate_orbits_match_group_classes():
    # orbit reps must hit each equivalence class of maximal groups exactly
    # once: every graph's group key appears among the reps' keys
    for n in (2, 3, 4):
        rep_keys = {class_key(gs.stabilizer()) for gs in graphstate_orbits(n)}
        assert len(rep_keys) == GRAPH_ORBIT_COUNTS[n]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        all_keys = set()
        for code in range(1 << len(pairs)):
            rows = [0] * n
            for t, (i, j) in enumerate(pairs):
                if (code >> t) & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            gs = GraphState(BitMatrix(n, rows))
            all_keys.add(class_key(gs.stabilizer()))
        assert all_keys == rep_keys


def test_graphstate_validation():
    with pytest.raises(ValueError):
        GraphState(BitMatrix(2, [0b01, 0b00]))  # asymmetric
    with pytest.raises(ValueError):
        GraphState(BitMatrix(2, [0b01, 0b10]))  # diagonal entry
    with pytest.raises(ValueError):
        GraphState(BitMatrix(3, [0b010, 0b001]))  # not square


def test_single_edge_graph_group():
    gs = GraphState(BitMatrix(2, [0b10, 0b01]))
    assert gs.stabilizer().same_group(StabGroup.from_strings(["XZ", "ZX"], 2))


def test_cws_to_stabilizer_bell_words():
    # single-edge graph with code {11}: the only commuting combination is
    # the product of both graph generators
    gs = GraphState(BitMatrix(2, [0b10, 0b01]))
    g = cws_to_stabilizer(gs, BitMatrix(2, [0b11]))
    assert g.r == 1
    assert g.same_group(StabGroup.from_strings(["YY"], 2))


def test_cws_to_stabilizer_rejects_dependent_rows():
    gs = GraphState(BitMatrix(2, [0b10, 0b01]))
    with pytest.raises(ValueError):
        cws_to_stabilizer(gs, BitMatrix(2, [0b11, 0b11]))
    with pytest.raises(ValueError):
        cws_to_stabilizer(gs, BitMatrix(3, [0b1]))


def test_bell_group_to_cws():
    gp, words = stabilizer_to_cws(StabGroup.from_strings(["XX", "ZZ"], 2))
    assert gp.adjacency.rows == [0b10, 0b01]  # the single-edge graph
    assert words.rows == []


def test_five_qubit_roundtrip():
    g = StabGroup.from_strings(["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"], 5)
    gs, words = stabilizer_to_cws(g)
    assert len(words.rows) == 1
    back = cws_to_stabilizer(gs, words)
    assert class_key(back) == class_key(g)


def test_cws_roundtrip_fuzz():
    rng = random.Random(20240817)
    for _ in range(40):
        n = rng.randrange(1, 6)
        r = rng.randrange(0, n + 1)
        g = random_stab_group(n, r, rng)
        gs, words = stabilizer_to_cws(g)
        assert len(words.rows) == g.k
        back = cws_to_stabilizer(gs, words)
        assert back.r == g.r
        assert class_key(back) == class_key(g)


def test_rref_matrix_counts():
    # gaussian binomials [n k]_2
    for n, k, want in [(3, 1, 7), (4, 2, 35), (4, 4, 1), (5, 0, 1), (5, 1, 31)]:
        mats = list(_rref_matrices(n, k))
        assert len(mats) == want
        for m in mats:
            assert len(m.rows) == k


def test_cws_enumerate_counts():
    assert len(cws_enumerate(4, 2)) == 11
    assert len(cws_enumerate(2, 0)) == 2


def test_cws_matches_iterative():
    res = enumerate_classes(3)
    for k in range(4):
        got = {e.key for e in cws_enumerate(3, k)}
        assert got == {e.key for e in res[(3, k)]}


def test_parent_child_edges_small():
    res = enumerate_classes(2)
    top = parent_child_edges(res[(2, 2)], res[(2, 1)])
    root = res[(2, 2)][0].key
    assert top == sorted((root, c.key) for c in res[(2, 1)])
    mid = parent_child_edges(res[(2, 1)], res[(2, 0)])
    # every child class is reachable from some parent
    assert {c for _, c in mid} == {e.key for e in res[(2, 0)]}
    assert {p for p, _ in mid} == {e.key for e in res[(2, 1)]}


def test_parent_child_edges_missing_child():
    res = enumerate_classes(2)
    with pytest.raises(ValueError):
        parent_child_edges(res[(2, 1)], res[(2, 0)][:0])
