"""Extension search, graph orbits, and codeword-search cross checks."""

import hashlib
import random
import tracemalloc

import pytest

from stabdb.canon import class_key
from stabdb.f2core import BitMatrix, span
from stabdb import search
from stabdb.pauli import StabGroup, logical_rows
from stabdb.properties import decompose
from stabdb.search import (
    GraphState,
    _rref_matrices,
    cws_enumerate,
    cws_to_stabilizer,
    enumerate_classes,
    extend_class,
    graphstate_orbits,
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


def test_enumerate_refuses_negative_n():
    with pytest.raises(ValueError, match="need n >= 0, got n = -1"):
        enumerate_classes(-1)


def test_entry_order_and_indices():
    for entries in enumerate_classes(3).values():
        keys = [e.key for e in entries]
        assert keys == sorted(keys)


def _full_walk(rep):
    """Generator rows of every coset extension of rep, in Gray-code order:
    the unpruned walk that extend_class selects from."""
    cosets = logical_rows(rep)
    out, cur = [], 0
    for t in range(1, 1 << len(cosets)):
        cur ^= cosets[(t & -t).bit_length() - 1]
        out.append((*rep.rows, cur))
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
        rows = [ext.rows for ext in exts]
        full = _full_walk(g)
        # a subsequence of the full walk, same rows in the same order
        it = iter(full)
        assert all(any(row == f for f in it) for row in rows)
        first = {}
        for f in full:
            key = class_key(StabGroup(g.n, f))
            first.setdefault(key, f)
        assert {class_key(ext) for ext in exts} == set(first)
        assert all(f in rows for f in first.values())
        base = set(span(g.rows))
        seen = set()
        for ext in exts:
            assert ext.r == g.r + 1
            elements = frozenset(span(ext.rows))
            assert base <= elements
            assert elements not in seen  # distinct groups, not just classes
            seen.add(elements)


def test_extension_work_counts(monkeypatch):
    # one class_key per orbit of extensions that contains no group of an
    # earlier class, plus one for the trivial group
    calls = []
    monkeypatch.setattr(
        search,
        "class_key",
        lambda g, known=(): calls.append(g) or class_key(g, known),
    )
    for n, want in ((4, 45), (5, 196)):
        calls.clear()
        enumerate_classes(n)
        assert len(calls) == want, n


def _unfiltered_census(n):
    """The census loop with no index: every extend_class orbit searched."""
    trivial = StabGroup.from_strings([], n)
    level = [search.ClassEntry(class_key(trivial), trivial)]
    out = {(n, n): level}
    for k in range(n - 1, -1, -1):
        level = search._transversal(
            cand for entry in level for cand in extend_class(entry.rep)
        )
        out[(n, k)] = level
    return out


def _cells(classes):
    return {
        cell: [(e.key, e.rep.rows) for e in entries]
        for cell, entries in classes.items()
    }


def test_dropped_extensions_change_no_cell():
    # keys, representative rows and their order (the indexes) of the
    # unfiltered loop
    for n in range(6):
        assert _cells(enumerate_classes(n)) == _cells(_unfiltered_census(n)), n


def test_dropped_extensions_are_found_classes(monkeypatch):
    # an extension is dropped only when its class, searched afresh, is
    # already in the found dict its level hands class_key
    live = {}

    def keyed(g, known=()):
        live["found"] = known
        return class_key(g, known)

    filtered = search.extend_class
    counts = {}

    def extend(rep, known=({}, ()), position=0, orbits=None):
        out = filtered(rep, known, position, orbits)
        kept = [g.rows for g in out]
        walk = [g.rows for g in filtered(rep)]
        it = iter(walk)
        assert all(any(rows == w for w in it) for rows in kept)  # subsequence
        dropped = [rows for rows in walk if rows not in kept]
        for rows in dropped:
            fresh = StabGroup(rep.n, rows)
            assert class_key(fresh) in live["found"]
        kept_n, dropped_n = counts.get(rep.n, (0, 0))
        counts[rep.n] = (kept_n + len(kept), dropped_n + len(dropped))
        return out

    monkeypatch.setattr(search, "class_key", keyed)
    monkeypatch.setattr(search, "extend_class", extend)
    for n in range(1, 6):
        enumerate_classes(n)
    assert counts[4] == (44, 45) and counts[5] == (195, 249)


def test_extend_maximal_group_rejected():
    with pytest.raises(ValueError):
        extend_class(StabGroup.from_strings(["Z"], 1))


def test_extend_class_coset_tables_are_small():
    # each automorphism generator keeps two 2^k-entry tables, not one of
    # 2^(2k): the 20 generators of the trivial 7-qubit group peaked at
    # about 13 MiB with 16,384-entry tables
    g = StabGroup.from_strings([], 7)
    tracemalloc.start()
    try:
        assert len(extend_class(g)) == 7
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024 * 1024


GRAPH_ORBIT_COUNTS = {1: 1, 2: 2, 3: 3, 4: 6, 5: 11, 6: 26}


def test_graphstate_orbit_counts():
    for n, want in GRAPH_ORBIT_COUNTS.items():
        assert len(graphstate_orbits(n)) == want
    # the graph on no vertices: its group is the one class at n = 0
    assert graphstate_orbits(0) == [GraphState(BitMatrix(0, []))]
    with pytest.raises(ValueError, match="need n >= 0"):
        graphstate_orbits(-1)


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
    with pytest.raises(ValueError, match="must be symmetric"):
        GraphState(BitMatrix(2, [0b10, 0b00]))
    with pytest.raises(ValueError, match="diagonal must be zero"):
        GraphState(BitMatrix(2, [0b01, 0b10]))
    with pytest.raises(ValueError, match="must be square"):
        GraphState(BitMatrix(3, [0b010, 0b001]))


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


def test_cws_and_decompose_outputs_pinned(full_enumeration):
    """One digest over the graph-state form and the tensor split of every
    class representative up to n = 5 and of seeded random groups up to
    n = 10: the adjacency and word rows, the trivial qubits, and each
    factor's qubits and RREF generator rows."""
    groups = [
        e.rep
        for n in range(1, 6)
        for entries in full_enumeration[n]["classes"].values()
        for e in entries
    ]
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(1, 10)
        groups.append(random_stab_group(n, rng.randint(0, n), rng))
    digest = hashlib.sha256()
    for g in groups:
        gs, words = stabilizer_to_cws(g)
        rep = decompose(g)
        factors = [(q, list(f.canonical_gens())) for q, f in rep.factors]
        out = (gs.adjacency.rows, words.rows, rep.trivial_qubits, factors)
        digest.update(repr(out).encode() + b"\n")
    assert digest.hexdigest() == (
        "d48bd90fe97c8faf7cc811a52e7d55c5cc7e253886ee576eaa8f775b32b36bc4"
    )


def test_rref_matrix_counts():
    # gaussian binomials [n k]_2
    for n, k, want in [(3, 1, 7), (4, 2, 35), (4, 4, 1), (5, 0, 1), (5, 1, 31)]:
        mats = list(_rref_matrices(n, k))
        assert len(mats) == want
        for m in mats:
            assert len(m.rows) == k


def test_cws_enumerate_counts():
    assert len(cws_enumerate(4)[(4, 2)]) == 11
    assert len(cws_enumerate(2)[(2, 0)]) == 2


def test_cws_matches_iterative():
    res = enumerate_classes(3)
    cws = cws_enumerate(3)
    assert sorted(cws) == sorted(res)
    for k in range(4):
        got = {e.key for e in cws[(3, k)]}
        assert got == {e.key for e in res[(3, k)]}
