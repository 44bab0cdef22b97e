"""End-to-end acceptance gates for the classification pipeline.

Each test pins one released guarantee: exact class counts with runtime
budgets, the mass-formula certification, distance and automorphism
fingerprints of landmark classes, CSS and GF(4) classifications, the
two-strategy cross check, and invariance/oracle fuzz batteries.
"""

import hashlib
import random

import pytest

from stabdb.canon import class_key
from stabdb.db import build_records, write_db
from stabdb.f2core import BitMatrix, kernel, rank, rref
from stabdb.properties import decompose
from stabdb.search import cws_enumerate, enumerate_classes, graphstate_orbits
from stabdb.transform import apply_lcperm
from stabdb.verify import mass_check, nlp_count

from reference_data import (
    CLASS_COUNTS,
    GF4_INDECOMPOSABLE_ROWS,
    GF4_NKD_COUNTS,
    INDECOMP_CSS_NKD_COUNTS,
    INDECOMP_NKD_COUNTS,
    INDECOMPOSABLE_COUNTS,
    TOTAL_CLASS_COUNTS,
    TOTAL_INDECOMPOSABLE_COUNTS,
)
from util import brute_distance, random_lcperm, random_stab_group, reembed


def _counts(classes, n):
    return tuple(len(classes[(n, k)]) for k in range(n + 1))


def test_class_counts_up_to_five(full_enumeration):
    for n in range(1, 6):
        counts = _counts(full_enumeration[n]["classes"], n)
        assert counts == CLASS_COUNTS[n]
        assert sum(counts) == TOTAL_CLASS_COUNTS[n]
    assert _counts(full_enumeration[3]["classes"], 3) == (3, 5, 3, 1)
    assert _counts(full_enumeration[4]["classes"], 4) == (6, 13, 11, 4, 1)
    assert _counts(full_enumeration[5]["classes"], 5) == (11, 36, 40, 19, 5, 1)
    assert sum(full_enumeration[n]["seconds"] for n in range(1, 6)) < 60.0


# sha256 of codes_n{n}_k0..n.jsonl concatenated in k order; a change here
# is a declared format change
GOLDEN_DB_DIGESTS = {
    5: "dd945050475c9d6238052b37711c92be1028a59511b3f521f071bdda5400f591",
    6: "0b55e1e2152b46679f888985b59118542d197868e07979bf5806e07019908634",
}
N7_DB_DIGEST = "bc77bcc8cf53ba2a976d12fe21c203028ee3b255c024d4a08593bfecde6b8bac"


def test_database_digests(full_enumeration, tmp_path):
    for n, digest in GOLDEN_DB_DIGESTS.items():
        out = tmp_path / f"n{n}"
        write_db(full_enumeration[n]["records"], out)
        h = hashlib.sha256()
        for k in range(n + 1):
            h.update((out / f"codes_n{n}_k{k}.jsonl").read_bytes())
        assert h.hexdigest() == digest, n


def test_class_counts_n6(full_enumeration):
    data = full_enumeration[6]
    counts = _counts(data["classes"], 6)
    assert counts == (26, 115, 185, 109, 32, 6, 1)
    assert sum(counts) == 474
    per_k = tuple(
        sum(1 for r in data["records"][(6, k)] if not r.is_decomposable)
        for k in range(7)
    )
    # the trivial [[6,6]] class is decomposable, so the reference row
    # stops at k = 5
    assert per_k == INDECOMPOSABLE_COUNTS[6] + (0,)
    assert sum(per_k) == TOTAL_INDECOMPOSABLE_COUNTS[6] == 245
    assert data["seconds"] < 900.0


def test_indecomposable_counts_small(full_enumeration):
    for n in range(1, 6):
        per_k = tuple(
            sum(
                1
                for r in full_enumeration[n]["records"][(n, k)]
                if not r.is_decomposable
            )
            for k in range(n + 1)
        )
        width = len(INDECOMPOSABLE_COUNTS[n])
        assert per_k[:width] == INDECOMPOSABLE_COUNTS[n]
        assert all(c == 0 for c in per_k[width:])
        assert sum(per_k) == TOTAL_INDECOMPOSABLE_COUNTS[n]


def test_mass_certification(full_enumeration):
    for n in range(1, 7):
        for k in range(n + 1):
            pairs = [
                (r.canonical_key, int(r.aut_group_size))
                for r in full_enumeration[n]["records"][(n, k)]
            ]
            lhs, rhs, ok = mass_check(pairs, n, k)
            assert ok, (n, k, lhs, rhs)
            assert rhs == nlp_count(n, k)


def test_distance_refinement_fingerprints(full_enumeration):
    hits = [r for r in full_enumeration[5]["records"][(5, 1)] if r.d == 3]
    assert len(hits) == 1
    assert hits[0].weight_enumerator == [1, 0, 0, 0, 15, 0]
    assert hits[0].aut_group_size == "360"

    hits = [
        r
        for r in full_enumeration[6]["records"][(6, 1)]
        if r.d == 3 and not r.is_decomposable
    ]
    assert len(hits) == 1
    assert hits[0].aut_group_size == "96"
    assert hits[0].weight_enumerator == [1, 0, 1, 0, 11, 16, 3]

    hits = [r for r in full_enumeration[6]["records"][(6, 0)] if r.d == 4]
    assert len(hits) == 1
    assert hits[0].aut_group_size == "2160"


def test_five_zero_record_fingerprint(full_enumeration):
    # a published sample record for a maximal 5-qubit class: distance 2,
    # |Aut| = 32, CSS, indecomposable, enumerator 1+2x^2+8x^3+13x^4+8x^5
    hits = [
        r
        for r in full_enumeration[5]["records"][(5, 0)]
        if r.weight_enumerator == [1, 0, 2, 8, 13, 8]
    ]
    assert len(hits) == 1
    rec = hits[0]
    assert rec.d == 2
    assert rec.aut_group_size == "32"
    assert rec.is_css and not rec.is_decomposable


def test_indecomposable_nkd_distribution(full_enumeration):
    got = {}
    for n in range(1, 7):
        for (m, k), recs in full_enumeration[n]["records"].items():
            for r in recs:
                if k >= 1 and r.d >= 2 and not r.is_decomposable:
                    got[(m, k, r.d)] = got.get((m, k, r.d), 0) + 1
    want = {cell: c for cell, c in INDECOMP_NKD_COUNTS.items() if cell[0] <= 6}
    assert got == want


def test_css_flags(full_enumeration):
    hits = [r for r in full_enumeration[4]["records"][(4, 2)] if r.d == 2]
    assert len(hits) == 1 and hits[0].is_css

    hits = [
        r
        for r in full_enumeration[4]["records"][(4, 1)]
        if r.weight_enumerator == [1, 0, 0, 4, 3]
    ]
    assert len(hits) == 1 and not hits[0].is_css

    got = {}
    for n in range(1, 7):
        for (m, k), recs in full_enumeration[n]["records"].items():
            for r in recs:
                if k >= 1 and r.d >= 2 and r.is_css and not r.is_decomposable:
                    got[(m, k, r.d)] = got.get((m, k, r.d), 0) + 1
    want = {
        cell: c for cell, c in INDECOMP_CSS_NKD_COUNTS.items() if cell[0] <= 6
    }
    assert got == want
    assert want[(4, 1, 2)] == 1 and want[(4, 2, 2)] == 1
    assert want[(5, 1, 2)] == 3 and want[(5, 2, 2)] == 1
    assert (want[(6, 1, 2)], want[(6, 2, 2)], want[(6, 3, 2)], want[(6, 4, 2)]) \
        == (12, 10, 2, 1)


def test_gf4_linear_classes(full_enumeration):
    fingerprints = []
    histogram = {}
    for n in range(1, 7):
        for (m, k), recs in full_enumeration[n]["records"].items():
            for r in recs:
                if not r.is_gf4linear:
                    continue
                assert r.n % 2 == r.k % 2  # parity invariant
                histogram[(m, k, r.d)] = histogram.get((m, k, r.d), 0) + 1
                if not r.is_decomposable:
                    fingerprints.append((r.n, r.k, r.d, int(r.aut_group_size)))
    assert sorted(fingerprints) == sorted(
        (n, k, d, aut) for n, k, d, aut, _ in GF4_INDECOMPOSABLE_ROWS
    )
    assert sorted(aut for *_, aut in fingerprints) == sorted(
        (12, 144, 360, 2160, 288, 4320)
    )
    assert histogram == GF4_NKD_COUNTS


def test_cross_strategy_agreement(full_enumeration):
    for n in range(6):
        classes = full_enumeration[n]["classes"] if n else enumerate_classes(0)
        got = {cell: [e.key for e in entries] for cell, entries in cws_enumerate(n).items()}
        assert got == {cell: [e.key for e in entries] for cell, entries in classes.items()}


def test_graphstate_orbits_are_the_k0_cell(full_enumeration):
    # one graph per k = 0 class, in key order, each group in graph form
    for n in range(1, 7):
        orbits = graphstate_orbits(n)
        cell = full_enumeration[n]["classes"][(n, 0)]
        assert [class_key(gs.stabilizer()) for gs in orbits] == [e.key for e in cell]
        for gs in orbits:
            rows = gs.stabilizer().rows
            assert [row & ((1 << n) - 1) for row in rows] == [1 << j for j in range(n)]
            assert [row >> n for row in rows] == gs.adjacency.rows


def test_canonical_key_invariance_1000(full_enumeration):
    rng = random.Random(99)
    pool = [
        (e.rep, e.key)
        for n in range(1, 7)
        for entries in full_enumeration[n]["classes"].values()
        for e in entries
    ]
    for _ in range(1000):
        g, key = pool[rng.randrange(len(pool))]
        t = random_lcperm(g.n, rng)
        assert class_key(apply_lcperm(g, t)) == key


def test_distance_brute_oracle(full_enumeration):
    for n in range(1, 4):
        for (m, k), entries in full_enumeration[n]["classes"].items():
            recs = full_enumeration[n]["records"][(m, k)]
            for entry, rec in zip(entries, recs):
                assert rec.d == brute_distance(entry.rep)


def test_rank_nullity_and_rref_idempotence():
    rng = random.Random(4242)
    for _ in range(200):
        ncols = rng.randrange(1, 12)
        nrows = rng.randrange(0, 14)
        m = BitMatrix(
            ncols, [rng.randrange(1 << ncols) for _ in range(nrows)]
        )
        reduced, pivots = rref(m)
        assert rank(m.rows) == len(pivots)
        assert len(kernel(m).rows) == ncols - rank(m.rows)
        nonzero = [row for row in reduced.rows if row]
        again, pivots2 = rref(BitMatrix(ncols, nonzero))
        assert pivots2 == pivots
        assert again.rows == nonzero


def test_decompose_roundtrip_all_classes(full_enumeration):
    for n in range(1, 6):
        for entries in full_enumeration[n]["classes"].values():
            for e in entries:
                assert reembed(decompose(e.rep), e.rep.n).same_group(e.rep)


def test_decompose_roundtrip_fuzz():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(1, 7)
        g = random_stab_group(n, rng.randrange(n + 1), rng)
        rebuilt = reembed(decompose(g), n)
        assert class_key(rebuilt) == class_key(g)


@pytest.mark.slow
def test_n7_stretch(tmp_path):
    classes = enumerate_classes(7)
    counts = tuple(len(classes[(7, k)]) for k in range(8))
    assert counts == CLASS_COUNTS[7]
    assert sum(counts) == 2757

    orbits = graphstate_orbits(7)
    assert len(orbits) == 59
    assert [class_key(gs.stabilizer()) for gs in orbits] == [e.key for e in classes[(7, 0)]]

    records = build_records(classes)
    write_db(records, tmp_path)
    h = hashlib.sha256()
    for k in range(8):
        h.update((tmp_path / f"codes_n7_k{k}.jsonl").read_bytes())
    assert h.hexdigest() == N7_DB_DIGEST

    hits = [r for r in records[(7, 1)] if r.d == 3 and not r.is_decomposable]
    assert len(hits) == 16
    steane = [r for r in hits if r.aut_group_size == "1008"]
    assert len(steane) == 1
    assert steane[0].weight_enumerator == [1, 0, 0, 0, 21, 0, 42, 0]
