"""Record schema, file round trips, queries, and distribution output."""

import json
import shutil

import pytest

from stabdb import db, properties
from stabdb.canon import class_key
from stabdb.db import (
    CodeRecord,
    Database,
    Query,
    build_records,
    emit_distributions,
    query,
    read_db,
    record_from_group,
    write_db,
)
from stabdb.pauli import StabGroup
from stabdb.search import enumerate_classes

FIVE_QUBIT = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]

FIELD_ORDER = [
    "n",
    "k",
    "d",
    "index",
    "generators",
    "aut_group_size",
    "is_css",
    "is_decomposable",
    "is_degenerate",
    "is_gf4linear",
    "is_even",
    "length",
    "weight_enumerator",
    "canonical_key",
]


@pytest.fixture(scope="module")
def db3(tmp_path_factory):
    records = build_records(enumerate_classes(3))
    directory = tmp_path_factory.mktemp("db3")
    write_db(records, directory)
    return directory, records


def test_five_qubit_record():
    rec = record_from_group(StabGroup.from_strings(FIVE_QUBIT, 5), 0)
    assert (rec.n, rec.k, rec.d, rec.index) == (5, 1, 3, 0)
    assert rec.weight_enumerator == [1, 0, 0, 0, 15, 0]
    assert rec.aut_group_size == "360"
    assert rec.is_gf4linear and rec.is_even
    assert not rec.is_css and not rec.is_decomposable and not rec.is_degenerate
    assert rec.length == 1
    assert bytes.fromhex(rec.canonical_key) == class_key(rec.group())


def test_record_runs_distance_once(monkeypatch):
    calls = []
    for module in (db, properties):
        inner = module.distance

        def counted(g, inner=inner):
            calls.append(g)
            return inner(g)

        monkeypatch.setattr(module, "distance", counted)
    rec = record_from_group(StabGroup.from_strings(FIVE_QUBIT, 5), 0)
    assert rec.d == 3
    assert len(calls) == 1


def test_record_json_shape():
    rec = record_from_group(StabGroup.from_strings(["XX", "ZZ"], 2), 3)
    line = rec.to_json()
    assert line == line.strip()
    obj = json.loads(line)
    assert list(obj) == FIELD_ORDER
    assert obj["aut_group_size"] == "12"  # decimal string, not an int
    assert CodeRecord.from_json(line).to_json() == line


def test_from_json_rejects_shuffled_fields():
    rec = record_from_group(StabGroup.from_strings(["Z"], 1), 0)
    obj = json.loads(rec.to_json())
    reordered = json.dumps(dict(reversed(list(obj.items()))))
    with pytest.raises(ValueError):
        CodeRecord.from_json(reordered)


def test_write_read_roundtrip_bit_identical(db3):
    directory, records = db3
    for (n, k), recs in records.items():
        text = (directory / f"codes_n{n}_k{k}.jsonl").read_text()
        assert text == "".join(r.to_json() + "\n" for r in recs)
        back = read_db(directory, n, k)
        assert [r.to_json() for r in back] == [r.to_json() for r in recs]
        assert [r.index for r in back] == list(range(len(recs)))


def test_empty_cell_still_writes_file(tmp_path):
    paths = write_db({(2, 0): []}, tmp_path)
    assert paths == [tmp_path / "codes_n2_k0.jsonl"]
    assert paths[0].read_text() == ""
    assert read_db(tmp_path, 2, 0) == []


def test_write_db_validation_errors(tmp_path):
    good = record_from_group(StabGroup.from_strings(["XX", "ZZ"], 2), 0)
    bad = CodeRecord.from_json(good.to_json())
    bad.generators = ["XX"]  # rank no longer matches n - k
    with pytest.raises(ValueError, match=r"n=2, k=0, index=0"):
        write_db({(2, 0): [bad]}, tmp_path)
    with pytest.raises(ValueError, match="filed under"):
        write_db({(2, 1): [good]}, tmp_path)


def test_read_db_corrupt_line(db3, tmp_path):
    directory, _ = db3
    target = tmp_path / "codes_n3_k2.jsonl"
    shutil.copy(directory / "codes_n3_k2.jsonl", target)
    with open(target, "a", encoding="utf-8") as handle:
        handle.write("{broken\n")
    with pytest.raises(ValueError, match=r"codes_n3_k2\.jsonl:4"):
        read_db(tmp_path, 3, 2)


def test_record_field_types(db3, tmp_path):
    rec = record_from_group(StabGroup.from_strings(["XX", "ZZ"], 2), 0)
    obj = json.loads(rec.to_json())
    for name, value in obj.items():
        for wrong in ("1", 1, True, [1], None):
            if type(wrong) is type(value):
                continue
            line = json.dumps(dict(obj, **{name: wrong}))
            with pytest.raises(ValueError, match=rf"field\(s\) {name}$"):
                CodeRecord.from_json(line)
    # list fields are checked entry by entry
    for name, wrong in (
        ("generators", ["XX", 1]),
        ("weight_enumerator", [1, 0, "3"]),
        ("weight_enumerator", [1, 0, True]),
    ):
        line = json.dumps(dict(obj, **{name: wrong}))
        with pytest.raises(ValueError, match=rf"field\(s\) {name}$"):
            CodeRecord.from_json(line)
    bad = CodeRecord.from_json(rec.to_json())
    bad.d, bad.is_css = "1", "yes"
    with pytest.raises(ValueError, match=r"index=0\): .* d, is_css$"):
        bad.validate()
    bad = CodeRecord.from_json(rec.to_json())
    bad.generators = [1, 2]
    with pytest.raises(ValueError, match=r"index=0\): .* generators$"):
        bad.validate()
    # read_db names the file and line of a mistyped record
    directory, _ = db3
    target = tmp_path / "codes_n3_k1.jsonl"
    lines = (directory / target.name).read_text().splitlines()
    obj = json.loads(lines[1])
    obj["d"] = str(obj["d"])
    lines[1] = json.dumps(obj, separators=(",", ":"))
    target.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ValueError, match=r"codes_n3_k1\.jsonl:2: .* d$"):
        read_db(tmp_path, 3, 1)


def test_database_cells(db3):
    directory, _ = db3
    assert Database(directory).cells() == [(3, k) for k in range(4)]


def test_query_conjunctive_and_ordered(db3):
    directory, records = db3
    db = Database(directory)
    hits = query(db, Query(n=3, k=1))
    assert [h.index for h in hits] == list(range(5))
    hits = query(db, Query(n=3, k=0, d=2))
    assert len(hits) == 1 and not hits[0].is_decomposable
    assert query(db, Query(d=9)) == []
    lone = query(db, Query(n=3, k=2, index=1))
    assert len(lone) == 1 and lone[0].index == 1
    for hit in query(db, Query(is_even=True)):
        assert all(c == 0 for c in hit.weight_enumerator[1::2])


def test_query_rejects_unknown_filter():
    with pytest.raises(ValueError, match="unrecognized filter"):
        Query.from_filters(distance=3)


def test_query_info_only_skips_validation(db3, tmp_path):
    directory, _ = db3
    for path in directory.glob("*.jsonl"):
        shutil.copy(path, tmp_path / path.name)
    target = tmp_path / "codes_n3_k0.jsonl"
    lines = target.read_text().splitlines()
    obj = json.loads(lines[0])
    obj["generators"] = ["XII"]  # wrong rank, same JSON shape
    lines[0] = json.dumps(obj, separators=(",", ":"))
    target.write_text("".join(line + "\n" for line in lines))
    db = Database(tmp_path)
    assert len(query(db, Query(n=3, k=0, info_only=True))) == 3
    with pytest.raises(ValueError, match="rank"):
        query(Database(tmp_path), Query(n=3, k=0))


def test_stored_generators_recanonicalize(db3):
    directory, _ = db3
    db = Database(directory)
    for n, k in db.cells():
        for rec in db.records(n, k):
            assert class_key(rec.group()).hex() == rec.canonical_key


def test_emit_distributions(db3):
    directory, _ = db3
    csv = emit_distributions(Database(directory), 3)
    lines = csv.splitlines()
    assert lines[0] == "n,k,d,count,count_indecomposable"
    assert "3,0,2,1,1" in lines  # the 3-qubit maximal class of distance 2
    assert sum(int(line.split(",")[3]) for line in lines[1:]) == 12


def test_emit_distributions_small_cells(tmp_path):
    records = build_records(enumerate_classes(2))
    write_db(records, tmp_path)
    csv = emit_distributions(Database(tmp_path), 2)
    assert "2,0,2,1,1" in csv.splitlines()


def test_emit_distributions_incomplete(db3, tmp_path):
    directory, _ = db3
    shutil.copy(
        directory / "codes_n3_k0.jsonl", tmp_path / "codes_n3_k0.jsonl"
    )
    with pytest.raises(ValueError, match="incomplete"):
        emit_distributions(Database(tmp_path), 3)
