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


def test_record_finds_least_stabilizer_weight_once(monkeypatch):
    # is_degenerate reads the weight enumerator, so the only least-weight
    # search left is the distance's walk over the centralizer
    calls = []
    inner = properties._least_weight

    def counted(rows, n, first):
        calls.append(first)
        return inner(rows, n, first)

    monkeypatch.setattr(properties, "_least_weight", counted)
    rec = record_from_group(StabGroup.from_strings(FIVE_QUBIT, 5), 0)
    assert not rec.is_degenerate
    assert calls == [1 << 4]


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
    # a byte that is not UTF-8, or a UTF-8-encoded surrogate, is named by
    # file and line like any other corrupt line
    lines = (directory / target.name).read_bytes().splitlines(keepends=True)
    for bad in (b"\xff", b"\xed\xa0\x80"):
        target.write_bytes(lines[0] + lines[1].replace(b'"X', b'"' + bad + b"X", 1))
        with pytest.raises(ValueError, match=r"codes_n3_k2\.jsonl:2: corrupt record: 'utf-8'"):
            read_db(tmp_path, 3, 2)
    # a well-formed record of another cell is named with both cells
    stray = (directory / "codes_n3_k1.jsonl").read_bytes().splitlines(keepends=True)[0]
    target.write_bytes(lines[0] + stray)
    with pytest.raises(ValueError) as caught:
        read_db(tmp_path, 3, 2)
    assert str(caught.value) == (
        f"{target}:2: record of cell (n=3, k=1) filed under cell (n=3, k=2)"
    )


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
    for name, wrong, message in (
        ("generators", ["XQ", "ZZ"], "bad generators: invalid Pauli letter"),
        ("weight_enumerator", [1, 0], "weight enumerator length"),
        ("canonical_key", "0g", "bad canonical key"),
    ):
        bad = CodeRecord.from_json(rec.to_json())
        setattr(bad, name, wrong)
        with pytest.raises(ValueError, match=rf"index=0\): {message}"):
            bad.validate()
    # |Aut| is a positive decimal in ASCII digits, with no leading zero
    for wrong in ("0", "00", "012", "\u00b2", "\u0661", "", "-1", "+1", " 12", "12\n", "1e3"):
        bad = CodeRecord.from_json(rec.to_json())
        bad.aut_group_size = wrong
        with pytest.raises(ValueError, match=r"index=0\): bad automorphism order$"):
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


# each field's JSON type and, for a list field, its entries' type, written
# out here so the checks below do not read the schema they test
FIELD_TYPES = {
    "n": (int, None),
    "k": (int, None),
    "d": (int, None),
    "index": (int, None),
    "generators": (list, str),
    "aut_group_size": (str, None),
    "is_css": (bool, None),
    "is_decomposable": (bool, None),
    "is_degenerate": (bool, None),
    "is_gf4linear": (bool, None),
    "is_even": (bool, None),
    "length": (int, None),
    "weight_enumerator": (list, int),
    "canonical_key": (str, None),
}
WRONG_JSON = ("1", 1, True, 1.5, None, [1], {"a": 1})


def walk_verdict(line: str):
    """None when a line is a record, else the error it gets: the decoder's
    message, "unexpected record fields" for anything but an object with
    the fields in order, or a field-by-field walk naming every mistyped
    field in field order."""
    try:
        obj = json.loads(line)
    except ValueError as exc:
        return str(exc)
    if type(obj) is not dict or list(obj) != FIELD_ORDER:
        return "unexpected record fields"
    bad = []
    for name in FIELD_ORDER:
        t, entry = FIELD_TYPES[name]
        value = obj[name]
        if type(value) is not t or (entry and any(type(v) is not entry for v in value)):
            bad.append(name)
    return f"wrong type for field(s) {', '.join(bad)}" if bad else None


def check_cases():
    """A good record, and (label, line) for it and for every way a line can
    miss the schema."""
    rec = record_from_group(StabGroup.from_strings(["XX", "ZZ"], 2), 0)
    good = json.loads(rec.to_json())
    cases = [("good", good)]
    for name in FIELD_ORDER:
        for wrong in WRONG_JSON:
            if type(wrong) is not type(good[name]):
                cases.append((f"{name}={wrong!r}", dict(good, **{name: wrong})))
    for name in ("generators", "weight_enumerator"):
        for wrong in WRONG_JSON:
            if type(wrong) is not FIELD_TYPES[name][1]:
                wrong_entry = dict(good, **{name: good[name] + [wrong]})
                cases.append((f"{name} entry {wrong!r}", wrong_entry))
    cases.append(("d and is_css", dict(good, d="1", is_css="yes")))
    cases.append(("every field", {name: None for name in FIELD_ORDER}))
    for name in FIELD_ORDER:
        cases.append((f"no {name}", {f: v for f, v in good.items() if f != name}))
    cases.append(("extra key", dict(good, extra=1)))
    cases.append(("extra key, mistyped d", dict(good, d="1", extra=1)))
    cases.append(("reversed", dict(reversed(list(good.items())))))
    for i in range(len(FIELD_ORDER) - 1):
        keys = FIELD_ORDER[:i] + [FIELD_ORDER[i + 1], FIELD_ORDER[i]] + FIELD_ORDER[i + 2 :]
        cases.append((f"swap {keys[i + 1]}, {keys[i]}", {f: good[f] for f in keys}))
    lines = [(label, json.dumps(obj, separators=(",", ":"))) for label, obj in cases]
    # lines that are no JSON object, or no JSON; an array of the field
    # names once passed the key check and crashed the type walk
    lines += [
        ("field names as an array", json.dumps(FIELD_ORDER)),
        ("array", "[1]"),
        ("empty array", "[]"),
        ("string", '"n"'),
        ("number", "1"),
        ("true", "true"),
        ("null", "null"),
        ("blank", ""),
        ("broken", "{broken"),
    ]
    return good, lines


def test_one_comparison_check_agrees_with_field_walk(tmp_path):
    """from_json, read_db and validate() accept exactly the lines the
    field-by-field walk accepts, and reject the rest with its message."""
    good, lines = check_cases()
    good_line = json.dumps(good, separators=(",", ":"))
    path = tmp_path / "codes_n2_k0.jsonl"
    for label, line in lines:
        want = walk_verdict(line)
        if want is None:
            assert CodeRecord.from_json(line).to_json() == line, label
        else:
            with pytest.raises(ValueError) as caught:
                CodeRecord.from_json(line)
            assert str(caught.value) == want, label
        path.write_text(good_line + "\n" + line + "\n")
        if want is None:
            assert len(read_db(tmp_path, 2, 0)) == 2, label
        else:
            with pytest.raises(ValueError) as caught:
                read_db(tmp_path, 2, 0)
            # the file line keeps its newline, which moves a decode error
            read = walk_verdict(line + "\n")
            assert str(caught.value) == f"{path}:2: corrupt record: {read}", label
        # validate() checks the types of a record holding these fields the
        # same way (test_validate_checks_reordered_and_extra_fields has the
        # key cases)
        if want is not None and not want.startswith("wrong type"):
            continue
        rec = CodeRecord.__new__(CodeRecord)
        rec.__dict__ = json.loads(line)
        if want is None:
            rec.validate()
            continue
        with pytest.raises(ValueError) as caught:
            rec.validate()
        where = f"record (n={rec.n}, k={rec.k}, index={rec.index})"
        assert str(caught.value) == f"{where}: {want}", label


def test_validate_checks_reordered_and_extra_fields(tmp_path):
    # validate() compares the attribute names a record object holds with
    # the schema as a set: reordered ones pass, and a missing or an extra
    # one raises ValueError naming the record and each such field, so
    # write_db refuses the record before it reads a missing field
    good, lines = check_cases()
    for label, line in lines:
        if not label.startswith(("swap", "reversed", "extra key", "no ")):
            continue
        rec = CodeRecord.__new__(CodeRecord)
        rec.__dict__ = json.loads(line)
        if label.startswith(("extra key", "no ")):
            missing = [f for f in FIELD_ORDER if f not in rec.__dict__]
            want = "missing field(s) {}; unexpected field(s) {}".format(
                ", ".join(missing) or "none", "extra" if "extra" in label else "none"
            )
            where = "record (n={}, k={}, index={})".format(
                *map(rec.__dict__.get, ("n", "k", "index"))
            )
            with pytest.raises(ValueError) as caught:
                rec.validate()
            assert str(caught.value) == f"{where}: {want}", label
            with pytest.raises(ValueError) as caught:
                write_db({(2, 0): [rec]}, tmp_path)
            assert str(caught.value) == f"{where}: {want}", label
        else:
            rec.validate()
            rec.d, rec.is_css = "1", "yes"
            with pytest.raises(ValueError, match=r"index=0\): .* field\(s\) (d, is_css|is_css, d)$"):
                rec.validate()
    rec = CodeRecord.__new__(CodeRecord)
    rec.__dict__ = dict(good, more=1, extra=2)
    del rec.d, rec.length
    with pytest.raises(ValueError, match=r"index=0\): missing field\(s\) d, length; "
                       r"unexpected field\(s\) more, extra$"):
        rec.validate()


def test_database_cells(db3):
    directory, _ = db3
    assert Database(directory).cells() == [(3, k) for k in range(4)]


def test_database_cells_ignore_stray_files(db3, tmp_path):
    # a backup next to the cells, or a name write_db never gives, is no cell
    directory, _ = db3
    for path in directory.glob("*.jsonl"):
        shutil.copy(path, tmp_path / path.name)
    for name in ("codes_n3_k1_old.jsonl", "codes_n03_k1.jsonl", "codes_n3_k1.jsonl.bak"):
        shutil.copy(directory / "codes_n3_k1.jsonl", tmp_path / name)
    assert Database(tmp_path).cells() == [(3, k) for k in range(4)]


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


@pytest.mark.parametrize(
    "filters, field", [({"d": True}, "d"), ({"is_css": 1}, "is_css"), ({"n": "2"}, "n")]
)
def test_query_rejects_mistyped_filter(filters, field):
    # bool is not int, nor int bool, nor str int, as on the read path
    with pytest.raises(ValueError, match=rf"wrong type for field\(s\) {field}$"):
        Query(**filters)


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


def _corrupt_copy(directory, tmp_path):
    """A copy of the n = 3 database whose first k = 0 record has generators
    of the wrong rank, in the same JSON shape."""
    for path in directory.glob("*.jsonl"):
        shutil.copy(path, tmp_path / path.name)
    target = tmp_path / "codes_n3_k0.jsonl"
    lines = target.read_text().splitlines()
    obj = json.loads(lines[0])
    obj["generators"] = ["XII"]
    lines[0] = json.dumps(obj, separators=(",", ":"))
    target.write_text("".join(line + "\n" for line in lines))
    return tmp_path


def test_warm_queries_validate_each_record_once(db3, monkeypatch):
    directory, records = db3
    seen = []
    validate = CodeRecord.validate

    def counted(rec):
        seen.append(id(rec))
        validate(rec)

    monkeypatch.setattr(CodeRecord, "validate", counted)
    db = Database(directory)
    first = query(db, Query())
    assert len(seen) == len(first) == sum(map(len, records.values()))
    for q in (Query(), Query(n=3, k=1), Query(is_css=True), Query(d=2)):
        query(db, q)
    assert sorted(seen) == sorted(map(id, first))
    # a fresh Database validates its own records again
    query(Database(directory), Query(n=3, k=1))
    assert len(seen) == len(first) + 5


def test_failed_validation_raises_on_every_query(db3, tmp_path):
    db = Database(_corrupt_copy(db3[0], tmp_path))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"index=0\): generators have rank 1"):
            query(db, Query(n=3, k=0))
    # the records after the bad one are still reachable, and checked
    assert [h.index for h in query(db, Query(n=3, k=0, index=1))] == [1]


def test_info_only_query_does_not_mark_records_checked(db3, tmp_path):
    db = Database(_corrupt_copy(db3[0], tmp_path))
    assert len(query(db, Query(n=3, k=0, info_only=True))) == 3
    with pytest.raises(ValueError, match="rank"):
        query(db, Query(n=3, k=0))


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
    with pytest.raises(ValueError, match="need n >= 0, got n = -1"):
        emit_distributions(Database(tmp_path), -1)
