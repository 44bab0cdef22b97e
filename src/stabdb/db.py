"""Flat-file class database: fixed-schema JSON lines, one file per (n, k).

Records carry every per-class invariant so queries never recompute them;
the generator list pins a concrete representative and re-canonicalizes to
the stored key.  Files are plain UTF-8 text sorted by index, so database
diffs are line diffs.
"""

import json
import os
import re
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import get_args, get_origin

from .canon import canonical_form
from .pauli import StabGroup
from .properties import (
    css_rank_test,
    css_representative,
    decompose,
    distance,
    gf4_representative,
    is_degenerate,
    is_even,
    weight_enumerator,
)


@dataclass
class CodeRecord:
    """One class: parameters, a representative, and its invariants.

    The field list is the record schema: its order is the JSON key order
    and its types are checked on every read (bool is not int, and list
    fields are checked entry by entry).  A well-formed record passes that
    check with one comparison of its key and type tuples; the field-by-field
    walk runs only to name the fields of a record that fails it.
    """

    n: int
    k: int
    d: int
    index: int
    generators: list[str]
    aut_group_size: str
    is_css: bool
    is_decomposable: bool
    is_degenerate: bool
    is_gf4linear: bool
    is_even: bool
    length: int
    weight_enumerator: list[int]
    canonical_key: str

    def group(self) -> StabGroup:
        return StabGroup.from_strings(self.generators, self.n)

    def validate(self):
        """Check field names, types and internal consistency; raises naming
        the record.  The attributes may come in any order."""
        values = vars(self)
        try:
            if tuple(values) != _FIELD_ORDER or not _schema_typed(values):
                missing = [name for name in _FIELD_ORDER if name not in values]
                extra = [name for name in values if name not in _SCHEMA]
                if missing or extra:
                    raise ValueError(
                        f"missing field(s) {', '.join(missing) or 'none'}; "
                        f"unexpected field(s) {', '.join(extra) or 'none'}"
                    )
                _check_types(values)
            try:
                g = self.group()
            except ValueError as exc:
                raise ValueError(f"bad generators: {exc}") from exc
            if g.r != self.n - self.k:
                raise ValueError(f"generators have rank {g.r}")
            if len(self.weight_enumerator) != self.n + 1:
                raise ValueError("weight enumerator length")
            if not _AUT_ORDER.fullmatch(self.aut_group_size):
                raise ValueError("bad automorphism order")
            try:
                bytes.fromhex(self.canonical_key)
            except ValueError as exc:
                raise ValueError("bad canonical key") from exc
        except ValueError as exc:
            n, k, index = map(values.get, ("n", "k", "index"))
            raise ValueError(f"record (n={n}, k={k}, index={index}): {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(
            {name: getattr(self, name) for name in _FIELD_ORDER},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "CodeRecord":
        obj = json.loads(line)
        if type(obj) is not dict or tuple(obj) != _FIELD_ORDER:
            raise ValueError("unexpected record fields")
        if not _schema_typed(obj):
            _check_types(obj)
        # The checked mapping holds every field in order, so it becomes the
        # record's attribute dict as is: reads are the db layer's hot path.
        rec = cls.__new__(cls)
        rec.__dict__ = obj
        return rec


# {name: (value type, entry type of a list field or None)}, in JSON key order
_SCHEMA = {
    f.name: (get_origin(f.type) or f.type, next(iter(get_args(f.type)), None))
    for f in fields(CodeRecord)
}
_FIELD_ORDER = tuple(_SCHEMA)
_TYPES = tuple(t for t, _ in _SCHEMA.values())
_ENTRY_TYPES = tuple((name, {entry}) for name, (_, entry) in _SCHEMA.items() if entry)
# a positive decimal in ASCII digits, no leading zero: what int() reads back
_AUT_ORDER = re.compile(r"[1-9][0-9]*")


def _schema_typed(values: dict) -> bool:
    """Whether a mapping of every field, in _FIELD_ORDER, has the schema
    types: one type-tuple comparison and one set test per list field.  It
    accepts exactly the records _check_types accepts, so that walk runs
    only to name the fields of a record this rejects."""
    if tuple(map(type, values.values())) != _TYPES:
        return False
    for name, entry in _ENTRY_TYPES:
        if not entry.issuperset(map(type, values[name])):
            return False
    return True


def _check_types(values: dict):
    """Raise unless every value in the mapping of field names has its schema
    type (bool is not int, list entries included), naming each field that
    does not.  Records hold every field; query filters hold only theirs."""
    bad = []
    for name, value in values.items():
        t, entry = _SCHEMA[name]
        if type(value) is not t or (entry and any(type(v) is not entry for v in value)):
            bad.append(name)
    if bad:
        raise ValueError(f"wrong type for field(s) {', '.join(bad)}")


def invariants(g: StabGroup) -> dict:
    """Every stored invariant except the canonical key and |Aut|, keyed by
    record field name in the order ``stabdb props`` prints them; records and
    ``stabdb props`` both read this table."""
    report = decompose(g)
    d = distance(g)
    weights = weight_enumerator(g).coeffs
    return {
        "d": d,
        "length": report.length,
        "is_css": css_rank_test(g) or css_representative(g) is not None,
        "is_decomposable": report.decomposable,
        "is_degenerate": is_degenerate(g, d, weights),
        "is_gf4linear": gf4_representative(g) is not None,
        "is_even": is_even(g),
        "weight_enumerator": list(weights),
    }


def record_from_group(g: StabGroup, index: int) -> CodeRecord:
    """Compute every stored invariant of one class representative."""
    key, aut = canonical_form(g)
    return CodeRecord(
        n=g.n,
        k=g.k,
        index=index,
        generators=g.generator_strings(),
        aut_group_size=str(aut.size),
        canonical_key=key.hex(),
        **invariants(g),
    )


def build_records(classes: dict) -> dict:
    """Map {(n, k): [ClassEntry]} to {(n, k): [CodeRecord]}, indexed by position."""
    return {
        cell: [record_from_group(e.rep, index) for index, e in enumerate(entries)]
        for cell, entries in classes.items()
    }


def _cell_name(n: int, k: int) -> str:
    return f"codes_n{n}_k{k}.jsonl"


# exactly the names _cell_name gives, so no other file is taken for a cell
_CELL_NAME = re.compile(r"codes_n(0|[1-9][0-9]*)_k(0|[1-9][0-9]*)\.jsonl")


def write_db(records: dict, directory) -> list:
    """Write one codes_n{n}_k{k}.jsonl file per cell of records.

    Cells with an empty record list still produce a (zero-line) file.
    Records are validated and sorted by index before writing.  Returns
    the written paths.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for cell in sorted(records):
        for rec in records[cell]:
            rec.validate()
            if (rec.n, rec.k) != cell:
                raise ValueError(
                    f"record (n={rec.n}, k={rec.k}, index={rec.index}) "
                    f"filed under cell {cell}"
                )
        cell_records = sorted(records[cell], key=lambda rec: rec.index)
        path = directory / _cell_name(*cell)
        text = "".join(rec.to_json() + "\n" for rec in cell_records)
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def read_db(directory, n: int, k: int) -> list:
    """Records of one cell, in file (= index) order; a line that is not a
    UTF-8 record of this cell raises, naming the file and line."""
    path = os.path.join(directory, _cell_name(n, k))
    records = []
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                rec = CodeRecord.from_json(line.decode("utf-8"))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: corrupt record: {exc}")
            if rec.n != n or rec.k != k:
                where = f"{path}:{lineno}: record of cell (n={rec.n}, k={rec.k})"
                raise ValueError(f"{where} filed under cell (n={n}, k={k})")
            records.append(rec)
    return records


class Database:
    """All cells under one directory, loaded lazily per (n, k).

    A Database reads each cell at most once and validates each record it
    returns at most once, so the records it returns are shared between
    calls and must not be changed.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self._cache = {}
        # id(rec) of every validated record; the records stay alive in
        # _cache, so no other object can take one of these ids
        self._checked = set()

    def cells(self) -> list:
        """The (n, k) of every file named as write_db names a cell; other
        files, such as a backup codes_n3_k1_old.jsonl, are ignored."""
        matches = map(_CELL_NAME.fullmatch, os.listdir(self.directory))
        return sorted((int(m[1]), int(m[2])) for m in matches if m)

    def records(self, n: int, k: int) -> list:
        if (n, k) not in self._cache:
            self._cache[(n, k)] = read_db(self.directory, n, k)
        return self._cache[(n, k)]

    def checked(self, rec: CodeRecord) -> CodeRecord:
        """A record from ``records``, validated unless this Database already
        validated it.  A record that fails is not marked, so every later
        call on it raises again."""
        if id(rec) not in self._checked:
            rec.validate()
            self._checked.add(id(rec))
        return rec


class Query:
    """Conjunctive equality filters over record fields, by field name; a
    filter given as None is not set, and every other value must have its
    field's schema type.

    A query validates each hit (generators re-parsed, rank checked) the
    first time its Database returns it, unless info_only is set; later
    queries on the same Database reuse that result.  Hits are the
    Database's shared records and must not be changed.
    """

    def __init__(self, *, info_only: bool = False, **filters):
        bad = set(filters) - set(_FIELD_ORDER)
        if bad:
            raise ValueError(f"unrecognized filter names: {sorted(bad)}")
        self.filters = {
            name: value for name, value in filters.items() if value is not None
        }
        _check_types(self.filters)
        self.info_only = info_only

    @classmethod
    def from_filters(cls, **filters) -> "Query":
        return cls(**filters)


def query(db: Database, q: Query) -> list:
    """Matching records across all cells, in (n, k, index) order."""
    want = q.filters
    # one getter for every filtered field; on the filters themselves it
    # gives the values to match, in the same shape (bare for a lone field)
    pick = attrgetter(*want) if want else lambda rec: ()
    target = pick(SimpleNamespace(**want))
    hits = []
    for n, k in db.cells():
        if want.get("n", n) != n or want.get("k", k) != k:
            continue
        for rec in db.records(n, k):
            if pick(rec) == target:
                hits.append(rec if q.info_only else db.checked(rec))
    return hits


def emit_distributions(db: Database, n: int) -> str:
    """CSV of class counts per (k, d) cell, total and indecomposable.

    Requires every cell (n, 0..n) to be present; raises otherwise.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got n = {n}")
    present = {k for (m, k) in db.cells() if m == n}
    missing = set(range(n + 1)) - present
    if missing:
        raise ValueError(f"database incomplete for n={n}: missing k={sorted(missing)}")
    lines = ["n,k,d,count,count_indecomposable"]
    for k in range(n + 1):
        counts = {}
        for rec in db.records(n, k):
            total, indec = counts.get(rec.d, (0, 0))
            counts[rec.d] = (total + 1, indec + (not rec.is_decomposable))
        for d in sorted(counts):
            total, indec = counts[d]
            lines.append(f"{n},{k},{d},{total},{indec}")
    return "\n".join(lines) + "\n"
