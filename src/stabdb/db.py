"""Flat-file class database: fixed-schema JSON lines, one file per (n, k).

Records carry every per-class invariant so queries never recompute them;
the generator list pins a concrete representative and re-canonicalizes to
the stored key.  Files are plain UTF-8 text sorted by index, so database
diffs are line diffs.
"""

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_origin

from .canon import build_code_graph, canonical_form
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
    fields are checked entry by entry).
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
        """Check types and internal consistency; raises naming the record."""
        where = f"record (n={self.n}, k={self.k}, index={self.index})"
        try:
            _check_types(vars(self))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        try:
            g = self.group()
        except ValueError as exc:
            raise ValueError(f"{where}: bad generators: {exc}") from exc
        if g.r != self.n - self.k:
            raise ValueError(f"{where}: generators have rank {g.r}")
        if len(self.weight_enumerator) != self.n + 1:
            raise ValueError(f"{where}: weight enumerator length")
        if not self.aut_group_size.isdigit() or self.aut_group_size == "0":
            raise ValueError(f"{where}: bad automorphism order")
        try:
            bytes.fromhex(self.canonical_key)
        except ValueError as exc:
            raise ValueError(f"{where}: bad canonical key") from exc

    def to_json(self) -> str:
        return json.dumps(
            {name: getattr(self, name) for name in _FIELD_ORDER},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "CodeRecord":
        obj = json.loads(line)
        if tuple(obj) != _FIELD_ORDER:
            raise ValueError("unexpected record fields")
        _check_types(obj)
        # The checked mapping holds every field in order, so it becomes the
        # record's attribute dict as is: reads are the db layer's hot path.
        rec = cls.__new__(cls)
        rec.__dict__ = obj
        return rec


# (name, value type, entry type of a list field or None), in JSON key order
_SCHEMA = tuple(
    (f.name, get_origin(f.type) or f.type, next(iter(get_args(f.type)), None))
    for f in fields(CodeRecord)
)
_FIELD_ORDER = tuple(name for name, _, _ in _SCHEMA)


def _check_types(values: dict):
    """Raise unless every field value in the record mapping has its schema
    type (bool is not int), naming each field that does not."""
    bad = [
        name
        for name, t, entry in _SCHEMA
        if type(values[name]) is not t
        or (entry and any(type(v) is not entry for v in values[name]))
    ]
    if bad:
        raise ValueError(f"wrong type for field(s) {', '.join(bad)}")


def invariants(g: StabGroup) -> dict:
    """Every stored invariant except the canonical key and |Aut|, keyed by
    record field name in the order ``stabdb props`` prints them; records and
    ``stabdb props`` both read this table."""
    report = decompose(g)
    d = distance(g)
    return {
        "d": d,
        "length": report.length,
        "is_css": css_rank_test(g) or css_representative(g) is not None,
        "is_decomposable": report.decomposable,
        "is_degenerate": is_degenerate(g, d),
        "is_gf4linear": gf4_representative(g) is not None,
        "is_even": is_even(g),
        "weight_enumerator": list(weight_enumerator(g).coeffs),
    }


def record_from_group(g: StabGroup, index: int) -> CodeRecord:
    """Compute every stored invariant of one class representative."""
    key, aut = canonical_form(build_code_graph(g))
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
    """Map {(n, k): [ClassEntry]} to {(n, k): [CodeRecord]}."""
    return {
        cell: [record_from_group(e.rep, e.index) for e in entries]
        for cell, entries in classes.items()
    }


def _cell_path(directory, n: int, k: int) -> Path:
    return Path(directory) / f"codes_n{n}_k{k}.jsonl"


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
        cell_records = sorted(records[cell], key=lambda rec: rec.index)
        for rec in cell_records:
            rec.validate()
            if (rec.n, rec.k) != cell:
                raise ValueError(
                    f"record (n={rec.n}, k={rec.k}, index={rec.index}) "
                    f"filed under cell {cell}"
                )
        path = _cell_path(directory, *cell)
        text = "".join(rec.to_json() + "\n" for rec in cell_records)
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def read_db(directory, n: int, k: int) -> list:
    """Records of one cell, in file (= index) order."""
    path = _cell_path(directory, n, k)
    records = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                records.append(CodeRecord.from_json(line))
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: corrupt record: {exc}")
    return records


class Database:
    """All cells under one directory, loaded lazily per (n, k)."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self._cache = {}

    def cells(self) -> list:
        found = []
        for path in self.directory.glob("codes_n*_k*.jsonl"):
            stem = path.stem.removeprefix("codes_n")
            ns, ks = stem.split("_k")
            found.append((int(ns), int(ks)))
        return sorted(found)

    def records(self, n: int, k: int) -> list:
        if (n, k) not in self._cache:
            self._cache[(n, k)] = read_db(self.directory, n, k)
        return self._cache[(n, k)]


class Query:
    """Conjunctive equality filters over record fields, by field name; a
    filter given as None is not set.

    info_only skips the generator re-parse validation of each hit.
    """

    def __init__(self, *, info_only: bool = False, **filters):
        bad = set(filters) - set(_FIELD_ORDER)
        if bad:
            raise ValueError(f"unrecognized filter names: {sorted(bad)}")
        self.filters = {
            name: value for name, value in filters.items() if value is not None
        }
        self.info_only = info_only

    @classmethod
    def from_filters(cls, **filters) -> "Query":
        return cls(**filters)


def query(db: Database, q: Query) -> list:
    """Matching records across all cells, in (n, k, index) order."""
    want = q.filters
    hits = []
    for n, k in db.cells():
        if want.get("n", n) != n or want.get("k", k) != k:
            continue
        for rec in db.records(n, k):
            if all(getattr(rec, name) == value for name, value in want.items()):
                if not q.info_only:
                    rec.validate()
                hits.append(rec)
    return hits


def emit_distributions(db: Database, n: int) -> str:
    """CSV of class counts per (k, d) cell, total and indecomposable.

    Requires every cell (n, 0..n) to be present; raises otherwise.
    """
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
