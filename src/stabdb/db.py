"""Flat-file class database: fixed-schema JSON lines, one file per (n, k).

Records carry every per-class invariant so queries never recompute them;
the generator list pins a concrete representative and re-canonicalizes to
the stored key.  Files are plain UTF-8 text sorted by index, so database
diffs are line diffs.
"""

import json
from dataclasses import dataclass, fields
from pathlib import Path

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

_FIELD_ORDER = (
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
)


@dataclass
class CodeRecord:
    """One class: parameters, a representative, and its invariants."""

    n: int
    k: int
    d: int
    index: int
    generators: list
    aut_group_size: str
    is_css: bool
    is_decomposable: bool
    is_degenerate: bool
    is_gf4linear: bool
    is_even: bool
    length: int
    weight_enumerator: list
    canonical_key: str

    def group(self) -> StabGroup:
        return StabGroup.from_strings(self.generators, self.n)

    def _check_types(self):
        """Raise unless every field has its declared type (bool is not int).

        One chained test keeps the cost per record read well below that of
        parsing the line; only a failing record pays to name its fields.
        """
        if (
            type(self.n) is int
            and type(self.k) is int
            and type(self.d) is int
            and type(self.index) is int
            and type(self.generators) is list
            and type(self.aut_group_size) is str
            and type(self.is_css) is bool
            and type(self.is_decomposable) is bool
            and type(self.is_degenerate) is bool
            and type(self.is_gf4linear) is bool
            and type(self.is_even) is bool
            and type(self.length) is int
            and type(self.weight_enumerator) is list
            and type(self.canonical_key) is str
        ):
            return
        bad = [
            f.name for f in fields(self) if type(getattr(self, f.name)) is not f.type
        ]
        raise ValueError(f"wrong type for field(s) {', '.join(bad)}")

    def validate(self):
        """Check types and internal consistency; raises naming the record."""
        where = f"record (n={self.n}, k={self.k}, index={self.index})"
        try:
            self._check_types()
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
        rec = cls(**obj)
        rec._check_types()
        return rec


def invariants(g: StabGroup) -> dict:
    """Every stored invariant except the canonical key and |Aut|, keyed by
    record field name; records and ``stabdb props`` both read this table."""
    report = decompose(g)
    d = distance(g)
    return {
        "d": d,
        "is_css": css_rank_test(g) or css_representative(g) is not None,
        "is_decomposable": report.decomposable,
        "is_degenerate": is_degenerate(g, d),
        "is_gf4linear": gf4_representative(g) is not None,
        "is_even": is_even(g),
        "length": report.length,
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


_QUERY_FILTERS = _FIELD_ORDER


@dataclass
class Query:
    """Conjunctive filters over record fields; None means no constraint.

    info_only skips the generator re-parse validation of each hit.
    """

    n: int = None
    k: int = None
    d: int = None
    index: int = None
    generators: list = None
    aut_group_size: str = None
    is_css: bool = None
    is_decomposable: bool = None
    is_degenerate: bool = None
    is_gf4linear: bool = None
    is_even: bool = None
    length: int = None
    weight_enumerator: list = None
    canonical_key: str = None
    info_only: bool = False

    @classmethod
    def from_filters(cls, **filters) -> "Query":
        bad = set(filters) - {f.name for f in fields(cls)}
        if bad:
            raise ValueError(f"unrecognized filter names: {sorted(bad)}")
        return cls(**filters)


def query(db: Database, q: Query) -> list:
    """Matching records across all cells, in (n, k, index) order."""
    hits = []
    for n, k in db.cells():
        if q.n is not None and n != q.n:
            continue
        if q.k is not None and k != q.k:
            continue
        for rec in db.records(n, k):
            if all(
                getattr(q, name) is None
                or getattr(rec, name) == getattr(q, name)
                for name in _QUERY_FILTERS
            ):
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
