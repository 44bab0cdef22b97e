"""The three benchmark workloads: inputs from a seed, one op, its checks.

Constructing a workload is its set-up, which ``setup_s`` times: it makes
the op list from the seed and anything the checks compare against.
``run`` sends one op through the package's public functions and returns
the output; ``check`` returns the names of the checks that output fails,
empty when it is correct.  Program calls go through module attributes
(``search.enumerate_classes``, ``db.query`` ...) so that the traced run
can rebind them.
"""

import hashlib
import math
import random
import tempfile
from pathlib import Path

from stabdb import db, search, verify
from stabdb.pauli import StabGroup

# ROADMAP golden digests: sha256 of codes_n{n}_k0..n.jsonl concatenated in k order
GOLDEN = {
    5: "dd945050475c9d6238052b37711c92be1028a59511b3f521f071bdda5400f591",
    6: "0b55e1e2152b46679f888985b59118542d197868e07979bf5806e07019908634",
}

_LETTERS = "IXZY"  # index x + 2z


def db_digest(directory, cells) -> str:
    """sha256 of the cell files concatenated in (n, k) order."""
    h = hashlib.sha256()
    for n, k in sorted(cells):
        h.update((Path(directory) / f"codes_n{n}_k{k}.jsonl").read_bytes())
    return h.hexdigest()


def _mass_failures(database) -> list:
    """verify-mass over every cell of a database: names of failed cells."""
    failed = []
    for n, k in database.cells():
        pairs = [
            (rec.canonical_key, int(rec.aut_group_size))
            for rec in database.records(n, k)
        ]
        try:
            ok = verify.mass_check(pairs, n, k)[2]
        except ValueError:
            ok = False
        if not ok:
            failed.append(f"mass_identity_n{n}_k{k}")
    return failed


def _work_failures(expect: dict) -> list:
    """Names of the work counts that differ from len() of the outputs;
    expect maps a name to (counted, expected)."""
    return [f"work_count_{name}" for name, (got, want) in expect.items() if got != want]


def _calls(counts, name) -> int:
    return counts.get(name, (0, 0))[0]


def _work(counts, name) -> int:
    return counts.get(name, (0, 0))[1]


# --- census-n5 ---


class Census:
    """One certified census per op: enumerate, records, write, read back,
    mass-check every cell, digest the files."""

    name = "census-n5"

    def __init__(self, seed: int, workdir, n: int = 5):
        self.n = n
        self.workdir = Path(workdir)
        self.ops = [{"kind": "census", "n": n}]
        self.digests = set()

    def run(self, op):
        out = Path(tempfile.mkdtemp(dir=self.workdir))
        classes = search.enumerate_classes(op["n"])
        records = db.build_records(classes)
        db.write_db(records, out)
        failed = _mass_failures(db.Database(out))
        return {
            "classes": classes,
            "records": records,
            "mass_failed": failed,
            "digest": db_digest(out, records),
        }

    def check(self, op, out) -> list:
        failed = list(out["mass_failed"])
        self.digests.add(out["digest"])
        if self.n in GOLDEN and out["digest"] != GOLDEN[self.n]:
            failed.append("golden_digest")
        if len(self.digests) > 1:
            failed.append("digest_repeats")
        return failed

    def work_failures(self, counts, outs) -> list:
        classes, records = outs[0]["classes"], outs[0]["records"]
        n_records = sum(map(len, records.values()))
        k_min = min(k for _, k in classes)
        return _work_failures({
            "classes_found": (_work(counts, "search.enumerate_classes"),
                              sum(map(len, classes.values()))),
            "extend_class_calls": (_calls(counts, "search.extend_class"),
                                   sum(len(v) for (_, k), v in classes.items() if k > k_min)),
            "class_key_calls": (_calls(counts, "canon.class_key"),
                                _work(counts, "search.extend_class") + 1),
            "canonical_form_calls": (_calls(counts, "canon.canonical_form"), n_records),
            "read_db_records": (_work(counts, "db.read_db"), n_records),
            "mass_check_calls": (_calls(counts, "verify.mass_check"), len(records)),
        })


# --- classify-n7 ---


def _to_strings(rows, n: int) -> list:
    return [
        "".join(_LETTERS[((row >> j) & 1) + 2 * ((row >> (n + j)) & 1)] for j in range(n))
        for row in rows
    ]


def _anticommute(a: int, b: int, n: int) -> int:
    mask = (1 << n) - 1
    return ((a & mask & (b >> n)).bit_count() + ((a >> n) & b & mask).bit_count()) & 1


def random_isotropic(rng: random.Random, n: int, r: int) -> list:
    """r independent pairwise commuting random Paulis, as strings."""
    rows, basis = [], []
    while len(rows) < r:
        v = rng.getrandbits(2 * n)
        if any(_anticommute(v, w, n) for w in rows):
            continue
        red = v
        for b in basis:
            red = min(red, red ^ b)
        if not red:
            continue
        basis.append(red)
        basis.sort(reverse=True)
        rows.append(v)
    return _to_strings(rows, n)


def structured_codes(n: int = 7) -> dict:
    """Named n = 7 codes with large automorphism groups, as generator strings."""
    def op(letters: dict) -> str:
        return "".join(letters.get(j, "I") for j in range(n))

    hamming = ["0001111", "0110011", "1010101"]
    return {
        "ghz": [op({j: "X" for j in range(n)})]
        + [op({j: "Z", j + 1: "Z"}) for j in range(n - 1)],
        "zero": [op({j: "Z"}) for j in range(n)],
        "cycle": [op({j: "X", (j - 1) % n: "Z", (j + 1) % n: "Z"}) for j in range(n)],
        "repetition": [op({j: "Z", j + 1: "Z"}) for j in range(n - 1)],
        "steane": [
            op({j: p for j, c in enumerate(h) if c == "1"}) for p in "XZ" for h in hamming
        ],
    }


def random_image(rng: random.Random, strings, n: int) -> list:
    """The group under a random qubit permutation and per-qubit letter
    permutation; the generators keep their order."""
    perm = list(range(n))
    rng.shuffle(perm)
    letter_maps = []
    for _ in range(n):
        image = list("XYZ")
        rng.shuffle(image)
        letter_maps.append(dict(zip("XYZ", image), I="I"))
    moved = []
    for s in strings:
        out = ["I"] * n
        for j, c in enumerate(s):
            out[perm[j]] = letter_maps[perm[j]][c]
        moved.append("".join(out))
    return moved


class Classify:
    """record_from_group on a seeded stream of n = 7 groups: three in four
    are random isotropic groups, one in four random images of structured
    codes."""

    name = "classify-n7"

    n = 7

    def __init__(self, seed: int, workdir, per_base: int = 7):
        n = self.n
        rng = random.Random(seed)
        bases = structured_codes(n)
        images = [
            {"kind": "image", "base": name, "gens": random_image(rng, gens, n)}
            for name, gens in sorted(bases.items())
            for _ in range(per_base)
        ]
        rs = [1 + i % n for i in range(3 * len(images))]
        rng.shuffle(rs)
        randoms = [
            {"kind": "random", "base": None, "gens": random_isotropic(rng, n, r)}
            for r in rs
        ]
        self.ops = images + randoms
        rng.shuffle(self.ops)
        self.base_records = {
            name: db.record_from_group(self._group(gens), 0)
            for name, gens in sorted(bases.items())
        }
        self.aut_order = 6**n * math.factorial(n)

    def _group(self, gens):
        return StabGroup.from_strings(gens, self.n)

    def run(self, op):
        return db.record_from_group(self._group(op["gens"]), 0)

    def check(self, op, rec) -> list:
        failed = []
        r = len(op["gens"])
        if (rec.n, rec.k) != (self.n, self.n - r):
            failed.append("parameters")
        if self.aut_order % int(rec.aut_group_size):
            failed.append("aut_divides_group_order")
        if sum(rec.weight_enumerator) != 1 << r:
            failed.append("weight_enumerator_sum")
        if op["kind"] == "image":
            base = self.base_records[op["base"]]
            for field in _INVARIANT_FIELDS:
                if getattr(rec, field) != getattr(base, field):
                    failed.append(f"image_{field}")
        return failed

    def work_failures(self, counts, outs) -> list:
        return _work_failures({
            "record_from_group_calls": (_calls(counts, "db.record_from_group"), len(outs)),
            "canonical_form_calls": (_calls(counts, "canon.canonical_form"), len(outs)),
        })


# every stored field except the representative itself and the index
_INVARIANT_FIELDS = (
    "canonical_key",
    "aut_group_size",
    "d",
    "is_css",
    "is_decomposable",
    "is_degenerate",
    "is_gf4linear",
    "is_even",
    "length",
    "weight_enumerator",
)


# --- db-query ---

# op kind -> share of the op list
DB_MIX = {"warm": 45, "cold": 35, "dist": 8, "verify": 7, "rewrite": 5}


def _balanced(rng: random.Random, count: int, choices: list) -> list:
    """count draws in random order, each choice appearing equally often
    (up to one).  Fixed shares keep the op list's cost steady across seeds."""
    out = choices * (count // len(choices)) + rng.sample(choices, count % len(choices))
    rng.shuffle(out)
    return out


def _query_ops(rng: random.Random, kind: str, count: int, nmax: int) -> list:
    """Filter sets from the query command's filters: n in 5 of 7 queries,
    k in half, d in 3 of 10, index in 1 of 10, each flag in 1 of 5, and
    info_only in half."""
    columns = {
        "n": _balanced(rng, count, [None, None] + list(range(1, nmax + 1))),
        "k": _balanced(rng, count, [None, True]),
        "d": _balanced(rng, count, [None] * 7 + [1, 2, 3]),
        "index": _balanced(rng, count, [None] * 9 + [True]),
        "is_css": _balanced(rng, count, [None] * 4 + [True]),
        "is_gf4linear": _balanced(rng, count, [None] * 4 + [True]),
        "is_decomposable": _balanced(rng, count, [None] * 4 + [False]),
    }
    info_only = _balanced(rng, count, [False, True])
    ops = []
    for i in range(count):
        f = {name: col[i] for name, col in columns.items() if col[i] is not None}
        if "k" in f:
            f["k"] = rng.randint(0, f.get("n", nmax))
        if "index" in f:
            f["index"] = rng.randint(0, 10)
        ops.append({"kind": kind, "filters": f, "info_only": info_only[i]})
    return ops


def reference_distributions(records: list, n: int) -> str:
    """The dist CSV computed directly from in-memory records."""
    lines = ["n,k,d,count,count_indecomposable"]
    for k in range(n + 1):
        cell = [rec for rec in records if (rec.n, rec.k) == (n, k)]
        for d in sorted({rec.d for rec in cell}):
            hits = [rec for rec in cell if rec.d == d]
            indec = sum(not rec.is_decomposable for rec in hits)
            lines.append(f"{n},{k},{d},{len(hits)},{indec}")
    return "\n".join(lines) + "\n"


class DbQuery:
    """A seeded mix of queries (warm and cold), distribution CSVs, mass
    checks and single-cell rewrites against an n <= 5 database."""

    name = "db-query"

    def __init__(self, seed: int, workdir, nmax: int = 5, n_ops: int = 3000):
        self.nmax = nmax
        rng = random.Random(seed)
        self.dir = Path(tempfile.mkdtemp(dir=workdir))
        records = {}
        for n in range(1, nmax + 1):
            records.update(db.build_records(search.enumerate_classes(n)))
        db.write_db(records, self.dir)
        self.cells = sorted(records)
        self.cell_records = {c: sorted(records[c], key=lambda r: r.index) for c in self.cells}
        self.reference = [rec for c in self.cells for rec in self.cell_records[c]]
        self.digest = db_digest(self.dir, self.cells)
        self.warm = db.Database(self.dir)
        for c in self.warm.cells():
            self.warm.records(*c)
        self.dists = {n: reference_distributions(self.reference, n) for n in range(1, nmax + 1)}

        count = {kind: n_ops * share // 100 for kind, share in DB_MIX.items()}
        self.ops = (
            _query_ops(rng, "warm", count["warm"], nmax)
            + _query_ops(rng, "cold", count["cold"], nmax)
            + [{"kind": "dist", "n": n}
               for n in _balanced(rng, count["dist"], list(range(1, nmax + 1)))]
            + [{"kind": "verify"} for _ in range(count["verify"])]
            + [{"kind": "rewrite", "cell": list(c)}
               for c in _balanced(rng, count["rewrite"], self.cells)]
        )
        rng.shuffle(self.ops)

    def run(self, op):
        kind = op["kind"]
        if kind in ("warm", "cold"):
            q = db.Query.from_filters(info_only=op["info_only"], **op["filters"])
            database = self.warm if kind == "warm" else db.Database(self.dir)
            return db.query(database, q)
        if kind == "dist":
            return db.emit_distributions(db.Database(self.dir), op["n"])
        if kind == "verify":
            return _mass_failures(db.Database(self.dir))
        cell = tuple(op["cell"])
        return db.write_db({cell: self.cell_records[cell]}, self.dir)

    def check(self, op, out) -> list:
        kind = op["kind"]
        if kind in ("warm", "cold"):
            want = [
                rec
                for rec in self.reference
                if all(getattr(rec, f) == v for f, v in op["filters"].items())
            ]
            return [] if out == want else [f"{kind}_query_result"]
        if kind == "dist":
            return [] if out == self.dists[op["n"]] else ["distributions"]
        if kind == "verify":
            return out
        return [] if db_digest(self.dir, self.cells) == self.digest else ["db_digest"]

    def work_failures(self, counts, outs) -> list:
        kinds = [op["kind"] for op in self.ops]
        queries = [out for op, out in zip(self.ops, outs) if op["kind"] in ("warm", "cold")]
        return _work_failures({
            "query_calls": (_calls(counts, "db.query"), len(queries)),
            "query_hits": (_work(counts, "db.query"), sum(map(len, queries))),
            "emit_distributions_calls": (_calls(counts, "db.emit_distributions"), kinds.count("dist")),
            "write_db_calls": (_calls(counts, "db.write_db"), kinds.count("rewrite")),
            "mass_check_calls": (_calls(counts, "verify.mass_check"),
                                 kinds.count("verify") * len(self.cells)),
        })


WORKLOADS = {w.name: w for w in (Census, Classify, DbQuery)}
