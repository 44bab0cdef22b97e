"""Command line front end over enumeration, verification, and the database.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage
or input errors.  Generator lists are written as semicolon-separated
Pauli strings ("XXXX;ZZZZ"); graph adjacency rows and classical code
rows are semicolon-separated 0/1 strings with character j addressing
qubit j.
"""

import argparse
import sys

from .canon import canonical_form
from .db import (
    Database,
    Query,
    build_records,
    emit_distributions,
    invariants,
    query,
    write_db,
)
from .pauli import StabGroup
from .properties import WeightEnum
from .search import (
    GraphState,
    cws_to_stabilizer,
    enumerate_classes,
    stabilizer_to_cws,
)
from .verify import mass_check


def _parse_gens(text: str, n=None) -> StabGroup:
    strings = [s for s in text.split(";") if s]
    return StabGroup.from_strings(strings, n)


def _parse_bitrows(text: str, n: int) -> list[int]:
    parts = [part for part in text.split(";") if part]
    for part in parts:
        if len(part) != n or set(part) - {"0", "1"}:
            raise ValueError(f"bad 0/1 row of length {n}: {part!r}")
    return [int(part[::-1], 2) for part in parts]


def _format_bitrows(rows, n: int) -> str:
    return ";".join(format(row, f"0{n}b")[::-1] for row in rows)


def _cmd_enumerate(args) -> int:
    if args.n > 7:
        raise ValueError(
            f"enumerate refuses n = {args.n} > 7: n = 7 is the largest "
            "census with a certified digest"
        )
    classes = enumerate_classes(args.n, args.kmin)
    write_db(build_records(classes), args.out)
    for (n, k) in sorted(classes):
        print(f"n={n} k={k} classes={len(classes[(n, k)])}")
    return 0


def _cmd_verify_mass(args) -> int:
    db = Database(args.db)
    cells = [c for c in db.cells() if args.n is None or c[0] == args.n]
    if not cells:
        which = "" if args.n is None else f" for n = {args.n}"
        raise ValueError(f"no database cells{which} under {args.db}")
    failed = False
    for n, k in cells:
        records = db.records(n, k)
        for rec in records:
            db.checked(rec)  # so an |Aut| int() cannot read names its record
        pairs = [(rec.canonical_key, int(rec.aut_group_size)) for rec in records]
        lhs, rhs, ok = mass_check(pairs, n, k)
        failed |= not ok
        print(f"n={n} k={k} lhs={lhs} rhs={rhs} {'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


def _cmd_props(args) -> int:
    if args.infile:
        with open(args.infile, encoding="utf-8") as handle:
            text = ";".join(line.strip() for line in handle)
    else:
        text = args.generators
    g = _parse_gens(text)
    print(f"n: {g.n}")
    print(f"k: {g.k}")
    for name, value in invariants(g).items():
        if name == "weight_enumerator":
            shown = WeightEnum(tuple(value)).polynomial()
        else:
            shown = str(value).lower()
        print(f"{name}: {shown}")
    return 0


def _cmd_canon(args) -> int:
    g = _parse_gens(args.generators)
    key, aut = canonical_form(g)
    print(f"canonical_key: {key.hex()}")
    print(f"aut_group_size: {aut.size}")
    return 0


def _cmd_query(args) -> int:
    q = Query(
        n=args.n,
        k=args.k,
        d=args.d,
        index=args.index,
        is_css=True if args.css else None,
        is_gf4linear=True if args.gf4 else None,
        is_decomposable=False if args.indecomposable else None,
        info_only=args.info_only,
    )
    for rec in query(Database(args.db), q):
        print(rec.to_json())
    return 0


def _cmd_cws(args) -> int:
    if args.to_stab:
        if args.graph is None or args.code is None:
            raise ValueError("--to-stab needs --graph and --code")
        n = sum(1 for part in args.graph.split(";") if part)
        if n == 0:
            raise ValueError("cannot infer qubit count from an empty --graph")
        gs = GraphState(_parse_bitrows(args.graph, n))
        g = cws_to_stabilizer(gs, _parse_bitrows(args.code, n))
        print(";".join(g.generator_strings()))
    else:
        if args.generators is None:
            raise ValueError("--to-cws needs --gens")
        gs, words = stabilizer_to_cws(_parse_gens(args.generators))
        print(f"graph: {_format_bitrows(gs.adjacency, gs.n)}")
        print(f"code: {_format_bitrows(words, gs.n)}")
    return 0


def _cmd_dist(args) -> int:
    csv = emit_distributions(Database(args.db), args.n)
    with open(args.csv, "w", encoding="utf-8") as handle:
        handle.write(csv)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabdb",
        description="Enumerate, certify, and query stabilizer code classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate classes and write a database")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmin", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify-mass", help="check mass identities of a database")
    p.add_argument("--db", required=True)
    p.add_argument("--n", type=int)
    p.set_defaults(func=_cmd_verify_mass)

    p = sub.add_parser("props", help="print invariants of a generator list")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--in", dest="infile")
    group.add_argument("--gens", dest="generators")
    p.set_defaults(func=_cmd_props)

    p = sub.add_parser("canon", help="print canonical key and |Aut|")
    p.add_argument("--gens", dest="generators", required=True)
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("query", help="filter database records")
    p.add_argument("--db", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--index", type=int)
    p.add_argument("--css", action="store_true")
    p.add_argument("--gf4", action="store_true")
    p.add_argument("--indecomposable", action="store_true")
    p.add_argument("--info-only", action="store_true")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("cws", help="convert between group and graph + code")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--to-stab", action="store_true")
    mode.add_argument("--to-cws", action="store_true")
    p.add_argument("--graph")
    p.add_argument("--code")
    p.add_argument("--gens", dest="generators")
    p.set_defaults(func=_cmd_cws)

    p = sub.add_parser("dist", help="write distance distribution CSV")
    p.add_argument("--db", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=_cmd_dist)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
