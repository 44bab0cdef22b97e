"""Command line behavior: outputs, database plumbing, and exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from stabdb.canon import aut_size, class_key
from stabdb.cli import main
from stabdb.db import build_records
from stabdb.pauli import StabGroup
from stabdb.properties import WeightEnum
from stabdb.search import enumerate_classes

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def cli_db(tmp_path_factory):
    directory = tmp_path_factory.mktemp("clidb")
    assert main(["enumerate", "--n", "2", "--out", str(directory)]) == 0
    return directory


def test_enumerate_counts_and_files(tmp_path, capsys):
    assert main(["enumerate", "--n", "1", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["n=1 k=0 classes=1", "n=1 k=1 classes=1"]
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["codes_n1_k0.jsonl", "codes_n1_k1.jsonl"]
    for name in files:
        assert len((tmp_path / name).read_text().splitlines()) == 1


def test_enumerate_cws_strategy_matches(tmp_path, capsys):
    a = tmp_path / "iter"
    b = tmp_path / "cws"
    assert main(["enumerate", "--n", "2", "--out", str(a)]) == 0
    assert main(
        ["enumerate", "--n", "2", "--out", str(b), "--strategy", "cws"]
    ) == 0
    capsys.readouterr()
    for name in ("codes_n2_k0", "codes_n2_k1", "codes_n2_k2"):
        keys_a = [
            json.loads(line)["canonical_key"]
            for line in (a / f"{name}.jsonl").read_text().splitlines()
        ]
        keys_b = [
            json.loads(line)["canonical_key"]
            for line in (b / f"{name}.jsonl").read_text().splitlines()
        ]
        assert keys_a == keys_b


def test_enumerate_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["enumerate", "--n", "4", "--out", str(a)]) == 0
    assert main(["enumerate", "--n", "4", "--out", str(b)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert names == [f"codes_n4_k{k}.jsonl" for k in range(5)]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_verify_mass_ok(cli_db, capsys):
    assert main(["verify-mass", "--db", str(cli_db)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "n=2 k=0 lhs=15 rhs=15 ok",
        "n=2 k=1 lhs=15 rhs=15 ok",
        "n=2 k=2 lhs=1 rhs=1 ok",
    ]


def test_verify_mass_detects_missing_record(cli_db, tmp_path, capsys):
    for path in cli_db.glob("*.jsonl"):
        shutil.copy(path, tmp_path / path.name)
    target = tmp_path / "codes_n2_k1.jsonl"
    lines = target.read_text().splitlines()
    target.write_text(lines[0] + "\n")
    assert main(["verify-mass", "--db", str(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().out


README_PROPS = """\
n: 5
k: 1
d: 3
length: 1
is_css: false
is_decomposable: false
is_degenerate: false
is_gf4linear: true
is_even: true
weight_enumerator: 1 + 15x^4
"""


def test_props_gens(capsys):
    assert main(["props", "--gens", "XZZXI;IXZZX;XIXZZ;ZXIXZ"]) == 0
    assert capsys.readouterr().out == README_PROPS


def test_props_prints_stored_invariants(capsys):
    # the trivial groups have no generators to pass and are skipped
    for n in range(1, 4):
        for records in build_records(enumerate_classes(n)).values():
            for rec in records:
                if not rec.generators:
                    continue
                assert main(["props", "--gens", ";".join(rec.generators)]) == 0
                wenum = WeightEnum(tuple(rec.weight_enumerator)).polynomial()
                expected = [f"n: {rec.n}", f"k: {rec.k}"]
                expected += [
                    f"{name}: {str(getattr(rec, name)).lower()}"
                    for name in (
                        "d",
                        "length",
                        "is_css",
                        "is_decomposable",
                        "is_degenerate",
                        "is_gf4linear",
                        "is_even",
                    )
                ]
                expected.append(f"weight_enumerator: {wenum}")
                assert capsys.readouterr().out.splitlines() == expected


def test_props_infile(tmp_path, capsys):
    path = tmp_path / "gens.txt"
    path.write_text("XX\nZZ\n")
    assert main(["props", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "d: 2" in out and "length: 1" in out


def test_canon_output(capsys):
    assert main(["canon", "--gens", "XX;ZZ"]) == 0
    out = dict(
        line.split(": ") for line in capsys.readouterr().out.splitlines()
    )
    g = StabGroup.from_strings(["XX", "ZZ"], 2)
    assert out["canonical_key"] == class_key(g).hex()
    assert int(out["aut_group_size"]) == aut_size(g) == 12


def test_query_filters(cli_db, capsys):
    assert main(["query", "--db", str(cli_db), "--n", "2", "--k", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert main(
        ["query", "--db", str(cli_db), "--n", "2", "--k", "0",
         "--indecomposable"]
    ) == 0
    hits = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    assert len(hits) == 1 and hits[0]["d"] == 2  # the Bell pair class
    assert main(
        ["query", "--db", str(cli_db), "--d", "9", "--info-only"]
    ) == 0
    assert capsys.readouterr().out == ""


def test_cws_conversions(capsys):
    assert main(["cws", "--to-cws", "--gens", "XX;ZZ"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["graph: 01;10", "code: "]
    assert main(["cws", "--to-stab", "--graph", "01;10", "--code", ""]) == 0
    gens = capsys.readouterr().out.strip().split(";")
    got = StabGroup.from_strings(gens, 2)
    assert got.same_group(StabGroup.from_strings(["XZ", "ZX"], 2))
    assert main(
        ["cws", "--to-stab", "--graph", "010;101;010", "--code", "101"]
    ) == 0
    gens = capsys.readouterr().out.strip().split(";")
    assert StabGroup.from_strings(gens, 3).r == 2


def test_dist_csv(cli_db, tmp_path, capsys):
    target = tmp_path / "out.csv"
    assert main(
        ["dist", "--db", str(cli_db), "--n", "2", "--csv", str(target)]
    ) == 0
    capsys.readouterr()
    lines = target.read_text().splitlines()
    assert lines[0] == "n,k,d,count,count_indecomposable"
    assert "2,0,2,1,1" in lines


def test_input_errors_exit_2(capsys):
    assert main(["props", "--gens", "XQ"]) == 2
    assert "invalid Pauli letter" in capsys.readouterr().err
    assert main(["cws", "--to-stab", "--graph", "01;10"]) == 2
    assert main(["verify-mass", "--db", "/nonexistent/place"]) == 2
    assert main(["cws", "--to-stab", "--graph", "01;11", "--code", ""]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("gens, bad", [("XX;Z", "'Z'"), ("X;ZZ", "'ZZ'")])
def test_props_mixed_lengths_exit_2(gens, bad, capsys):
    # the first string fixes n; the other one is named
    assert main(["props", "--gens", gens]) == 2
    assert bad in capsys.readouterr().err


def test_props_oversized_group_exits_2(capsys):
    assert main(["props", "--gens", "X" * 20]) == 2
    assert "enumeration guard" in capsys.readouterr().err


def test_query_mistyped_record_exits_2(cli_db, tmp_path, capsys):
    for path in cli_db.glob("*.jsonl"):
        shutil.copy(path, tmp_path / path.name)
    target = tmp_path / "codes_n2_k0.jsonl"
    lines = target.read_text().splitlines()
    good = json.loads(lines[0])
    for changes, named in (
        ({"d": str(good["d"]), "is_css": "yes"}, "d, is_css"),
        ({"generators": [1]}, "generators"),  # a mistyped list entry
    ):
        lines[0] = json.dumps(dict(good, **changes), separators=(",", ":"))
        target.write_text("".join(line + "\n" for line in lines))
        assert main(["query", "--db", str(tmp_path), "--d", "1"]) == 2
        err = capsys.readouterr().err
        assert "codes_n2_k0.jsonl:1:" in err and err.rstrip().endswith(named)


def test_usage_errors_exit_2_subprocess():
    for argv in (
        ["enumerate"],  # missing required --n/--out
        ["query"],  # missing required --db
        ["bogus-command"],
        ["enumerate", "--n", "2", "--out", "/tmp/x", "--strategy", "weird"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "stabdb.cli", *argv],
            cwd=REPO,
            capture_output=True,
        )
        assert proc.returncode == 2, argv


def test_cli_runs_without_numpy():
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from stabdb.cli import main\n"
        "assert main(['props', '--gens', 'XZZXI;IXZZX;XIXZZ;ZXIXZ']) == 0\n"
        "assert main(['canon', '--gens', 'XX;ZZ']) == 0\n"
    )
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(README_PROPS)
    assert "aut_group_size: 12" in proc.stdout
