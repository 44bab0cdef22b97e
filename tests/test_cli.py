"""Command line behavior: outputs, database plumbing, and exit codes."""

import importlib
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from stabdb import canon, properties
from stabdb.canon import aut_size, class_key
from stabdb.cli import _build_parser, main
from stabdb.db import build_records
from stabdb.pauli import StabGroup
from stabdb.properties import WeightEnum
from stabdb.search import enumerate_classes

from util import random_stab_group

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


def test_enumerate_is_deterministic_across_hash_seeds(tmp_path):
    # set and dict iteration over str and bytes keys follows the hash seed,
    # which is fixed once per process
    outs = []
    for seed in ("0", "12345"):
        out = tmp_path / f"hashseed{seed}"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "stabdb.cli", "enumerate", "--n", "4", "--out", str(out)],
            cwd=REPO,
            env=env,
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == [f"codes_n4_k{k}.jsonl" for k in range(5)]
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_verify_mass_ok(cli_db, capsys):
    assert main(["verify-mass", "--db", str(cli_db)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "n=2 k=0 lhs=15 rhs=15 ok",
        "n=2 k=1 lhs=15 rhs=15 ok",
        "n=2 k=2 lhs=1 rhs=1 ok",
    ]


def test_verify_mass_names_the_missing_cells(cli_db, tmp_path, capsys):
    assert main(["verify-mass", "--db", str(cli_db), "--n", "4"]) == 2
    assert capsys.readouterr().err == f"error: no database cells for n = 4 under {cli_db}\n"
    assert main(["verify-mass", "--db", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: no database cells under {tmp_path}\n"


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


def test_query_ignores_stray_files(cli_db, tmp_path, capsys):
    for path in cli_db.glob("*.jsonl"):
        shutil.copy(path, tmp_path / path.name)
    shutil.copy(cli_db / "codes_n2_k0.jsonl", tmp_path / "codes_n2_k0_old.jsonl")
    argv = ["query", "--db", str(tmp_path), "--n", "2", "--k", "0"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2
    # a missing directory is an error, not an empty database
    assert main(["query", "--db", str(tmp_path / "absent")]) == 2
    assert "No such file or directory" in capsys.readouterr().err


def test_cws_conversions(capsys):
    assert main(["cws", "--to-cws", "--gens", "XX;ZZ"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["graph: 01;10", "code: "]
    # as with --gens, an empty part after the last ";" is no row
    for graph in ("01;10", "01;10;"):
        assert main(["cws", "--to-stab", "--graph", graph, "--code", ""]) == 0
        gens = capsys.readouterr().out.strip().split(";")
        got = StabGroup.from_strings(gens, 2)
        assert got.same_group(StabGroup.from_strings(["XZ", "ZX"], 2))
    assert main(
        ["cws", "--to-stab", "--graph", "010;101;010", "--code", "101"]
    ) == 0
    gens = capsys.readouterr().out.strip().split(";")
    assert StabGroup.from_strings(gens, 3).r == 2


@pytest.mark.parametrize("graph", ["", ";"])
def test_cws_to_stab_empty_graph_exits_2(graph, capsys):
    # as --gens "" does: no rows give no qubit count, so no 0-qubit group
    assert main(["cws", "--to-stab", "--graph", graph, "--code", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot infer qubit count")


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
    assert main(["cws", "--to-stab", "--graph", "01;10", "--code", "12"]) == 2
    assert "bad 0/1 row of length 2: '12'" in capsys.readouterr().err
    assert main(["cws", "--to-cws"]) == 2
    assert "--to-cws needs --gens" in capsys.readouterr().err
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
    # rank 25: the weight enumerator's bound, the only one on d, A and
    # degeneracy
    gens = ";".join("I" * j + "Z" + "I" * (24 - j) for j in range(25))
    assert main(["props", "--gens", gens]) == 2
    assert "enumeration guard" in capsys.readouterr().err


def test_props_answers_many_logical_qubits(capsys):
    # five copies of [[5,1,3]]: 2k + r = 30, a distance read off the 2^20
    # group elements
    five = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
    gens = ";".join(
        "I" * (5 * c) + s + "I" * (20 - 5 * c) for c in range(5) for s in five
    )
    assert main(["props", "--gens", gens]) == 0
    assert "d: 3\n" in capsys.readouterr().out


def test_canon_rank_16_exits_2(capsys):
    # 2^16 black vertices overflow the 16-bit leaf certificates
    gens = ";".join("I" * j + "Z" + "I" * (15 - j) for j in range(16))
    assert main(["canon", "--gens", gens]) == 2
    assert "vertex budget exceeded" in capsys.readouterr().err


def test_props_css_guard_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(properties, "CSS_MAX_NODES", 10)
    assert main(["props", "--gens", "XZZXI;IXZZX;XIXZZ;ZXIXZ"]) == 2
    assert "CSS search over 10 nodes" in capsys.readouterr().err


def test_props_css_fallback_answers_false(monkeypatch, capsys):
    # past the CSS bound, the exact fallback proves a generic random group
    # has no CSS form (test_properties checks it against the search)
    monkeypatch.setattr(properties, "CSS_MAX_NODES", 1000)
    g = random_stab_group(20, 18, random.Random(1))
    assert main(["props", "--gens", ";".join(g.generator_strings())]) == 0
    assert "is_css: false" in capsys.readouterr().out.splitlines()


def test_props_css_trace_condition_answers_false(monkeypatch, capsys):
    # a random rank-18 group times the [[5,1,3]] code: some maps that keep
    # every qubit's column span are neither 0 nor the identity, but none
    # has trace 1 on every plane of the random factor, so past the CSS bound
    # the fallback still proves there is no CSS form
    monkeypatch.setattr(properties, "CSS_MAX_NODES", 1000)
    rows = random_stab_group(18, 18, random.Random(2)).generator_strings()
    gens = [row + "I" * 5 for row in rows]
    gens += ["I" * 18 + row for row in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")]
    assert properties.css_representative(StabGroup.from_strings(gens)) is None
    assert main(["props", "--gens", ";".join(gens)]) == 0
    assert "is_css: false" in capsys.readouterr().out.splitlines()


def test_enumerate_above_7_exits_2(tmp_path, capsys):
    out = tmp_path / "DB"
    argv = ["enumerate", "--n", "8", "--out", str(out)]
    assert main(argv) == 2
    assert "enumerate refuses n = 8 > 7" in capsys.readouterr().err
    assert not out.exists()


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


def test_bad_aut_order_exits_2(cli_db, tmp_path, capsys):
    # int() cannot read "\u00b2" and reads "00" as 0: a stored |Aut| is
    # refused, naming its record, before either command uses it
    for path in cli_db.glob("*.jsonl"):
        shutil.copy(path, tmp_path / path.name)
    target = tmp_path / "codes_n2_k1.jsonl"
    lines = target.read_text().splitlines()
    good = json.loads(lines[0])
    for wrong in ("\u00b2", "00"):
        lines[0] = json.dumps(dict(good, aut_group_size=wrong), separators=(",", ":"))
        target.write_text("".join(line + "\n" for line in lines))
        for argv in (["query", "--db", str(tmp_path)], ["verify-mass", "--db", str(tmp_path)]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err == "error: record (n=2, k=1, index=0): bad automorphism order\n", argv


def test_non_object_record_line_exits_2(cli_db, tmp_path, capsys):
    # a line holding the field names as a JSON array is no record; reading
    # it once raised AttributeError, which exits 1 with a traceback
    for path in cli_db.glob("*.jsonl"):
        shutil.copy(path, tmp_path / path.name)
    target = tmp_path / "codes_n2_k0.jsonl"
    good = json.loads(target.read_text().splitlines()[0])
    target.write_text(json.dumps(list(good)) + "\n")
    for argv in (
        ["query", "--db", str(tmp_path)],
        ["dist", "--db", str(tmp_path), "--n", "2", "--csv", str(tmp_path / "out.csv")],
        ["verify-mass", "--db", str(tmp_path)],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {target}:1: corrupt record: unexpected record fields\n"
        ), argv


def test_misfiled_record_exits_2(cli_db, tmp_path, capsys):
    # a k = 1 record appended to the k = 0 file was once counted, listed
    # and summed as a k = 0 class
    for path in cli_db.glob("*.jsonl"):
        shutil.copy(path, tmp_path / path.name)
    target = tmp_path / "codes_n2_k0.jsonl"
    stray = (tmp_path / "codes_n2_k1.jsonl").read_text().splitlines()[0]
    with open(target, "a", encoding="utf-8") as handle:
        handle.write(stray + "\n")
    for argv in (
        ["query", "--db", str(tmp_path), "--n", "2"],
        ["dist", "--db", str(tmp_path), "--n", "2", "--csv", str(tmp_path / "out.csv")],
        ["verify-mass", "--db", str(tmp_path)],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {target}:3: record of cell (n=2, k=1) "
            "filed under cell (n=2, k=0)\n"
        ), argv
    assert not (tmp_path / "out.csv").exists()


def test_non_utf8_byte_exits_2(cli_db, tmp_path, capsys):
    # each line is decoded on its own, so the error names the file and line
    for path in cli_db.glob("*.jsonl"):
        shutil.copy(path, tmp_path / path.name)
    target = tmp_path / "codes_n2_k1.jsonl"
    with open(target, "ab") as handle:
        handle.write(b"\xff")
    assert main(["query", "--db", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {target}:3: corrupt record: ")
    assert "codes_n2_k1.jsonl:3:" in captured.err


def test_readme_commands_parse():
    # every stabdb command line shown in README names only options the
    # parser knows; parse_args exits 2 on any other
    lines = []
    fenced = False
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.removeprefix("$ ").startswith("stabdb "):
            lines.append(line.removeprefix("$ "))
    assert len(lines) >= 10
    parser = _build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert parser.parse_args(argv).func, line


def test_readme_bounds_match_constants():
    # README's bounded-work bullets state each guard at the value the code
    # holds, so a bound that moves or a second cap cannot go unnoticed
    text = (REPO / "README.md").read_text(encoding="utf-8")
    bullets = " ".join(
        text.split("each bound exits 2 with a message:\n", 1)[1]
        .split("\n## ", 1)[0]
        .split()
    )
    bits = properties.MAX_PRODUCT_BITS
    css_bits = properties.CSS_MAX_NODES.bit_length() - 1
    assert properties.CSS_MAX_NODES == 1 << css_bits
    rank_16 = StabGroup.from_strings(["I" * j + "Z" + "I" * (15 - j) for j in range(16)])
    with pytest.raises(ValueError, match=r"vertices > \d+") as caught:
        canon.build_code_graph(rank_16)
    vertices = int(re.search(r"vertices > (\d+)", str(caught.value)).group(1))
    for stated in (
        f"2^{bits} products",
        f"chunks of 2^{properties._SLICE_BITS}",
        f"at most {1 << (bits - properties._SLICE_BITS)} chunks",
        f"rank above {bits}",
        f"above {vertices:,}",
        f"more than {canon._MAX_QUBITS} qubits",
        f"after 2^{css_bits} nodes",
    ):
        assert stated in bullets, stated


def test_readme_module_names_exist():
    # every backticked identifier in README's module bullets
    # ("- `f2core` -- ...") is an attribute of that module, so a removed
    # or renamed function cannot stay named there
    bullets = {}
    name = None
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines():
        head = re.match(r"- `(\w+)` -- ", line)
        if head:
            name = head.group(1)
            bullets[name] = line[head.end():]
        elif name and line.startswith("  "):
            bullets[name] += line
        else:
            name = None
    assert len(bullets) == 8
    for name, text in bullets.items():
        module = importlib.import_module(f"stabdb.{name}")
        for ident in re.findall(r"`([A-Za-z_]\w*)`", text):
            assert hasattr(module, ident), (name, ident)


def test_usage_errors_exit_2_subprocess(tmp_path):
    csv = tmp_path / "out.csv"
    for argv in (
        ["enumerate"],  # missing required --n/--out
        ["query"],  # missing required --db
        ["bogus-command"],
        ["enumerate", "--n", "2", "--out", "/tmp/x", "--strategy", "weird"],  # unknown option
        ["canon", "--gens", "Z" + "I" * 499],  # over the qubit budget
        ["enumerate", "--n", "-1", "--out", str(tmp_path / "DB")],
        ["dist", "--db", str(tmp_path), "--n", "-1", "--csv", str(csv)],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "stabdb.cli", *argv],
            cwd=REPO,
            capture_output=True,
        )
        assert proc.returncode == 2, argv
        assert b"Traceback" not in proc.stderr, argv
        if "-1" in argv:
            assert proc.stderr == b"error: need n >= 0, got n = -1\n", argv
    assert not csv.exists()


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
