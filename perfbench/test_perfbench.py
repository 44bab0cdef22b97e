"""Smoke tests of the benchmark on tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name, seed, workdir):
    if name == "census-n5":
        return workloads.Census(seed, workdir, n=3)
    if name == "classify-n7":
        return workloads.Classify(seed, workdir, per_base=1)
    return workloads.DbQuery(seed, workdir, nmax=3, n_ops=100)


def test_workloads_match_spec():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_end_to_end(name, tmp_path):
    wl = tiny(name, 1, tmp_path)
    runner = run.Runner(wl)
    metrics, summary = run.end_to_end(runner, 0, 0.5, lambda count: [0.5] * count)
    assert summary["setup_samples"] == [0.5] * 9
    assert runner.failed == 0
    assert runner.attempted == summary["op_samples"] == 3 * len(wl.ops)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_traced(name, tmp_path):
    wl = tiny(name, 2, tmp_path)
    runner = run.Runner(wl)
    metrics, summary = run.traced(runner, 0, tmp_path / "trace.jsonl")
    assert runner.failed == 0
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert summary["passes"] == 1
    assert (tmp_path / "trace.jsonl").stat().st_size > 0


def test_census_counts_agree_with_outputs(tmp_path):
    wl = tiny("census-n5", 1, tmp_path)
    metrics, _ = run.traced(run.Runner(wl), 0, tmp_path / "trace.jsonl")
    value = {name: v for name, (v, _) in metrics.items()}
    assert value["canon.class_key.calls"] == value["search.extend_class.candidates"] + 1
    assert value["search.classes_found"] == value["canon.canonical_form.calls"] == 12
    assert value["verify.mass_check.calls"] == 4


@pytest.mark.parametrize("name", ["classify-n7", "db-query"])
def test_seeded_op_lists(name, tmp_path):
    def ops(seed):
        return json.dumps(tiny(name, seed, tmp_path).ops, sort_keys=True)

    def mix(text):
        return Counter(
            (op["kind"], op.get("base"), len(op.get("gens", ()))) for op in json.loads(text)
        )

    a, b, c = ops(7), ops(7), ops(8)
    assert a == b
    assert a != c
    assert mix(a) == mix(c)


def test_op_type_shares(tmp_path):
    db_kinds = Counter(op["kind"] for op in tiny("db-query", 4, tmp_path).ops)
    assert db_kinds == workloads.DB_MIX
    classify_kinds = Counter(op["kind"] for op in tiny("classify-n7", 4, tmp_path).ops)
    assert classify_kinds["random"] == 3 * classify_kinds["image"]


def test_checks_catch_wrong_outputs(tmp_path, monkeypatch):
    wl = tiny("db-query", 3, tmp_path)
    query = next(op for op in wl.ops if op["kind"] == "warm")
    out = wl.run(query)
    assert wl.check(query, out) == []
    assert wl.check(query, out + [wl.reference[0]]) == ["warm_query_result"]

    census = tiny("census-n5", 1, tmp_path)
    op = census.ops[0]
    out = census.run(op)
    assert census.check(op, out) == []
    monkeypatch.setitem(workloads.GOLDEN, 3, "0" * 64)
    assert census.check(op, out) == ["golden_digest"]
    out["digest"] = "0" * 64
    assert census.check(op, out) == ["digest_repeats"]


def test_raising_op_counts_as_failed(tmp_path):
    wl = tiny("census-n5", 1, tmp_path)
    wl.ops = [{"kind": "census", "n": -1}]
    runner = run.Runner(wl)
    runner.one_pass(wl.run)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_tail_percentile():
    assert run.tail_percentile(range(1, 101)) == 90
    assert run.tail_percentile(range(1, 100)) == 99


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-n5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
