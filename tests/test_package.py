"""Package-level checks."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import stabdb
from stabdb.search import ClassEntry

MODULES = ["stabdb"] + [
    f"stabdb.{m.name}" for m in pkgutil.iter_modules(stabdb.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_readme_library_block():
    # README's library example runs, and each value a comment states for a
    # bare expression is the value it evaluates to
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    lines = block.splitlines()
    checked = 0
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code, _, comment = lines[stmt.lineno - 1].partition("#")
            expect = ast.literal_eval(comment.strip())
            assert eval(code, namespace) == expect, code
            checked += 1
    assert checked == 5
    # the two comments that describe rather than state a value
    classes = namespace["classes"]
    assert sorted(classes) == [(4, k) for k in range(5)]
    assert all(isinstance(e, ClassEntry) for v in classes.values() for e in v)
    cycle = [(1 << (j + 1) % 5) | (1 << (j - 1) % 5) for j in range(5)]
    assert namespace["graph"].adjacency == tuple(cycle)
    assert namespace["words"] == (0b11111,)  # spans {00000, 11111}
