"""The demos run to completion, print what they show, and clean up."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

FIVE_QUBIT_TOUR = """\
generators:
   XZZXI
   IXZZX
   XIXZZ
   ZXIXZ

n = 5  k = 1  d = 3
weight enumerator: [1, 0, 0, 0, 15, 0]
CSS: False
GF(4)-linear: True
degenerate: False
even: True
decomposes: False
|Aut| = 360
nonidentity elements: 15

graph adjacency rows:
   01001
   10100
   01010
   00101
   10010
classical generator rows: ['11111']
round trip equivalent: True
same canonical key: True
"""

GRAPH_STATE_ORBITS = """\
n=1: 1 graph orbits from 1 x 1 candidates
n=2: 2 graph orbits from 1 x 2 candidates
n=3: 3 graph orbits from 2 x 4 candidates
n=4: 6 graph orbits from 3 x 8 candidates
n=5: 11 graph orbits from 6 x 16 candidates
n=6: 26 graph orbits from 11 x 32 candidates

n=5: orbit keys == class keys: True
   0 edges  00000,00000,00000,00000,00000
   1 edges  00001,00000,00000,00000,10000
   2 edges  01000,10000,00010,00100,00000
   2 edges  01100,10000,10000,00000,00000
   3 edges  01001,10000,00010,00100,10000
   3 edges  01100,10010,10000,01000,00000
   3 edges  01110,10000,10000,10000,00000
   4 edges  01111,10000,10000,10000,10000
   4 edges  01001,10000,00011,00100,10100
   4 edges  01101,10010,10000,01000,10000
   5 edges  01100,10010,10001,01001,00110
"""


def test_demos_run_and_clean_up(tmp_path):
    demos = sorted((REPO / "demos").glob("*.py"))
    assert [d.name for d in demos] == [
        "enumerate_small_codes.py",
        "five_qubit_code_tour.py",
        "graph_state_orbits.py",
        "query_database.py",
    ]
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(p for p in path if p),
        TMPDIR=str(tmp_path),
    )
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, (demo.name, proc.stderr)
        if demo.name == "five_qubit_code_tour.py":
            assert proc.stdout == FIVE_QUBIT_TOUR
        if demo.name == "graph_state_orbits.py":
            assert proc.stdout == GRAPH_STATE_ORBITS
    # query_database.py writes its database under TMPDIR and removes it
    assert not list(tmp_path.glob("stabdb_demo_*"))
