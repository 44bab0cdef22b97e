"""
Building and querying a code database
=====================================

Enumerates everything up to 4 qubits, writes one JSON-lines file per
(n, k) cell, and then answers structural questions by filtering records:
which [[4, k]] codes detect an error (d = 2)?  which are CSS?  how do the
counts distribute over (n, k, d)?
"""

import tempfile

from stabdb.db import Database, Query, build_records, emit_distributions, query, write_db
from stabdb.search import enumerate_classes

classes = {}
for n in range(1, 5):
    classes.update(enumerate_classes(n))
records = build_records(classes)

# the database lives in a temporary directory that is removed on exit
with tempfile.TemporaryDirectory(prefix="stabdb_demo_") as outdir:
    paths = write_db(records, outdir)
    print(f"wrote {len(paths)} cell files to {outdir}")

    db = Database(outdir)

    # distance-2 classes on 4 qubits that protect at least one logical qubit
    hits = query(db, Query.from_filters(n=4, d=2))
    hits = [r for r in hits if r.k >= 1]
    print()
    print("[[4, k>=1, 2]] classes:")
    for r in hits:
        flags = []
        if r.is_css:
            flags.append("css")
        if not r.is_decomposable:
            flags.append("indecomposable")
        print(f"  k={r.k} index={r.index} w={r.weight_enumerator}",
              f"|Aut|={r.aut_group_size}", " ".join(flags))

    # the same filters the command line exposes compose conjunctively
    css = query(db, Query.from_filters(n=4, k=1, is_css=True))
    print()
    print("CSS [[4,1]] classes:", len(css))

    # records carry their generators, so any hit can be rebuilt and probed
    g = hits[0].group()
    print("first hit regenerated: n =", g.n, " k =", g.k)

    # the full (n, k, d) histogram, with the indecomposable refinement
    print()
    print(emit_distributions(db, 4))
