"""
A tour of the five-qubit code
=============================

Builds the perfect [[5, 1, 3]] stabilizer code from its cyclic generators
and inspects everything the library can say about it: minimum distance,
weight enumerator of the stabilizer, structural flags, symmetry group
order, and its codeword-stabilized form (a graph state plus a classical
binary code).
"""

from stabdb.canon import are_equivalent, aut_size, class_key
from stabdb.f2core import span
from stabdb.pauli import StabGroup, format_pauli
from stabdb.properties import (
    css_rank_test,
    decompose,
    distance,
    gf4_linear_test,
    is_degenerate,
    is_even,
    weight_enumerator,
)
from stabdb.search import cws_to_stabilizer, stabilizer_to_cws

g = StabGroup.from_strings(["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"], 5)

print("generators:")
for row in g.rows:
    print("  ", format_pauli(row, g.n))

print()
print("n =", g.n, " k =", g.k, " d =", distance(g))
print("weight enumerator:", list(weight_enumerator(g).coeffs))
print("CSS:", css_rank_test(g))
print("GF(4)-linear:", gf4_linear_test(g))
print("degenerate:", is_degenerate(g))
print("even:", is_even(g))
print("decomposes:", decompose(g).length > 1)
print("|Aut| =", aut_size(g))

# every nonidentity stabilizer element has weight 4: the enumerator says
# 15 of them, which is the whole group minus the identity.  A packed row's
# support is its X half OR its Z half.
qubits = (1 << g.n) - 1
elems = [row for row in span(g.rows) if row]
print("nonidentity elements:", len(elems))
assert all(((row | row >> g.n) & qubits).bit_count() == 4 for row in elems)

# codeword-stabilized form: a graph state and a classical code over GF(2).
# For this code the graph is the 5-cycle and the classical code is the
# repetition span {00000, 11111}.
gs, words = stabilizer_to_cws(g)
print()
print("graph adjacency rows:")
for row in gs.adjacency:
    print("  ", format(row, f"0{g.n}b")[::-1])
print("classical generator rows:", [format(r, f"0{g.n}b")[::-1] for r in words])

# converting back lands in the same equivalence class
h = cws_to_stabilizer(gs, words)
print("round trip equivalent:", are_equivalent(g, h))
print("same canonical key:", class_key(g) == class_key(h))
