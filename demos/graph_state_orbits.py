"""
Graph states, grown one vertex at a time
========================================

Every maximal stabilizer group (k = 0) is locally equivalent to a graph
state, and two graph states are equivalent exactly when their graphs are
related by local complementations plus vertex relabelings.  So the k = 0
classes can be counted on graphs alone, and grown one vertex at a time:
give each class representative on m - 1 vertices a new vertex with every
possible neighbourhood, and keep one graph per class.  A local
complementation away from the new vertex acts on the other vertices as it
would without it, so no class on m vertices is missed.  The chain runs
1, 2, 3, 6, 11, 26.
"""

from stabdb.canon import class_key
from stabdb.search import enumerate_classes, graphstate_orbits

# each call grows its chain from the graph on no vertices; the candidates
# at n are the n - 1 representatives times the 2^(n-1) neighbourhoods of
# the new vertex
previous = 1
for n in range(1, 7):
    orbits = graphstate_orbits(n)
    grown = f"from {previous} x {1 << (n - 1)} candidates"
    print(f"n={n}: {len(orbits)} graph orbits {grown}")
    previous = len(orbits)
assert previous == 26

# the correspondence is exact, not just numerical: the stabilizers of the
# orbit representatives hit every canonical key of the census's k = 0
# cell once
n = 5
orbits = graphstate_orbits(n)
keys = {class_key(gs.stabilizer()) for gs in orbits}
expect = {e.key for e in enumerate_classes(n)[(n, 0)]}
print()
print(f"n={n}: orbit keys == class keys:", keys == expect)
assert keys == expect

# the n = 5 orbit representatives, one adjacency per line (rows joined
# by commas), sorted by edge count: from the empty graph to dense ones
for gs in sorted(orbits, key=lambda gs: sum(r.bit_count() for r in gs.adjacency)):
    rows = ",".join(format(r, "05b")[::-1] for r in gs.adjacency)
    edges = sum(r.bit_count() for r in gs.adjacency) // 2
    print(f"  {edges:2d} edges  {rows}")
