"""stabdb: enumeration and classification of small binary stabilizer codes.

The package enumerates every stabilizer code on n qubits up to local
Clifford operations combined with qubit permutations, computes per-class
invariants (distance, weight enumerator, CSS / GF(4)-linearity /
decomposability / evenness flags, symmetry group order), certifies the
census against an exact counting identity, and stores the result as a
queryable flat-file database.

Modules
-------
f2core      packed GF(2) linear algebra (rank, RREF, kernels)
pauli       phase-free Pauli operators as packed rows, stabilizer groups
transform   local Clifford + permutation symmetries (the symmetry group)
canon       colored-graph canonical forms, class keys, automorphism orders
properties  distance, enumerators, CSS / GF(4) / decomposability tests
search      class enumeration by extension and by graph-state dressing
verify      exact mass-formula certification of class counts
db          JSONL record store with query and distribution helpers
"""

from .f2core import kernel, rank, rref
from .pauli import StabGroup, centralizer, format_pauli, parse_pauli, symplectic_product

__version__ = "0.1.0"

__all__ = [
    "kernel",
    "rank",
    "rref",
    "StabGroup",
    "centralizer",
    "format_pauli",
    "parse_pauli",
    "symplectic_product",
    "__version__",
]
