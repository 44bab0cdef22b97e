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
pauli       phase-free Pauli operators and stabilizer groups
transform   local Clifford + permutation symmetries, reduced standard form
canon       colored-graph canonical forms, class keys, automorphism orders
properties  distance, enumerators, CSS / GF(4) / decomposability tests
search      class enumeration by extension and by graph-state dressing
verify      exact mass-formula certification of class counts
db          JSONL record store with query and distribution helpers
"""

from .f2core import BitMatrix, BitVec, kernel, rank, rref
from .pauli import (
    PauliOp,
    StabGroup,
    centralizer,
    format_pauli,
    parse_pauli,
    span_elements,
    symplectic_product,
)

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "BitVec",
    "kernel",
    "rank",
    "rref",
    "PauliOp",
    "StabGroup",
    "centralizer",
    "format_pauli",
    "parse_pauli",
    "span_elements",
    "symplectic_product",
    "__version__",
]
