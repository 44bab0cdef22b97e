"""Exact counting identities certifying enumeration completeness.

Every equivalence class contributes |LCP(n)| / |Aut| labeled groups, so
the class list for a cell (n, k) is complete and duplicate-free exactly
when those orbit sizes sum to the number of distinct stabilizer groups,
a closed-form product.  All arithmetic is exact integer arithmetic; any
non-divisibility is a hard error rather than a failed check, since it
can only come from a wrong automorphism order.
"""

import math


def gaussian_coeff(n: int, k: int) -> int:
    """Gaussian binomial [n k]_2: subspaces of dimension k in F_2^n."""
    if k < 0 or k > n:
        return 0
    num = math.prod((1 << (n - i)) - 1 for i in range(k))
    den = math.prod((1 << (k - i)) - 1 for i in range(k))
    return num // den


def lcperm_order(n: int) -> int:
    """Order of the local transformation group: 6^n qubit-wise symbol
    permutations times n! qubit relabelings."""
    return 6**n * math.factorial(n)


def nlp_count(n: int, k: int) -> int:
    """Number of distinct rank n-k stabilizer groups on n qubits.

    A group is a self-orthogonal subspace of the symplectic space F_2^2n:
    count full flags of isotropic extensions and divide out the subgroup
    count, which collapses to [n k]_2 * prod_{i=0}^{n-k-1} (2^(n-i) + 1).
    """
    if k < 0 or k > n:
        return 0
    return gaussian_coeff(n, k) * math.prod(
        (1 << (n - i)) + 1 for i in range(n - k)
    )


def mass_check(classes, n: int, k: int) -> tuple:
    """Certify a class list for cell (n, k) against the group count.

    classes is an iterable of (key, aut_size) pairs.  Returns
    (lhs, rhs, ok) where lhs sums the exact orbit sizes
    |LCP(n)| / aut_size and rhs = nlp_count(n, k); ok means equality.
    Raises ValueError when some aut_size fails to divide the group order.
    """
    order = lcperm_order(n)
    lhs = 0
    for key, aut in classes:
        if aut <= 0 or order % aut:
            raise ValueError(
                f"automorphism order {aut} does not divide {order} "
                f"(class {key!r})"
            )
        lhs += order // aut
    rhs = nlp_count(n, k)
    return lhs, rhs, lhs == rhs
