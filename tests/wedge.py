"""Exterior powers and the second additive compound of integer matrices,
built from minors.  The library builds the char polys of these actions
from power sums (``intpoly.exterior_resolvent``, ``composed_product``);
the tests use the matrix forms as an independent oracle."""

import itertools

from salemtori.exactlin import IntMatrix, det
from salemtori.exceptions import BadRank, InputError


def wedge_power(a: IntMatrix, k: int) -> IntMatrix:
    """Action on the k-th exterior power; basis = sorted k-subsets in
    lexicographic order; entries are k-by-k minors."""
    if not a.is_square():
        raise InputError("square matrix required")
    n = a.nrows
    if k < 1 or k > n:
        raise BadRank(f"wedge power {k} of a {n}x{n} matrix")
    subsets = list(itertools.combinations(range(n), k))
    rows = []
    for s in subsets:
        row = []
        for t in subsets:
            row.append(det(a.submatrix(s, t)))
        rows.append(tuple(row))
    return IntMatrix(tuple(rows))


def wedge_basis(n: int, k: int):
    """The global index order used by wedge_power."""
    return list(itertools.combinations(range(n), k))


def additive_compound2(a: IntMatrix) -> IntMatrix:
    """Second additive compound: eigenvalues are pairwise sums
    lambda_i + lambda_j (i < j), on the same lexicographic pair basis
    as wedge_power(.., 2)."""
    if not a.is_square():
        raise InputError("square matrix required")
    n = a.nrows
    pairs = wedge_basis(n, 2)
    index = {p: i for i, p in enumerate(pairs)}
    out = [[0] * len(pairs) for _ in range(len(pairs))]

    def add_wedge(row_i, row_j, col, coef):
        if row_i == row_j:
            return
        if row_i < row_j:
            out[index[(row_i, row_j)]][col] += coef
        else:
            out[index[(row_j, row_i)]][col] -= coef

    for col, (k, l) in enumerate(pairs):
        for i in range(n):
            add_wedge(i, l, col, a.rows[i][k])
            add_wedge(k, i, col, a.rows[i][l])
    return IntMatrix(tuple(tuple(r) for r in out))
