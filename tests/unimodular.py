"""Unimodular completion, used by the lattice tests as an independent
route to quotient blocks."""

from salemtori.exactlin import IntMatrix, det, smith_normal_form
from salemtori.exceptions import BadRank


def unimodular_completion(b: IntMatrix) -> IntMatrix:
    """Extend the primitive columns of b to a basis of ZZ^n.

    Returns a unimodular n x n matrix whose first b.ncols columns equal b.
    With s = p b q the Smith form (all invariant factors 1), the product
    pinv * diag(qinv, I) starts with the columns pinv[:, :r] qinv = b.
    """
    n, r = b.nrows, b.ncols
    s, _p, pinv, _q, qinv = smith_normal_form(b)
    for i in range(r):
        if s.rows[i][i] != 1:
            raise BadRank("columns are not a primitive basis")
    blk = qinv.direct_sum(IntMatrix.identity(n - r)) if n > r else qinv
    return pinv * blk


def is_unimodular(a: IntMatrix) -> bool:
    return a.is_square() and abs(det(a)) == 1
