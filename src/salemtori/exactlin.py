"""Exact integer linear algebra.

Dense arbitrary-precision matrices with companion forms,
characteristic and minimal polynomials, Hermite and Smith normal forms,
integer kernels, and lattice saturation.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .exceptions import InputError, NotMonic, ZeroLattice
from .intpoly import IntPoly, gcd as poly_gcd


@dataclass(frozen=True)
class IntMatrix:
    rows: tuple  # tuple of row tuples

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        if not rows or not rows[0]:
            raise InputError("matrix dimensions must be positive")
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise InputError("ragged matrix")
        if any(not isinstance(c, int) for r in rows for c in r):
            raise InputError("integer entries required")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _of(cls, rows: tuple) -> "IntMatrix":
        """A matrix on rows already known to be a non-empty rectangular
        tuple of integer tuples, without the checks of the constructor."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    # ---- construction ----

    @staticmethod
    def parse(text: str) -> "IntMatrix":
        text = text.replace("−", "-").strip()
        try:
            return IntMatrix(
                tuple(
                    tuple(int(e.strip()) for e in row.split(","))
                    for row in text.split(";")
                )
            )
        except ValueError as exc:
            raise InputError(f"bad matrix literal: {text!r}") from exc

    def format(self) -> str:
        return ";".join(",".join(str(e) for e in row) for row in self.rows)

    def __str__(self):
        return self.format()

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(n: int, m: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * m for _ in range(n)))

    @staticmethod
    def from_columns(cols) -> "IntMatrix":
        cols = [tuple(c) for c in cols]
        return IntMatrix(tuple(zip(*cols)))

    # ---- shape ----

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def submatrix(self, row_idx, col_idx) -> "IntMatrix":
        return IntMatrix(tuple(tuple(self.rows[i][j] for j in col_idx) for i in row_idx))

    # ---- arithmetic ----

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._of(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._of(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __neg__(self):
        return IntMatrix._of(tuple(tuple(-a for a in r) for r in self.rows))

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise InputError("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix._of(tuple(tuple(a * other for a in r) for r in self.rows))
        if self.ncols != other.nrows:
            raise InputError("inner dimension mismatch")
        return IntMatrix._of(tuple(map(tuple, _times(self.rows, tuple(zip(*other.rows))))))

    __rmul__ = lambda self, other: self.__mul__(other)

    def __pow__(self, e: int):
        if not self.is_square():
            raise InputError("power of a non-square matrix")
        if e < 0:
            raise InputError(f"negative exponent {e}: integer matrices are not inverted")
        result = IntMatrix.identity(self.nrows)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def apply(self, v):
        """Matrix times column vector (tuple)."""
        if len(v) != self.ncols:
            raise InputError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(tuple(zip(*self.rows)))

    def trace(self) -> int:
        if not self.is_square():
            raise InputError("trace of a non-square matrix")
        return sum(self.rows[i][i] for i in range(self.nrows))

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        out = []
        for ra in self.rows:
            for rb in other.rows:
                out.append(tuple(a * b for a in ra for b in rb))
        return IntMatrix._of(tuple(out))

    def direct_sum(self, other: "IntMatrix") -> "IntMatrix":
        n1, m1 = self.nrows, self.ncols
        n2, m2 = other.nrows, other.ncols
        out = [tuple(r) + (0,) * m2 for r in self.rows]
        out += [(0,) * m1 + tuple(r) for r in other.rows]
        return IntMatrix._of(tuple(out))


def _times(rows, cols) -> list:
    """The product of the matrix with the given rows and the matrix with
    the given columns, as a list of row lists."""
    return [[sum(map(mul, r, c)) for c in cols] for r in rows]


def companion(p: IntPoly) -> IntMatrix:
    """Companion matrix: superdiagonal ones, last row the negated
    coefficients, so both characteristic and minimal polynomial equal p."""
    if not p.is_monic():
        raise NotMonic(str(p))
    d = p.degree
    if d < 1:
        raise InputError("companion needs degree >= 1")
    rows = [[0] * d for _ in range(d)]
    for i in range(d - 1):
        rows[i][i + 1] = 1
    for j in range(d):
        rows[d - 1][j] = -p.coeffs[j]
    return IntMatrix(tuple(tuple(r) for r in rows))


def matrix_poly_eval(p: IntPoly, a: IntMatrix) -> IntMatrix:
    """p(A) by Horner, adding each coefficient to the diagonal."""
    if not a.is_square():
        raise InputError("square matrix required")
    n = a.nrows
    if p.is_zero():
        return IntMatrix.zero(n, n)
    cols = tuple(zip(*a.rows))
    acc = [[0] * n for _ in range(n)]
    for i in range(n):
        acc[i][i] = p.lc
    for c in reversed(p.coeffs[:-1]):
        acc = _times(acc, cols)
        for i in range(n):
            acc[i][i] += c
    return IntMatrix._of(tuple(map(tuple, acc)))


def det(a: IntMatrix) -> int:
    """Fraction-free Bareiss determinant."""
    if not a.is_square():
        raise InputError("determinant of a non-square matrix")
    n = a.nrows
    m = [list(r) for r in a.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def char_poly(a: IntMatrix) -> IntPoly:
    """Exact characteristic polynomial via the Faddeev-LeVerrier recurrence.

    M_0 = I, c_k = -tr(A M_(k-1))/k and M_k = A M_(k-1) + c_k I.  Each M_k
    is a polynomial in A, so A M_k = M_k A is formed against the columns
    of A, and the last step needs only the trace."""
    if not a.is_square():
        raise InputError("square matrix required")
    n = a.nrows
    cols = tuple(zip(*a.rows))
    coeffs = [0] * n + [1]
    am = [list(r) for r in a.rows]  # A M_0
    t = a.trace()
    for k in range(1, n + 1):
        if t % k:
            raise ArithmeticError("non-integer trace step in characteristic polynomial")
        c = -(t // k)
        coeffs[n - k] = c
        if k == n:
            break
        for i in range(n):
            am[i][i] += c  # M_k
        if k + 1 < n:
            am = _times(am, cols)
            t = sum(am[i][i] for i in range(n))
        else:
            t = sum(sum(map(mul, r, col)) for r, col in zip(am, cols))
    return IntPoly(tuple(coeffs))


# ---------------------------------------------------------------------------
# minimal polynomial (Krylov, exact)


def _local_minimal_polynomial(rows, start: int) -> tuple:
    """Ascending coefficients of the monic minimal polynomial of A (given
    by its rows) on the unit vector e_start.

    The chain v_k = A^k e_start is reduced by cross-multiplication against
    the pivot rows of the earlier chain vectors.  Each reduced vector keeps
    its integer combination of v_0..v_k, and both are divided by their
    common content.  When v_k reduces to zero, its combination is an
    integer multiple of the local minimal polynomial (Bareiss, Math. Comp.
    22, 1968; Cohen, GTM 138, ch. 2).
    """
    n = len(rows)
    basis = []  # (pivot, reduced vector, combination of the chain vectors)
    v = [0] * n
    v[start] = 1
    k = 0
    while True:
        w = v
        comb = [0] * k + [1]
        for piv, b, bc in basis:
            c = w[piv]
            if c:
                d = b[piv]
                w = [d * x - c * y for x, y in zip(w, b)]
                comb = [d * x - c * y for x, y in zip(comb, bc)] + [d * x for x in comb[len(bc):]]
        if not any(w):
            lead = comb[-1]
            if any(x % lead for x in comb):
                raise ArithmeticError("non-integer minimal polynomial coefficients")
            return tuple(x // lead for x in comb)
        g = math.gcd(*w, *comb)
        if g > 1:
            w = [x // g for x in w]
            comb = [x // g for x in comb]
        basis.append((next(i for i, x in enumerate(w) if x), w, comb))
        v = [sum(map(mul, r, v)) for r in rows]
        k += 1


def minimal_polynomial(a: IntMatrix) -> IntPoly:
    """Monic minimal polynomial; integer coefficients for integer input."""
    if not a.is_square():
        raise InputError("square matrix required")
    n = a.nrows
    result = IntPoly((1,))
    covered_degree = 0
    for start in range(n):
        if covered_degree >= n:
            break
        local = IntPoly(_local_minimal_polynomial(a.rows, start))
        result = _poly_lcm(result, local)
        covered_degree = max(covered_degree, result.degree)
        if result.degree == n:
            break
    return result


def _poly_lcm(f: IntPoly, g: IntPoly) -> IntPoly:
    if f.degree < 1:
        return g
    if g.degree < 1:
        return f
    d = poly_gcd(f, g)
    out = (f * g).div_exact(d)
    if out.lc < 0:
        out = -out
    return out


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms, kernels, lattices


def hnf_columns(a: IntMatrix) -> IntMatrix:
    """Column Hermite normal form of the column lattice of a.

    Returns an n x r matrix (r = rank) whose columns are the unique HNF
    basis: pivots positive, strictly increasing pivot rows, and entries to
    the left of each pivot reduced into [0, pivot).
    """
    n, m = a.nrows, a.ncols
    cols = [list(a.column(j)) for j in range(m)]
    out = []
    row = 0
    while row < n and cols:
        # gcd-reduce all columns on this row
        while True:
            nz = [c for c in cols if c[row] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[row]))
            base = nz[0]
            for c in nz[1:]:
                q = c[row] // base[row]
                for i in range(n):
                    c[i] -= q * base[i]
        nz = [c for c in cols if c[row] != 0]
        if nz:
            piv = nz[0]
            cols.remove(piv)
            if piv[row] < 0:
                piv = [-x for x in piv]
            # reduce earlier pivots' entries in this row
            for prev in out:
                q = prev[row] // piv[row]
                if q:
                    for i in range(n):
                        prev[i] -= q * piv[i]
            out.append(piv)
        row += 1
    out_cols = [tuple(c) for c in out]
    if not out_cols:
        raise ZeroLattice("column lattice is zero")
    return IntMatrix.from_columns(out_cols)


def _apply_row_op(mats, op, *args):
    """Apply an elementary row operation to each matrix in mats (in place,
    as lists of lists)."""
    kind = op
    if kind == "swap":
        i, j = args
        for m in mats:
            m[i], m[j] = m[j], m[i]
    elif kind == "neg":
        (i,) = args
        for m in mats:
            m[i] = [-x for x in m[i]]
    elif kind == "add":
        i, j, k = args  # row_i += k * row_j
        for m in mats:
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]


def smith_normal_form(a: IntMatrix):
    """Smith normal form with transforms.

    Returns (s, p, pinv, q, qinv) with s = p * a * q, p and q unimodular,
    s diagonal with d_1 | d_2 | ... | d_r positive.
    """
    n, m = a.nrows, a.ncols
    s = [list(r) for r in a.rows]
    p = [list(r) for r in IntMatrix.identity(n).rows]
    pinv = [list(r) for r in IntMatrix.identity(n).rows]
    q = [list(r) for r in IntMatrix.identity(m).rows]
    qinv = [list(r) for r in IntMatrix.identity(m).rows]

    def row_op(op, *args):
        _apply_row_op([s, p], op, *args)
        # pinv gets the inverse op applied on columns: track via transpose
        if op == "swap":
            i, j = args
            for r in pinv:
                r[i], r[j] = r[j], r[i]
        elif op == "neg":
            (i,) = args
            for r in pinv:
                r[i] = -r[i]
        elif op == "add":
            i, j, k = args
            for r in pinv:
                r[j] -= k * r[i]

    def col_op(op, *args):
        if op == "swap":
            i, j = args
            for r in s:
                r[i], r[j] = r[j], r[i]
            for r in q:
                r[i], r[j] = r[j], r[i]
            qinv[i], qinv[j] = qinv[j], qinv[i]
        elif op == "neg":
            (i,) = args
            for r in s:
                r[i] = -r[i]
            for r in q:
                r[i] = -r[i]
            qinv[i] = [-x for x in qinv[i]]
        elif op == "add":
            i, j, k = args  # col_i += k * col_j
            for r in s:
                r[i] += k * r[j]
            for r in q:
                r[i] += k * r[j]
            qinv[j] = [x - k * y for x, y in zip(qinv[j], qinv[i])]

    t = 0
    while t < min(n, m):
        # find a nonzero pivot in the lower-right block
        piv = None
        for i in range(t, n):
            for j in range(t, m):
                if s[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            row_op("swap", t, i0)
        if j0 != t:
            col_op("swap", t, j0)
        while True:
            # clear column t with row ops
            again = False
            for i in range(t + 1, n):
                if s[i][t] != 0:
                    qd = s[i][t] // s[t][t]
                    row_op("add", i, t, -qd)
                    if s[i][t] != 0:
                        row_op("swap", t, i)
                        again = True
            for j in range(t + 1, m):
                if s[t][j] != 0:
                    qd = s[t][j] // s[t][t]
                    col_op("add", j, t, -qd)
                    if s[t][j] != 0:
                        col_op("swap", t, j)
                        again = True
            if not again:
                break
        if s[t][t] < 0:
            row_op("neg", t)
        # enforce divisibility d_t | entries below-right
        fixed = True
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if s[i][j] % s[t][t] != 0:
                    row_op("add", t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            t += 1
    sm = IntMatrix(tuple(tuple(r) for r in s))
    return (
        sm,
        IntMatrix(tuple(tuple(r) for r in p)),
        IntMatrix(tuple(tuple(r) for r in pinv)),
        IntMatrix(tuple(tuple(r) for r in q)),
        IntMatrix(tuple(tuple(r) for r in qinv)),
    )


def rank(a: IntMatrix) -> int:
    s, *_ = smith_normal_form(a)
    return sum(1 for i in range(min(s.nrows, s.ncols)) if s.rows[i][i] != 0)


def kernel_basis(a: IntMatrix):
    """Basis columns of the integer kernel lattice {v : a v = 0}; the basis
    is automatically saturated.  Returns a list of tuples (possibly empty)."""
    s, p, pinv, q, qinv = smith_normal_form(a)
    r = sum(1 for i in range(min(s.nrows, s.ncols)) if s.rows[i][i] != 0)
    return [q.column(j) for j in range(r, a.ncols)]


@dataclass(frozen=True)
class Lattice:
    """Sublattice of ZZ^ambient spanned by the columns of basis, stored in
    column Hermite normal form so equality is canonical."""

    ambient: int
    basis: IntMatrix

    @staticmethod
    def from_columns(ambient: int, cols) -> "Lattice":
        cols = [tuple(c) for c in cols]
        if not cols or any(len(c) != ambient for c in cols):
            raise ZeroLattice("no generating columns")
        if all(all(x == 0 for x in c) for c in cols):
            raise ZeroLattice("zero lattice")
        return Lattice(ambient, hnf_columns(IntMatrix.from_columns(cols)))

    @staticmethod
    def full(ambient: int) -> "Lattice":
        return Lattice(ambient, IntMatrix.identity(ambient))

    @property
    def rank(self) -> int:
        return self.basis.ncols

    def contains(self, v) -> bool:
        sol = solve_columns_exact(self.basis, [tuple(v)])
        if sol is None:
            return False
        return all(c.denominator == 1 for c in sol[0])

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(self.contains(c) for c in other.basis.columns())


def solve_columns_exact(b: IntMatrix, targets):
    """Solve b x = target over QQ for each target column; returns a list of
    Fraction tuples or None if any system is inconsistent.  Free
    coordinates are zero.

    Gauss-Jordan elimination runs on integer rows: a row is cleared by
    cross-multiplication with the pivot row and divided by its content.
    Only the returned values are Fractions."""
    n, r = b.nrows, b.ncols
    aug = [list(b.rows[i]) + [t[i] for t in targets] for i in range(n)]
    pivots = []
    rr = 0
    for col in range(r):
        sel = next((i for i in range(rr, n) if aug[i][col]), None)
        if sel is None:
            continue
        aug[rr], aug[sel] = aug[sel], aug[rr]
        prow = aug[rr]
        p = prow[col]
        for i in range(n):
            c = aug[i][col]
            if i != rr and c:
                row = [p * x - c * y for x, y in zip(aug[i], prow)]
                g = math.gcd(*row)
                aug[i] = [x // g for x in row] if g > 1 else row
        pivots.append((col, rr))
        rr += 1
    # consistency: rows beyond rr must have zero right-hand sides
    if any(any(aug[i][r:]) for i in range(rr, n)):
        return None
    sols = []
    for j in range(r, r + len(targets)):
        x = [Fraction(0)] * r
        for col, i in pivots:
            x[col] = Fraction(aug[i][j], aug[i][col])
        sols.append(tuple(x))
    return sols


def saturate(lat: Lattice) -> Lattice:
    """Primitive closure: same rational span, torsion-free quotient."""
    b = lat.basis
    s, p, pinv, q, qinv = smith_normal_form(b)
    r = sum(1 for i in range(min(s.nrows, s.ncols)) if s.rows[i][i] != 0)
    if r == 0:
        raise ZeroLattice("zero lattice")
    cols = [pinv.column(i) for i in range(r)]
    return Lattice.from_columns(lat.ambient, cols)


def restricted_matrix(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The matrix c with a*b = b*c, for a lattice basis b stable under a.

    Raises ArithmeticError if the column span is not a-stable or c is not
    integral.
    """
    ab = a * b
    sols = solve_columns_exact(b, [ab.column(j) for j in range(b.ncols)])
    if sols is None:
        raise ArithmeticError("column span is not stable")
    for col in sols:
        if any(c.denominator != 1 for c in col):
            raise ArithmeticError("restriction is not integral")
    return IntMatrix.from_columns([tuple(int(c) for c in col) for col in sols])
