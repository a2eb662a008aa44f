"""Exact integer linear algebra.

Dense arbitrary-precision matrices with companion forms,
characteristic and minimal polynomials, Hermite and Smith normal forms,
integer kernels, and lattice saturation.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
        return IntMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __neg__(self):
        return IntMatrix(tuple(tuple(-a for a in r) for r in self.rows))

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise InputError("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix(tuple(tuple(a * other for a in r) for r in self.rows))
        if self.ncols != other.nrows:
            raise InputError("inner dimension mismatch")
        bt = tuple(zip(*other.rows))
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
                for row in self.rows
            )
        )

    __rmul__ = lambda self, other: self.__mul__(other)

    def __pow__(self, e: int):
        if not self.is_square():
            raise InputError("power of a non-square matrix")
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
        return IntMatrix(tuple(zip(*self.rows)))

    def trace(self) -> int:
        if not self.is_square():
            raise InputError("trace of a non-square matrix")
        return sum(self.rows[i][i] for i in range(self.nrows))

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        out = []
        for ra in self.rows:
            for rb in other.rows:
                out.append(tuple(a * b for a in ra for b in rb))
        return IntMatrix(tuple(out))

    def direct_sum(self, other: "IntMatrix") -> "IntMatrix":
        n1, m1 = self.nrows, self.ncols
        n2, m2 = other.nrows, other.ncols
        out = [tuple(r) + (0,) * m2 for r in self.rows]
        out += [(0,) * m1 + tuple(r) for r in other.rows]
        return IntMatrix(tuple(out))


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
    """p(A) by Horner."""
    if not a.is_square():
        raise InputError("square matrix required")
    n = a.nrows
    acc = IntMatrix.zero(n, n)
    for c in reversed(p.coeffs if p.coeffs else (0,)):
        acc = acc * a + c * IntMatrix.identity(n)
    return acc


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
    """Exact characteristic polynomial via the Faddeev-LeVerrier recurrence."""
    if not a.is_square():
        raise InputError("square matrix required")
    n = a.nrows
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = IntMatrix.identity(n)
    for k in range(1, n + 1):
        am = a * m
        t = am.trace()
        if t % k:
            raise ArithmeticError("non-integer trace step in characteristic polynomial")
        c = -(t // k)
        coeffs[n - k] = c
        if k < n:
            m = am + c * IntMatrix.identity(n)
    return IntPoly(tuple(coeffs))


# ---------------------------------------------------------------------------
# minimal polynomial (Krylov, exact)


def _frac_rref_insert(basis, v):
    """Reduce v against the row basis (list of (pivot, row)); return the
    reduced vector, or None if v reduces to zero."""
    v = list(v)
    for pivot, row in basis:
        if v[pivot] != 0:
            c = v[pivot]
            v = [x - c * y for x, y in zip(v, row)]
    for i, x in enumerate(v):
        if x != 0:
            inv = Fraction(1) / x
            return i, [y * inv for y in v]
    return None


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
        v = tuple(Fraction(int(i == start)) for i in range(n))
        # Krylov chain for this vector with exact elimination
        basis = []
        chain = [v]
        cur = v
        while True:
            red = _frac_rref_insert(basis, cur)
            if red is None:
                break
            basis.append(red)
            cur = tuple(
                sum(Fraction(a.rows[i][j]) * cur[j] for j in range(n)) for i in range(n)
            )
            chain.append(cur)
        # chain[-1] depends on chain[:-1]: solve for the combination
        k = len(chain) - 1
        if k == 0:
            continue
        coeffs = _solve_dependency(chain[:-1], chain[-1], n)
        local = IntPoly(tuple(-int(c) for c in coeffs) + (1,))
        result = _poly_lcm(result, local)
        covered_degree = max(covered_degree, result.degree)
        if result.degree == n:
            break
    return result


def _solve_dependency(vectors, target, n):
    """Solve sum c_i vectors[i] = target exactly; solution is unique and
    integral for the Krylov chains produced above."""
    k = len(vectors)
    # Gaussian elimination on the k x (n+1) augmented system (transposed)
    aug = [[vectors[i][r] for i in range(k)] + [target[r]] for r in range(n)]
    aug = [[Fraction(x) for x in row] for row in aug]
    piv_rows = []
    col = 0
    r0 = 0
    for col in range(k):
        sel = None
        for r in range(r0, n):
            if aug[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        aug[r0], aug[sel] = aug[sel], aug[r0]
        inv = Fraction(1) / aug[r0][col]
        aug[r0] = [x * inv for x in aug[r0]]
        for r in range(n):
            if r != r0 and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [x - c * y for x, y in zip(aug[r], aug[r0])]
        piv_rows.append((col, r0))
        r0 += 1
    sol = [Fraction(0)] * k
    for col, r in piv_rows:
        sol[col] = aug[r][k]
    for c in sol:
        if c.denominator != 1:
            raise ArithmeticError("non-integer minimal polynomial coefficients")
    return sol


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
    Fraction tuples or None if any system is inconsistent."""
    n, r = b.nrows, b.ncols
    k = len(targets)
    aug = [[Fraction(b.rows[i][j]) for j in range(r)] + [Fraction(t[i]) for t in targets] for i in range(n)]
    pivots = []
    rr = 0
    for col in range(r):
        sel = None
        for i in range(rr, n):
            if aug[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        aug[rr], aug[sel] = aug[sel], aug[rr]
        inv = Fraction(1) / aug[rr][col]
        aug[rr] = [x * inv for x in aug[rr]]
        for i in range(n):
            if i != rr and aug[i][col] != 0:
                c = aug[i][col]
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[rr])]
        pivots.append((col, rr))
        rr += 1
    # consistency: rows beyond rr must have zero right-hand sides
    for i in range(rr, n):
        if any(aug[i][r + j] != 0 for j in range(k)):
            return None
    sols = []
    for j in range(k):
        x = [Fraction(0)] * r
        for col, i in pivots:
            x[col] = aug[i][r + j]
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
