"""Exact linear algebra tests: normal forms, compounds, polynomials.

The characteristic and minimal polynomials, p(A) and the column solves
run on integers.  The property tests compare them with the forms the
library used before, kept below as oracles: Krylov elimination and
column solves over ``Fraction``, and Faddeev-LeVerrier and Horner on
plain nested lists.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from salemtori import exactlin
from salemtori.exceptions import BadRank, InputError, NotMonic, ZeroLattice
from salemtori.exactlin import (
    IntMatrix,
    Lattice,
    char_poly,
    companion,
    det,
    hnf_columns,
    kernel_basis,
    matrix_poly_eval,
    minimal_polynomial,
    rank,
    restricted_matrix,
    saturate,
    smith_normal_form,
    solve_columns_exact,
)
from salemtori.intpoly import IntPoly, squarefree_part
from salemtori.salem import gross_mcmullen
from unimodular import is_unimodular, unimodular_completion
from wedge import additive_compound2, wedge_basis, wedge_power

P1 = IntPoly.parse("1,3,5,5,5,3,1")


def rand_matrix(rng, n, m=None, coeff=9):
    m = n if m is None else m
    return IntMatrix(
        tuple(tuple(rng.randint(-coeff, coeff) for _ in range(m)) for _ in range(n))
    )


def to_sympy(a):
    return sympy.Matrix([list(r) for r in a.rows])


# ---- basics ----


def test_parse_format():
    a = IntMatrix.parse("0,1;−1,3")
    assert a.rows == ((0, 1), (-1, 3))
    assert a.format() == "0,1;-1,3"
    with pytest.raises(InputError):
        IntMatrix.parse("1,2;3")
    with pytest.raises(InputError):
        IntMatrix.parse("1,a")


def test_arithmetic_identities():
    rng = random.Random(11)
    for _ in range(20):
        a = rand_matrix(rng, 4)
        b = rand_matrix(rng, 4)
        c = rand_matrix(rng, 4)
        assert (a + b) * c == a * c + b * c
        assert (a * b).transpose() == b.transpose() * a.transpose()
        assert a * IntMatrix.identity(4) == a
        v = tuple(rng.randint(-5, 5) for _ in range(4))
        assert (a * b).apply(v) == a.apply(b.apply(v))


def test_negative_power_raises():
    with pytest.raises(InputError, match="-1"):
        IntMatrix(((1, 1), (0, 1))) ** -1
    with pytest.raises(InputError, match="-3"):
        IntMatrix.identity(2) ** -3
    assert IntMatrix(((1, 1), (0, 1))) ** 0 == IntMatrix.identity(2)
    assert IntMatrix(((1, 1), (0, 1))) ** 5 == IntMatrix(((1, 5), (0, 1)))


def test_kron_and_direct_sum():
    a = IntMatrix.parse("1,2;3,4")
    i2 = IntMatrix.identity(2)
    k = a.kron(i2)
    assert k.nrows == 4 and k.rows[0] == (1, 0, 2, 0)
    d = a.direct_sum(i2)
    assert d.rows[2] == (0, 0, 1, 0)
    # char poly of A (x) I = square of char poly of A
    assert char_poly(k) == char_poly(a) * char_poly(a)


def test_det_vs_oracle():
    rng = random.Random(22)
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(10):
            a = rand_matrix(rng, n)
            assert det(a) == int(to_sympy(a).det())


# ---- companion and char poly ----


def test_companion_shape():
    c = companion(IntPoly.parse("1,-3,1"))
    assert c == IntMatrix.parse("0,1;-1,3")
    assert companion(IntPoly.parse("-5,1")) == IntMatrix(((5,),))
    c6 = companion(P1)
    assert c6.rows[5] == (-1, -3, -5, -5, -5, -3)
    with pytest.raises(NotMonic):
        companion(IntPoly.parse("1,1,2"))


def test_char_poly_identity_and_companion():
    assert char_poly(IntMatrix.identity(3)) == IntPoly.parse("-1,3,-3,1")
    rng = random.Random(33)
    for _ in range(200):
        d = rng.randint(1, 8)
        p = IntPoly(tuple(rng.randint(-9, 9) for _ in range(d)) + (1,))
        assert char_poly(companion(p)) == p


def test_minimal_polynomial_cases():
    assert minimal_polynomial(IntMatrix.identity(3)) == IntPoly.parse("-1,1")
    rng = random.Random(44)
    for _ in range(30):
        d = rng.randint(1, 6)
        p = IntPoly(tuple(rng.randint(-9, 9) for _ in range(d)) + (1,))
        assert minimal_polynomial(companion(p)) == p
    # Jordan-type block [[C, I], [0, C]] with C = companion(t^2+1)
    c = companion(IntPoly.parse("1,0,1"))
    a = IntMatrix(
        (
            (0, 1, 1, 0),
            (-1, 0, 0, 1),
            (0, 0, 0, 1),
            (0, 0, -1, 0),
        )
    )
    m = minimal_polynomial(a)
    assert m == IntPoly.parse("1,0,1") * IntPoly.parse("1,0,1")
    sq = matrix_poly_eval(IntPoly.parse("1,0,1"), a)
    assert sq != IntMatrix.zero(4, 4)
    assert sq * sq == IntMatrix.zero(4, 4)
    # wedge squares and kron products of companions of squarefree
    # polynomials are diagonalizable: the radical of the char poly is the
    # minimal polynomial, as the Salem tests in salem.py rely on
    diagonalizable = (
        wedge_power(companion(P1), 2),
        wedge_power(companion(gross_mcmullen(8)), 2),
        companion(IntPoly.parse("1,-1,-1,-1,1")).kron(
            companion(IntPoly.parse("1,-5,7,-5,1"))
        ),
    )
    for a in diagonalizable:
        assert squarefree_part(char_poly(a)) == minimal_polynomial(a)


def test_minimal_divides_char():
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = rand_matrix(rng, n, coeff=4)
        m = minimal_polynomial(a)
        assert m.is_monic()
        assert m.divides(char_poly(a))


# ---- wedge powers and compounds ----


def test_wedge_small_cases():
    rng = random.Random(66)
    a = rand_matrix(rng, 4)
    assert wedge_power(a, 1) == a
    assert wedge_power(IntMatrix.identity(4), 2) == IntMatrix.identity(6)
    with pytest.raises(BadRank):
        wedge_power(a, 5)


def test_wedge_det_identity():
    rng = random.Random(77)
    for _ in range(10):
        a = rand_matrix(rng, 4, coeff=3)
        # det(wedge^k A) = det(A)^binom(n-1, k-1)
        assert det(wedge_power(a, 2)) == det(a) ** 3
        assert wedge_power(a, 4).rows == ((det(a),),)


def test_wedge_bottom_trace_is_det():
    rng = random.Random(88)
    for n in (2, 3, 4, 5):
        a = rand_matrix(rng, n, coeff=5)
        assert wedge_power(a, n).rows[0][0] == det(a)
        assert wedge_power(a, n).trace() == det(a)


def test_wedge_multiplicative():
    rng = random.Random(99)
    for _ in range(5):
        a = rand_matrix(rng, 4, coeff=3)
        b = rand_matrix(rng, 4, coeff=3)
        assert wedge_power(a * b, 2) == wedge_power(a, 2) * wedge_power(b, 2)


def test_wedge_eigenvalues_numeric():
    import mpmath

    mpmath.mp.dps = 60
    rng = random.Random(1010)
    checked = 0
    for n, k in ((4, 2), (6, 2), (6, 3)):
        target = 25 if n == 4 else 13
        done = 0
        while done < target:
            a = rand_matrix(rng, n, coeff=4)
            try:
                eigs = mpmath.polyroots(
                    [mpmath.mpf(c) for c in reversed(char_poly(a).coeffs)],
                    maxsteps=500,
                    extraprec=120,
                )
            except mpmath.libmp.libhyper.NoConvergence:
                continue
            w = wedge_power(a, k)
            cp = char_poly(w)
            # expand prod (t - product_over_combo) numerically and compare
            # coefficients against the exact characteristic polynomial
            poly = [mpmath.mpc(1)]
            for combo in itertools.combinations(eigs, k):
                root = mpmath.fprod(combo)
                new = [mpmath.mpc(0)] * (len(poly) + 1)
                for i, c in enumerate(poly):
                    new[i + 1] += c
                    new[i] -= root * c
                poly = new
            assert len(poly) == len(cp.coeffs)
            for got, want in zip(poly, cp.coeffs):
                assert abs(got - want) < 1e-6 * max(1.0, abs(want))
            done += 1
            checked += 1
    assert checked == 51


def test_additive_compound_eigenvalues():
    # eigenvalues of the second additive compound are pairwise sums; check
    # via characteristic polynomial on a diagonal example plus a random one
    d = IntMatrix(((2, 0, 0), (0, 3, 0), (0, 0, 7)))
    ac = additive_compound2(d)
    assert char_poly(ac) == (
        IntPoly((-5, 1)) * IntPoly((-9, 1)) * IntPoly((-10, 1))
    )
    rng = random.Random(1111)
    a = rand_matrix(rng, 4, coeff=3)
    w = additive_compound2(a)
    assert w.trace() == 3 * a.trace()  # each diagonal entry appears n-1 times


def test_wedge_basis_order():
    assert wedge_basis(4, 2) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


# ---- Hermite and Smith forms, kernels, saturation ----


def test_hnf_known():
    a = IntMatrix.from_columns([(2, 4)])
    assert hnf_columns(a) == IntMatrix.from_columns([(2, 4)])
    b = IntMatrix.from_columns([(2, 0), (0, 2), (1, 1)])
    h = hnf_columns(b)
    assert h == IntMatrix.from_columns([(1, 1), (0, 2)])


def test_hnf_canonical_under_column_moves():
    rng = random.Random(1212)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, n, m, coeff=6)
        if all(all(x == 0 for x in r) for r in a.rows):
            continue
        cols = a.columns()
        rng.shuffle(cols)
        mixed = []
        for c in cols:
            sign = rng.choice([1, -1])
            mixed.append(tuple(x * sign for x in c))
        b = IntMatrix.from_columns(mixed + [tuple(map(sum, zip(*mixed)))])
        try:
            h1 = hnf_columns(a)
        except ZeroLattice:
            continue
        # same lattice generated two ways -> identical HNF
        l1 = Lattice.from_columns(n, a.columns())
        l2 = Lattice.from_columns(n, b.columns())
        assert l1 == l2


def test_smith_normal_form_transforms():
    rng = random.Random(1313)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, n, m, coeff=8)
        s, p, pinv, q, qinv = smith_normal_form(a)
        assert p * a * q == s
        assert p * pinv == IntMatrix.identity(n)
        assert q * qinv == IntMatrix.identity(m)
        assert abs(det(p)) == 1 and abs(det(q)) == 1
        d = [s.rows[i][i] for i in range(min(n, m))]
        for i in range(min(n, m)):
            for j in range(min(n, m)):
                if i != j:
                    assert s.rows[i][j] == 0 or (i < m and j < n and False)
        nz = [x for x in d if x != 0]
        assert all(x > 0 for x in nz)
        for x, y in zip(nz, nz[1:]):
            assert y % x == 0
        assert d[len(nz):] == [0] * (len(d) - len(nz))


def test_smith_diagonal_known():
    a = IntMatrix(((2, 4, 4), (-6, 6, 12), (10, 4, 16)))
    s, *_ = smith_normal_form(a)
    assert [s.rows[i][i] for i in range(3)] == [2, 2, 156]


def test_kernel_basis_properties():
    rng = random.Random(1414)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(2, 5)
        a = rand_matrix(rng, n, m, coeff=5)
        ker = kernel_basis(a)
        assert len(ker) == m - rank(a)
        for v in ker:
            assert a.apply(v) == (0,) * n
        if ker:
            # saturation: kernel lattice is primitive
            lat = Lattice.from_columns(m, ker)
            assert saturate(lat) == lat


def test_saturate_examples():
    assert saturate(Lattice.from_columns(2, [(2, 4)])) == Lattice.from_columns(
        2, [(1, 2)]
    )
    assert saturate(Lattice.from_columns(2, [(2, 0), (0, 2)])) == Lattice.full(2)


def test_saturate_idempotent_and_span_preserving():
    rng = random.Random(1515)
    done = 0
    while done < 100:
        n = rng.randint(2, 5)
        r = rng.randint(1, n)
        cols = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(r)]
        try:
            lat = Lattice.from_columns(n, cols)
        except ZeroLattice:
            continue
        sat = saturate(lat)
        assert saturate(sat) == sat
        assert sat.rank == lat.rank
        assert sat.contains_lattice(lat)
        # equal rational span: every saturated basis vector has a multiple
        # inside the original lattice
        sols = solve_columns_exact(lat.basis, sat.basis.columns())
        assert sols is not None
        done += 1


def test_lattice_membership():
    lat = Lattice.from_columns(3, [(1, 0, 2), (0, 2, 0)])
    assert lat.contains((1, 2, 2))
    assert not lat.contains((0, 1, 0))
    assert not lat.contains((0, 0, 1))


def test_restricted_matrix_block():
    c = companion(IntPoly.parse("1,-3,1"))
    a = c.direct_sum(companion(IntPoly.parse("1,1,1,1,1")))
    b = IntMatrix.from_columns([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    r = restricted_matrix(a, b)
    assert r == c
    with pytest.raises(ArithmeticError):
        restricted_matrix(a, IntMatrix.from_columns([(1, 0, 1, 0, 0, 0)]))


def test_restricted_matrix_errors_name_the_failure():
    a = companion(IntPoly.parse("1,-3,1")).direct_sum(companion(IntPoly.parse("1,1,1,1,1")))
    with pytest.raises(ArithmeticError, match="column span is not stable"):
        restricted_matrix(a, IntMatrix.from_columns([(1, 0, 1, 0, 0, 0)]))
    # the span of (2,0), (0,1) is all of QQ^2, so it is stable, but
    # A (0,1) = (1,1) = 1/2 (2,0) + (0,1) has a half-integral coordinate
    shear = IntMatrix(((1, 1), (0, 1)))
    with pytest.raises(ArithmeticError, match="restriction is not integral"):
        restricted_matrix(shear, IntMatrix.from_columns([(2, 0), (0, 1)]))


def test_solve_columns_exact_semantics():
    b = IntMatrix.from_columns([(1, 0, 0), (0, 1, 0)])
    assert solve_columns_exact(b, [(0, 0, 1)]) is None
    # one inconsistent target makes the whole answer None
    assert solve_columns_exact(b, [(1, 2, 0), (0, 0, 1)]) is None
    sols = solve_columns_exact(IntMatrix(((2, 0), (0, 3))), [(1, 1), (4, -6)])
    assert sols == [(Fraction(1, 2), Fraction(1, 3)), (Fraction(2), Fraction(-2))]
    assert all(type(c) is Fraction for col in sols for c in col)
    # dependent columns: free coordinates are zero
    b = IntMatrix.from_columns([(1, 1), (2, 2), (0, 3)])
    assert solve_columns_exact(b, [(3, 6)]) == [(Fraction(3), Fraction(0), Fraction(1))]
    # pivots found below a zero entry; the answer is the unique solution
    b = IntMatrix.from_columns([(0, 2, 4), (3, 1, 0)])
    assert solve_columns_exact(b, [(3, 3, 4)]) == [(Fraction(1), Fraction(1))]
    assert solve_columns_exact(b, [(3, 3, 5)]) is None


def test_unimodular_completion():
    rng = random.Random(1616)
    done = 0
    while done < 40:
        n = rng.randint(2, 5)
        r = rng.randint(1, n - 1)
        cols = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(r)]
        try:
            lat = saturate(Lattice.from_columns(n, cols))
        except ZeroLattice:
            continue
        if lat.rank != r:
            continue
        u = unimodular_completion(lat.basis)
        assert is_unimodular(u)
        for j in range(r):
            assert u.column(j) == lat.basis.column(j)
        done += 1


# ---- the former forms, as the oracle ----


def _naive_mul(x, y):
    return [
        [sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
        for i in range(len(x))
    ]


def _naive_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def old_char_poly(a):
    n = a.nrows
    rows = [list(r) for r in a.rows]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = _naive_identity(n)
    for k in range(1, n + 1):
        am = _naive_mul(rows, m)
        t = sum(am[i][i] for i in range(n))
        assert t % k == 0
        c = -(t // k)
        coeffs[n - k] = c
        m = [[x + c * y for x, y in zip(r, s)] for r, s in zip(am, _naive_identity(n))]
    return IntPoly(tuple(coeffs))


def old_matrix_poly_eval(p, a):
    n = a.nrows
    rows = [list(r) for r in a.rows]
    acc = [[0] * n for _ in range(n)]
    for c in reversed(p.coeffs if p.coeffs else (0,)):
        acc = [
            [x + c * y for x, y in zip(r, s)]
            for r, s in zip(_naive_mul(acc, rows), _naive_identity(n))
        ]
    return IntMatrix(tuple(tuple(r) for r in acc))


def _frac_rref_insert(basis, v):
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


def old_solve_columns_exact(b, targets):
    n, r = b.nrows, b.ncols
    k = len(targets)
    aug = [
        [Fraction(b.rows[i][j]) for j in range(r)] + [Fraction(t[i]) for t in targets]
        for i in range(n)
    ]
    pivots = []
    rr = 0
    for col in range(r):
        sel = next((i for i in range(rr, n) if aug[i][col] != 0), None)
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


def _solve_dependency(vectors, target, n):
    k = len(vectors)
    aug = [[vectors[i][r] for i in range(k)] + [target[r]] for r in range(n)]
    aug = [[Fraction(x) for x in row] for row in aug]
    piv_rows = []
    r0 = 0
    for col in range(k):
        sel = next((r for r in range(r0, n) if aug[r][col] != 0), None)
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
    assert all(c.denominator == 1 for c in sol)
    return sol


def sympy_lcm(f, g):
    """Monic lcm of monic f and g, by sympy."""
    t = sympy.symbols("t")
    h = sympy.Poly(list(reversed(f.coeffs)), t).lcm(sympy.Poly(list(reversed(g.coeffs)), t))
    return IntPoly(tuple(int(c) for c in reversed(h.monic().all_coeffs())))


def old_minimal_polynomial(a):
    n = a.nrows
    result = IntPoly((1,))
    for start in range(n):
        if result.degree == n:
            break
        cur = tuple(Fraction(int(i == start)) for i in range(n))
        basis, chain = [], [cur]
        while True:
            red = _frac_rref_insert(basis, cur)
            if red is None:
                break
            basis.append(red)
            cur = tuple(sum(Fraction(a.rows[i][j]) * cur[j] for j in range(n)) for i in range(n))
            chain.append(cur)
        coeffs = _solve_dependency(chain[:-1], chain[-1], n)
        result = sympy_lcm(result, IntPoly(tuple(-int(c) for c in coeffs) + (1,)))
    return result


# ---- matrix strategies ----

entries = st.integers(-9, 9)


@st.composite
def random_matrices(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    return IntMatrix(tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n)))


monic_factors = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(
    lambda cs: IntPoly(tuple(cs) + (1,))
)


@st.composite
def blocks(draw):
    """One block of a derogatory matrix: a companion of a power, a
    Jordan-type block [[C, I], [0, C]], a scalar, zero or nilpotent block."""
    kind = draw(st.sampled_from(["companion", "power", "jordan", "scalar", "nilpotent"]))
    if kind == "companion":
        return companion(draw(monic_factors))
    if kind == "power":
        p = draw(monic_factors)
        return companion(p ** draw(st.integers(2, max(2, 6 // p.degree))))
    if kind == "jordan":
        c = companion(draw(monic_factors.filter(lambda p: p.degree <= 2)))
        d = c.nrows
        upper = tuple(r + tuple(int(i == j) for j in range(d)) for i, r in enumerate(c.rows))
        return IntMatrix(upper + tuple((0,) * d + r for r in c.rows))
    d = draw(st.integers(1, 3))
    if kind == "scalar":
        return IntMatrix.identity(d) * draw(st.integers(-3, 3))
    return IntMatrix(
        tuple(tuple(draw(entries) if j > i else 0 for j in range(d)) for i in range(d))
    )


@st.composite
def derogatory_matrices(draw):
    parts = []
    size = 0
    for _ in range(draw(st.integers(1, 4))):
        b = draw(blocks())
        if size + b.nrows > 8:
            break
        # repeat a block to make the matrix derogatory more often
        for _ in range(draw(st.integers(1, 2))):
            if size + b.nrows <= 8:
                parts.append(b)
                size += b.nrows
    assume(parts)
    out = parts[0]
    for b in parts[1:]:
        out = out.direct_sum(b)
    return out


@st.composite
def conjugated_matrices(draw):
    """U B U^-1 for a derogatory B and U a unimodular completion of a
    random primitive column."""
    b = draw(derogatory_matrices())
    n = b.nrows
    col = tuple(draw(st.integers(-3, 3)) for _ in range(n))
    assume(any(col) and math.gcd(*col) == 1)
    u = unimodular_completion(IntMatrix.from_columns([col]))
    inv = old_solve_columns_exact(u, IntMatrix.identity(n).columns())
    uinv = IntMatrix.from_columns([tuple(int(c) for c in x) for x in inv])
    return u * b * uinv


matrices = random_matrices() | derogatory_matrices() | conjugated_matrices()


@given(a=matrices)
def test_minimal_polynomial_matches_fraction_krylov(a):
    m = minimal_polynomial(a)
    assert m == old_minimal_polynomial(a)
    assert matrix_poly_eval(m, a) == IntMatrix.zero(a.nrows, a.nrows)
    assert m.divides(char_poly(a))


@given(a=matrices)
def test_char_poly_matches_leverrier_on_lists(a):
    assert char_poly(a) == old_char_poly(a)


@given(a=matrices, p=st.lists(st.integers(-9, 9), max_size=7).map(lambda cs: IntPoly(tuple(cs))))
def test_matrix_poly_eval_matches_horner_on_lists(a, p):
    assert matrix_poly_eval(p, a) == old_matrix_poly_eval(p, a)


@st.composite
def column_systems(draw):
    """(b, targets): an n x r integer matrix, often rank-deficient, and
    targets that are images b x (consistent) or random (mostly not)."""
    n, r = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cols = [tuple(draw(entries) for _ in range(n)) for _ in range(r)]
    for j in range(r):
        if draw(st.booleans()) and j:
            # a combination of earlier columns
            c = draw(st.integers(-2, 2))
            cols[j] = tuple(x + c * y for x, y in zip(cols[j - 1], cols[0]))
    b = IntMatrix.from_columns(cols)
    targets = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            targets.append(b.apply(tuple(draw(entries) for _ in range(r))))
        else:
            targets.append(tuple(draw(entries) for _ in range(n)))
    return b, targets


@given(system=column_systems())
def test_solve_columns_exact_matches_fraction_gauss_jordan(system):
    b, targets = system
    got = solve_columns_exact(b, targets)
    assert got == old_solve_columns_exact(b, targets)
    if got is not None:
        assert all(type(c) is Fraction for col in got for c in col)


def test_exact_linear_algebra_builds_no_fraction(monkeypatch):
    made = []

    class Counted(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return Fraction(*args)

    monkeypatch.setattr(exactlin, "Fraction", Counted)
    w = wedge_power(companion(P1), 2)
    jordan = IntMatrix(((0, 1, 1, 0), (-1, 0, 0, 1), (0, 0, 0, 1), (0, 0, -1, 0)))
    for a in (w, jordan, companion(P1).direct_sum(companion(P1))):
        m = minimal_polynomial(a)
        char_poly(a)
        matrix_poly_eval(m, a)
    assert made == []
    # the column solve builds Fractions only for the values it returns
    b = IntMatrix.from_columns([(2, 0, 0), (0, 3, 0)])
    sols = solve_columns_exact(b, [(1, 1, 0), (4, 6, 0)])
    assert sols == [(Fraction(1, 2), Fraction(1, 3)), (Fraction(2), Fraction(2))]
    assert len(made) <= 2 * (b.ncols + 1)
