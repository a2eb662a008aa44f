"""Exactness tests for integer polynomial arithmetic.

Known values are frozen from independent computation (sympy, hand
calculation); randomized suites check round-trip identities exactly.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from salemtori.exceptions import (
    ConstantPolynomial,
    EndpointIsRoot,
    InputError,
    NotCoprime,
    NotMonic,
    NotReciprocal,
    OddDegree,
)
from salemtori.intpoly import (
    IntPoly,
    cauchy_bound,
    count_real_roots,
    discriminant,
    ext_gcd_rational,
    factor_over_z,
    gcd,
    is_irreducible,
    is_squarefree,
    real_root_enclosure,
    resultant,
    squarefree_part,
    sturm_count,
    yun_decomposition,
)

T = sympy.symbols("t")

P1 = IntPoly.parse("1,3,5,5,5,3,1")
P2 = IntPoly.parse("1,-5,13,-11,13,-5,1")
P3 = IntPoly.parse("1,1,3,1,3,1,1")
Q1 = IntPoly.parse("-1,2,3,1")
Q2 = IntPoly.parse("-1,10,-5,1")
Q3 = IntPoly.parse("-1,0,1,1")
LEHMER = IntPoly.parse("1,1,0,-1,-1,-1,-1,-1,0,1,1")


def to_sympy(p):
    return sum(c * T**i for i, c in enumerate(p.coeffs))


def from_sympy(expr):
    return IntPoly(tuple(int(c) for c in reversed(sympy.Poly(expr, T).all_coeffs())))


def rand_poly(rng, deg, coeff=9, monic=False):
    cs = [rng.randint(-coeff, coeff) for _ in range(deg)]
    cs.append(1 if monic else rng.choice([c for c in range(-coeff, coeff + 1) if c]))
    return IntPoly(tuple(cs))


# ---- parsing and rendering ----


def test_parse_format_round_trip():
    for text in ["1,3,5,5,5,3,1", "0", "-7", "1,0,0,-2"]:
        assert IntPoly.parse(text).format() == text


def test_parse_unicode_minus():
    assert IntPoly.parse("1,−5,13,−11,13,−5,1") == P2


def test_parse_rejects_garbage():
    with pytest.raises(InputError):
        IntPoly.parse("")
    with pytest.raises(InputError):
        IntPoly.parse("1,x,3")
    with pytest.raises(InputError):
        IntPoly((1, Fraction(1, 2)))  # type: ignore[arg-type]


def test_zero_and_degree():
    z = IntPoly(())
    assert z.is_zero() and z.degree == -1 and z.format() == "0"
    assert IntPoly((0, 0, 0)).is_zero()
    assert IntPoly((5,)).degree == 0


# ---- arithmetic ----


def test_negative_power_raises():
    with pytest.raises(InputError, match="-1"):
        IntPoly.parse("1,1") ** -1
    assert IntPoly.parse("1,1") ** 0 == IntPoly((1,))
    assert IntPoly.parse("1,1") ** 3 == IntPoly.parse("1,3,3,1")


def test_ring_identities_random():
    rng = random.Random(101)
    for _ in range(50):
        a = rand_poly(rng, rng.randint(0, 5))
        b = rand_poly(rng, rng.randint(0, 5))
        c = rand_poly(rng, rng.randint(0, 5))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == IntPoly(())
        x = Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


def test_divmod_exact():
    q, r = (P1 * Q1 + IntPoly((3, 1))).divmod_exact(P1)
    assert q == Q1 and r == IntPoly((3, 1))
    with pytest.raises(ArithmeticError):
        IntPoly((1, 1)).div_exact(IntPoly((0, 2)))


def test_reciprocal_and_reverse():
    assert P1.is_reciprocal() and P2.is_reciprocal() and P3.is_reciprocal()
    assert not Q1.is_reciprocal()
    assert Q1.reverse() == IntPoly((1, 3, 2, -1))
    assert P3.negate_variable() == IntPoly.parse("1,-1,3,-1,3,-1,1")


# ---- trace polynomial transform ----


def test_trace_polynomial_known_values():
    assert P1.trace_polynomial() == Q1
    assert P2.trace_polynomial() == Q2
    assert P3.trace_polynomial() == Q3
    assert LEHMER.trace_polynomial() == IntPoly.parse("3,4,-5,-5,1,1")


def test_trace_round_trip_known():
    for p in (P1, P2, P3, LEHMER):
        assert IntPoly.from_trace(p.trace_polynomial()) == p


def test_trace_round_trip_random():
    rng = random.Random(202)
    for _ in range(200):
        k = rng.randint(1, 5)
        q = rand_poly(rng, k - 1, monic=True) + IntPoly.x_power(k)
        q = IntPoly(q.coeffs[:k] + (1,))
        p = IntPoly.from_trace(q)
        assert p.degree == 2 * k and p.is_reciprocal() and p.is_monic()
        assert p.trace_polynomial() == q


def test_trace_polynomial_rejects():
    with pytest.raises(NotReciprocal):
        IntPoly.parse("2,3,1,0,0,0,1").trace_polynomial()
    with pytest.raises(OddDegree):
        IntPoly.parse("1,1,1,1").trace_polynomial()
    with pytest.raises(NotMonic):
        IntPoly.parse("2,1,1,2").trace_polynomial()


# ---- resultant, discriminant ----


def test_discriminant_known():
    # both cubics happen to share the field discriminant -23
    assert discriminant(IntPoly.parse("-1,-1,0,1")) == -23
    assert discriminant(Q1) == -23
    assert discriminant(IntPoly.parse("-1,0,1,1")) == -23


def test_discriminant_vs_oracle_and_squarefree():
    rng = random.Random(303)
    for i in range(200):
        if i % 2 == 0:
            f = rand_poly(rng, 3)
            while f.degree < 1:
                f = rand_poly(rng, 3)
        else:
            g = rand_poly(rng, rng.randint(1, 2))
            f = g * g * rand_poly(rng, 1)
        want = int(sympy.discriminant(to_sympy(f), T))
        assert discriminant(f) == want
        assert (discriminant(f) == 0) == (not is_squarefree(f))


def _sylvester_det(a, b):
    m, n = a.degree, b.degree
    ac = list(reversed(a.coeffs))
    bc = list(reversed(b.coeffs))
    rows = [[0] * i + ac + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + bc + [0] * (m - 1 - i) for i in range(m)]
    return int(sympy.Matrix(rows).det())


def test_resultant_vs_sylvester_determinant():
    rng = random.Random(404)
    for _ in range(100):
        a = rand_poly(rng, rng.randint(1, 5))
        b = rand_poly(rng, rng.randint(1, 5))
        assert resultant(a, b) == _sylvester_det(a, b)
    # multiplicativity in the second argument
    f, g, h = P1, Q1, Q2
    assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


def _sympy_resultant(a, b):
    # for deg a < deg b sympy.resultant answers Res(b, a), without the sign
    # (-1)^(deg a deg b), so the larger degree goes first
    if a.is_zero() or b.is_zero():
        return 0
    if a.degree < b.degree:
        return (-1) ** (a.degree * b.degree) * _sympy_resultant(b, a)
    return int(sympy.resultant(to_sympy(a), to_sympy(b), T))


def test_resultant_and_discriminant_vs_sympy():
    rng = random.Random(505)
    zero, two, three = IntPoly(()), IntPoly((2,)), IntPoly((-3,))
    cases = [(zero, P1), (Q1, zero), (two, three), (two, Q1), (Q1, three), (P1, P1)]
    for _ in range(40):
        a = rand_poly(rng, rng.randint(0, 12), coeff=5)
        b = rand_poly(rng, rng.randint(0, 12), coeff=5)
        common = rand_poly(rng, rng.randint(1, 3), coeff=3)
        cases += [(a, b), (a * common, b * common)]
    for a, b in cases:
        assert resultant(a, b) == _sympy_resultant(a, b), (str(a), str(b))
        for f in (a, b):
            if f.degree >= 1:
                assert discriminant(f) == int(sympy.discriminant(to_sympy(f), T)), str(f)
    assert resultant(P1 * Q1, Q1 * Q2) == 0
    with pytest.raises(ConstantPolynomial):
        discriminant(three)


@given(st.lists(st.integers(-40, 40), min_size=3, max_size=3))
def test_sextic_discriminant_from_trace_cubic(cs):
    # x^3 q(x + 1/x) has discriminant disc(q)^2 q(2) q(-2), the identity
    # galois_class reads its square classes from
    q = IntPoly(tuple(cs) + (1,))
    p = IntPoly.from_trace(q)
    want = int(sympy.discriminant(to_sympy(p), T))
    assert discriminant(p) == want
    assert want == int(sympy.discriminant(to_sympy(q), T)) ** 2 * q.evaluate(2) * q.evaluate(-2)


# ---- Sturm counting and enclosures ----


def test_sturm_counts_known():
    assert count_real_roots(Q1) == 1
    assert count_real_roots(Q2) == 1
    assert count_real_roots(Q3) == 1
    assert sturm_count(Q1, -2, 2) == 1
    assert sturm_count(IntPoly.parse("-1,-2,0,1"), -2, 2) == 3  # s^3-2s-1


def test_sturm_vs_oracle():
    rng = random.Random(505)
    done = 0
    while done < 200:
        f = rand_poly(rng, rng.choice([3, 4]))
        if f.degree < 3 or not is_squarefree(f):
            continue
        want = len(sympy.Poly(to_sympy(f), T).real_roots())
        assert count_real_roots(f) == want
        inside = [r for r in sympy.Poly(to_sympy(f), T).real_roots() if 0 < r < 3]
        if f.evaluate(0) != 0 and f.evaluate(3) != 0:
            assert sturm_count(f, 0, 3) == len(inside)
        done += 1


def test_sturm_endpoint_guard():
    with pytest.raises(EndpointIsRoot):
        sturm_count(IntPoly.parse("-1,0,1"), 1, 2)


def test_enclosure_shrinks():
    f = IntPoly.parse("-1,2,-3,1")  # t^3-3t^2+2t-1, real root near 2.3247
    lo, hi = real_root_enclosure(f, 2, 3, Fraction(1, 10**15))
    assert hi - lo <= Fraction(1, 10**15)
    root = sympy.Poly(to_sympy(f), T).real_roots()[0]
    assert sympy.Rational(lo.numerator, lo.denominator) < root
    assert root < sympy.Rational(hi.numerator, hi.denominator)


def test_enclosure_exact_hit():
    assert real_root_enclosure(IntPoly.parse("-4,0,1"), 0, 4, 1) == (2, 2)


def test_cauchy_bound_contains_all_roots():
    rng = random.Random(606)
    for _ in range(50):
        f = rand_poly(rng, rng.randint(1, 6))
        if f.degree < 1 or not is_squarefree(f):
            continue
        b = cauchy_bound(f) + 1
        assert sturm_count(f, -b, b) == count_real_roots(f)


# ---- factorization ----


def test_factor_known_product():
    f = IntPoly.parse("1,0,1,-1,1,0,1")  # (t^2+t+1)(t^4-t^3+t^2-t+1)
    fl = factor_over_z(f)
    assert fl.unit == 1
    assert [(g.format(), m) for g, m in fl] == [("1,1,1", 1), ("1,-1,1,-1,1", 1)]


def test_factor_units_and_powers():
    f = IntPoly.parse("1,3,1") * IntPoly.parse("-1,1") ** 2 * -6
    fl = factor_over_z(f)
    assert fl.unit == -6
    assert fl.factors == ((IntPoly((-1, 1)), 2), (IntPoly((1, 3, 1)), 1))
    assert fl.expand() == f


def test_factor_strips_powers_of_t():
    fl = factor_over_z(IntPoly((0, 0, 2, 2)))
    assert fl.unit == 2
    assert fl.factors == ((IntPoly((0, 1)), 2), (IntPoly((1, 1)), 1))


def test_factor_round_trip_random():
    rng = random.Random(707)
    for _ in range(500):
        f = rand_poly(rng, rng.randint(1, 8))
        if f.is_zero():
            continue
        fl = factor_over_z(f)
        assert fl.expand() == f
        for g, _ in fl:
            assert g.lc > 0 and g.content() == 1


def test_factor_matches_oracle():
    rng = random.Random(808)
    for _ in range(100):
        f = rand_poly(rng, rng.randint(2, 6), coeff=6)
        if f.is_zero() or f.degree < 1:
            continue
        mine = {(g.coeffs, m) for g, m in factor_over_z(f)}
        _, sy = sympy.factor_list(to_sympy(f))
        theirs = set()
        for expr, m in sy:
            g = from_sympy(expr)
            if g.lc < 0:
                g = -g
            if g.degree >= 1:
                theirs.add((g.coeffs, int(m)))
        assert mine == theirs


def test_irreducibility_known():
    for p in (P1, P2, P3, LEHMER, Q1, Q2, Q3):
        assert is_irreducible(p)
    assert not is_irreducible(IntPoly.parse("1,0,1,-1,1,0,1"))
    assert not is_irreducible(IntPoly.parse("-1,0,1"))
    assert not is_irreducible(IntPoly.parse("2,2"))  # content 2
    assert not is_irreducible(IntPoly.parse("7"))


def test_degree_pattern_certificate_path():
    # irreducible sextics whose factorization is settled by degree patterns
    for p in (P1, P2, P3):
        assert len(factor_over_z(p).factors) == 1


def test_yun_decomposition_random():
    rng = random.Random(909)
    for _ in range(60):
        g1 = rand_poly(rng, rng.randint(1, 2))
        g2 = rand_poly(rng, rng.randint(1, 2))
        f = g1 * g2 * g2 * rng.choice([-3, -1, 1, 2])
        unit, parts = yun_decomposition(f)
        acc = IntPoly((int(unit),))
        for h, m in parts:
            acc = acc * h**m
            assert is_squarefree(h) or h.degree == 0
        assert acc == f


def test_squarefree_part_divides():
    rng = random.Random(111)
    for _ in range(50):
        g = rand_poly(rng, rng.randint(1, 3))
        f = g * g
        sf = squarefree_part(f)
        assert is_squarefree(sf)
        assert sf.divides(f)


def test_gcd_common_factor():
    rng = random.Random(222)
    for _ in range(50):
        f = rand_poly(rng, rng.randint(1, 3))
        a = rand_poly(rng, rng.randint(0, 3))
        b = rand_poly(rng, rng.randint(0, 3))
        g = gcd(f * a, f * b)
        if not (f * a).is_zero() and not (f * b).is_zero():
            assert f.divides(g * f.content()) or f.divides(g)


# ---- extended gcd over the rationals ----


def test_ext_gcd_reference_triple():
    h1, h2, n = ext_gcd_rational(IntPoly.parse("1,-3,1"), IntPoly.parse("-1,0,1"))
    assert h1 == IntPoly((2, 3))
    assert h2 == IntPoly((7, -3))
    assert n == -5


def test_ext_gcd_identity_random():
    rng = random.Random(333)
    done = 0
    while done < 100:
        f1 = rand_poly(rng, rng.randint(1, 4))
        f2 = rand_poly(rng, rng.randint(1, 4))
        if f1.degree < 1 or f2.degree < 1 or gcd(f1, f2).degree > 0:
            continue
        h1, h2, n = ext_gcd_rational(f1, f2)
        assert n != 0
        assert h1 * f1 + h2 * f2 == IntPoly((n,))
        done += 1


def test_ext_gcd_rejects_common_factor():
    with pytest.raises(NotCoprime):
        ext_gcd_rational(IntPoly.parse("-1,0,1"), IntPoly.parse("-1,1"))
