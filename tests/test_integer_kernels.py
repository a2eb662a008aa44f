"""Property tests for the integer kernels of ``intpoly``.

``gcd``, the exact divisions, resultants, Sturm counting, bisection, the extended
gcd and the factorizer's F_p[x] steps run on Python integers.  Each is
checked against the form the library used before, kept below as the
oracle: Euclid and division over ``Fraction``, Sturm chains and
bisection over ``Fraction``, the extended Euclid over ``Fraction``, and
distinct- and equal-degree factorization on coefficient lists.  ``gcd`` is also checked against sympy.  Inputs include contents,
non-monic polynomials, repeated factors and zero or constant
polynomials; all are drawn under the derandomized profile of
``conftest.py``.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from salemtori import intpoly
from salemtori.exactlin import companion
from salemtori.exceptions import EndpointIsRoot, InputError, NotCoprime, SalemtoriError
from salemtori.intpoly import (
    IntPoly,
    discriminant,
    ext_gcd_rational,
    exterior_resolvent,
    gcd,
    is_squarefree,
    real_root_enclosure,
    resultant,
    squarefree_part,
    sturm_count,
)
from salemtori.salem import dynamical_degrees

T = sympy.symbols("t")

# ---- the Fraction forms, as the oracle ----


def _ftrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _frac(p):
    return [Fraction(c) for c in p.coeffs]


def old_qdivmod(a, b):
    a = _ftrim(list(a))
    b = _ftrim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a
    inv = 1 / b[-1]
    while r and len(r) >= len(b):
        c = r[-1] * inv
        d = len(r) - len(b)
        q[d] = c
        for i in range(len(b)):
            r[d + i] -= c * b[i]
        r = _ftrim(r)
    return q, r


def _from_frac_exact(a):
    if any(c.denominator != 1 for c in a):
        raise ArithmeticError("non-integer coefficients")
    return IntPoly(tuple(int(c) for c in a))


def old_divmod_exact(a, b):
    q, r = old_qdivmod(_frac(a), _frac(b))
    return _from_frac_exact(q), _from_frac_exact(r)


def old_div_exact(a, b):
    q, r = old_divmod_exact(a, b)
    if not r.is_zero():
        raise ArithmeticError(f"inexact division of {a} by {b}")
    return q


def old_divides(a, b):
    if a.is_zero():
        return b.is_zero()
    q, r = old_qdivmod(_frac(b), _frac(a))
    if any(c != 0 for c in r):
        return False
    return all(c.denominator == 1 for c in q)


def _pos_lc(p):
    return -p if p.lc < 0 else p


def old_gcd(p, q):
    if p.is_zero():
        return _pos_lc(q.primitive())
    if q.is_zero():
        return _pos_lc(p.primitive())
    a, b = _frac(p), _frac(q)
    while b:
        _, r = old_qdivmod(a, b)
        a, b = b, r
    g = [c / a[-1] for c in a]
    den = math.lcm(*[c.denominator for c in g])
    result = _pos_lc(IntPoly(tuple(int(c * den) for c in g)).primitive())
    cont = math.gcd(p.content(), q.content())
    return result * cont if cont > 1 else result


def _fmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ftrim(out)


def _fsub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    return _ftrim([Fraction(c) for c in out])


def old_ext_gcd_rational(f1, f2):
    a, b = _frac(f1), _frac(f2)
    if not a or not b:
        raise NotCoprime("zero input")
    r0, r1 = a, b
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while True:
        q, r = old_qdivmod(r0, r1)
        if not r:
            break
        r0, r1 = r1, r
        s0, s1 = s1, _fsub(s0, _fmul(q, s1))
        t0, t1 = t1, _fsub(t0, _fmul(q, t1))
    if len(r1) - 1 > 0:
        raise NotCoprime(f"common factor of degree {len(r1) - 1}")
    const = r1[0]
    den = math.lcm(*[c.denominator for c in s1 + t1], const.denominator)
    h1 = IntPoly(tuple(int(c * den) for c in s1))
    h2 = IntPoly(tuple(int(c * den) for c in t1))
    n = int(const * den)
    g = math.gcd(h1.content(), h2.content(), n)
    return (
        IntPoly(tuple(c // g for c in h1.coeffs)),
        IntPoly(tuple(c // g for c in h2.coeffs)),
        n // g,
    )


def old_squarefree_part(p):
    if p.degree < 1:
        return _pos_lc(p.primitive()) if not p.is_zero() else p
    g = old_gcd(p, p.derivative())
    if g.degree == 0:
        return _pos_lc(p.primitive())
    return _pos_lc(old_div_exact(p, g).primitive())


def old_sturm_count(p, lo, hi):
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise InputError("need lo < hi")
    sf = old_squarefree_part(p)
    if sf.degree < 1:
        return 0
    if sf.evaluate(lo) == 0 or sf.evaluate(hi) == 0:
        raise EndpointIsRoot(f"{p} at ({lo}, {hi})")
    chain = [_frac(sf), _frac(sf.derivative())]
    while _ftrim(list(chain[-1])):
        _, r = old_qdivmod(chain[-2], chain[-1])
        r = [-c for c in r]
        if not _ftrim(list(r)):
            break
        chain.append(r)

    def variations(x):
        signs = []
        for c in chain:
            v = Fraction(0)
            for coef in reversed(c):
                v = v * x + coef
            if v != 0:
                signs.append(1 if v > 0 else -1)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(lo) - variations(hi)


def old_real_root_enclosure(p, lo, hi, eps):
    sf = old_squarefree_part(p)
    lo, hi, eps = Fraction(lo), Fraction(hi), Fraction(eps)
    flo = sf.evaluate(lo)
    fhi = sf.evaluate(hi)
    if flo == 0 or fhi == 0:
        raise EndpointIsRoot(f"{p} at ({lo}, {hi})")
    if (flo > 0) == (fhi > 0):
        raise InputError("no sign change on the interval")
    while hi - lo > eps:
        mid = (lo + hi) / 2
        fm = sf.evaluate(mid)
        if fm == 0:
            return (mid, mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return (lo, hi)


# ---- the list forms of the F_p[x] steps, as the oracle ----


def _mtrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def old_mmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _mtrim(out)


def old_mdivmod(a, b, p):
    a = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _mtrim(a):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * inv % p
        d = len(a) - len(b)
        q[d] = c
        for i in range(len(b)):
            a[d + i] = (a[d + i] - c * b[i]) % p
        a = _mtrim(a)
    return _mtrim(q), _mtrim(a)


def old_mgcd(a, b, p):
    a, b = _mtrim(list(a)), _mtrim(list(b))
    while b:
        _, r = old_mdivmod(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def old_mpowmod(base, e, mod, p):
    result = [1]
    base = old_mdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = old_mdivmod(old_mmul(result, base, p), mod, p)[1]
        base = old_mdivmod(old_mmul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def old_msub(a, b, p):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _mtrim([(x - y) % p for x, y in zip(a, b)])


def old_ddf(f, p):
    out = []
    fstar = list(f)
    h = [0, 1]
    d = 0
    while len(fstar) - 1 >= 2 * (d + 1):
        d += 1
        h = old_mpowmod(h, p, fstar, p)
        g = old_mgcd(old_msub(h, [0, 1], p), fstar, p)
        if len(g) - 1 > 0:
            out.append((d, g))
            fstar, _ = old_mdivmod(fstar, g, p)
            _, h = old_mdivmod(h, fstar, p)
    if len(fstar) - 1 > 0:
        out.append((len(fstar) - 1, fstar))
    return out


def old_edf(g, d, p, rng):
    n = len(g) - 1
    if n == d:
        return [g]
    exponent = (p**d - 1) // 2
    while True:
        r = _mtrim([rng.randrange(p) for _ in range(n)])
        if len(r) - 1 < 1:
            continue
        h = old_msub(old_mpowmod(r, exponent, g, p), [1], p)
        w = old_mgcd(h, g, p)
        if 0 < len(w) - 1 < n:
            rest, _ = old_mdivmod(g, w, p)
            return old_edf(w, d, p, rng) + old_edf(rest, d, p, rng)


def old_factor_mod_p(f, p, rng):
    out = []
    for d, g in old_ddf(f, p):
        out.extend(old_edf(g, d, p, rng))
    return sorted(out, key=lambda h: (len(h), h))


# ---- strategies ----

small = st.integers(-12, 12)
polys = st.lists(small, max_size=7).map(lambda cs: IntPoly(tuple(cs)))
factors = st.lists(small, min_size=2, max_size=4).map(lambda cs: IntPoly(tuple(cs)))
contents = st.integers(1, 6) | st.just(-3)


@st.composite
def structured(draw):
    """content * h^k * g: content, repeated factors, non-monic leading
    coefficients, and zero or constant polynomials among the draws."""
    h = draw(factors)
    g = draw(polys)
    return draw(contents) * h ** draw(st.integers(0, 3)) * g


any_poly = structured() | polys


def to_sympy(p):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], T, domain="ZZ")


def outcome(fn, *args):
    """The value of fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, SalemtoriError) as exc:
        return type(exc)


# ---- gcd ----


@given(a=any_poly, b=any_poly, common=st.one_of(factors, st.just(IntPoly((1,)))))
def test_gcd_matches_fraction_euclid(a, b, common):
    f, g = common * a, common * b
    assert gcd(f, g) == old_gcd(f, g)


@given(a=any_poly, b=any_poly, common=factors)
def test_gcd_matches_sympy(a, b, common):
    f, g = common * a, common * b
    assume(not f.is_zero() and not g.is_zero())
    expected = to_sympy(f).gcd(to_sympy(g))
    assert gcd(f, g) == IntPoly(tuple(int(c) for c in reversed(expected.all_coeffs())))


@given(a=any_poly, b=any_poly, common=st.one_of(factors, st.just(IntPoly((1,)))))
@settings(max_examples=60)
def test_gcd_pseudo_remainder_fallback(a, b, common):
    # with no heuristic evaluation point left, gcd runs the primitive
    # pseudo-remainder sequence alone
    f, g = common * a, common * b
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intpoly, "_HEU_TRIES", 0)
        assert gcd(f, g) == old_gcd(f, g)


@given(p=any_poly)
def test_squarefree_part_matches_fraction_gcd(p):
    # the mod-ell witness may only answer "squarefree" with proof
    assert squarefree_part(p) == old_squarefree_part(p)
    assert is_squarefree(p) == (p.degree < 1 or old_gcd(p, p.derivative()).degree == 0)


@pytest.mark.parametrize(
    "f, g",
    [((-2, 1), (-6, 3, 8, -5)), ((9, 8, -8, -7, -2), (-7, -7, -9, 1))],
)
def test_gcd_candidate_must_divide_both_inputs(f, g):
    # at the first evaluation point the digits give x - 2 (x - 1), which
    # divides f but not g: only the division of both proves a candidate
    f, g = IntPoly(f), IntPoly(g)
    assert gcd(f, g) == old_gcd(f, g) == IntPoly((1,))


def test_gcd_of_zero_and_constants():
    zero, six = IntPoly(()), IntPoly((6,))
    f = IntPoly((4, 0, -4))  # 4 (t - 1)(t + 1)
    assert gcd(zero, zero) == zero
    assert gcd(zero, f) == old_gcd(zero, f) == IntPoly((-1, 0, 1))
    assert gcd(six, f) == old_gcd(six, f) == IntPoly((2,))
    assert gcd(IntPoly((-1,)), f) == IntPoly((1,))


# ---- exact division ----


@given(a=any_poly, b=any_poly, r=polys)
def test_divisions_match_fraction_division(a, b, r):
    for num in (a, a * b, a * b + r):
        assert b.divides(num) == old_divides(b, num)
        if b.is_zero():
            continue
        assert outcome(num.divmod_exact, b) == outcome(old_divmod_exact, num, b)
        assert outcome(num.div_exact, b) == outcome(old_div_exact, num, b)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        IntPoly((1, 1)).divmod_exact(IntPoly(()))
    assert IntPoly(()).divides(IntPoly(()))
    assert not IntPoly(()).divides(IntPoly((1,)))


# ---- Sturm counting and bisection ----

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
widths = st.fractions(min_value=Fraction(1, 64), max_value=4, max_denominator=64)


@st.composite
def intervals(draw):
    lo = draw(rationals)
    return lo, lo + draw(widths)


@st.composite
def bracketed(draw):
    """(t - r) g with a rational root r, in an interval around r, which
    often holds a sign change and sometimes has r as a bisection point."""
    a, b = draw(st.integers(-20, 20)), draw(st.integers(1, 9))
    p = IntPoly((-a, b)) * draw(any_poly)
    r = Fraction(a, b)
    return p, r - draw(widths), r + draw(widths)


@given(p=any_poly, interval=intervals())
def test_sturm_count_matches_fraction_chain(p, interval):
    lo, hi = interval
    assert outcome(sturm_count, p, lo, hi) == outcome(old_sturm_count, p, lo, hi)
    assert outcome(sturm_count, p, hi, lo) == outcome(old_sturm_count, p, hi, lo)


@given(
    case=bracketed() | st.tuples(any_poly, rationals, rationals),
    eps=st.sampled_from([Fraction(1, 1 << 40), Fraction(1, 10**9), Fraction(3, 7), 1]),
)
def test_enclosure_matches_fraction_bisection(case, eps):
    got = outcome(real_root_enclosure, *case, eps)
    assert got == outcome(old_real_root_enclosure, *case, eps)
    if isinstance(got, tuple):
        assert all(type(x) is Fraction for x in got)


@given(a=any_poly, b=any_poly, common=st.one_of(factors, st.just(IntPoly((1,)))))
def test_ext_gcd_matches_fraction_euclid(a, b, common):
    f, g = common * a, common * b
    got = outcome(ext_gcd_rational, f, g)
    assert got == outcome(old_ext_gcd_rational, f, g)
    if isinstance(got, tuple):
        h1, h2, n = got
        assert h1 * f + h2 * g == IntPoly((n,))


def test_ext_gcd_builds_no_fraction(monkeypatch):
    made = []

    class Counted(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return Fraction(*args)

    monkeypatch.setattr(intpoly, "Fraction", Counted)
    f1 = IntPoly.parse("1,-3,1") ** 3
    f2 = IntPoly.parse("1,1,1,1,1") * IntPoly.parse("2,0,-3")
    h1, h2, n = ext_gcd_rational(f1, f2)
    assert h1 * f1 + h2 * f2 == IntPoly((n,))
    assert made == []


def test_kernels_build_no_fraction(monkeypatch):
    made = []

    class Counted(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return Fraction(*args)

    monkeypatch.setattr(intpoly, "Fraction", Counted)
    r = exterior_resolvent(IntPoly.parse("1,0,-3,-2,3,-6,-17,-6,3,-2,-3,0,1"), 2)
    gcd(r, r.derivative())
    squarefree_part(r)
    r.divides(r * r)
    (r * r + r.derivative()).divmod_exact(r)
    (r * r).div_exact(r)
    assert discriminant(r) == 0  # the exterior square has repeated roots
    assert resultant(r, r.derivative()) == 0
    assert discriminant(IntPoly.parse("1,0,-3,-2,3,-6,-17,-6,3,-2,-3,0,1")) != 0
    assert resultant(IntPoly.parse("3,-4,2"), IntPoly.parse("-1,5,0,7")) != 0
    assert made == []
    f = IntPoly.parse("-1,2,-3,1")
    assert sturm_count(f * f, -2, 5) == 1
    assert len(made) == 2  # the two endpoints given
    made.clear()
    lo, hi = real_root_enclosure(f, 2, 3, Fraction(1, 1 << 64))
    assert len(made) == 5  # three arguments given, two endpoints returned


# ---- the F_p[x] steps of the factorizer ----

primes = st.sampled_from([3, 5, 7, 11, 13, 31, 1999])


@given(p=primes, cs=st.lists(st.integers(0, 1998), min_size=1, max_size=12))
def test_ddf_and_factor_mod_p_match_list_forms(p, cs):
    f = _mtrim([c % p for c in cs]) + [1]
    df = _mtrim([i * c % p for i, c in enumerate(f) if i])
    assume(len(old_mgcd(f, df, p)) == 1)  # squarefree mod p
    ddf = intpoly._ddf(f, p)
    assert ddf == old_ddf(f, p)
    seed = "zassenhaus:" + ",".join(map(str, f))
    got = intpoly._factor_mod_p(ddf, p, random.Random(seed))
    assert got == old_factor_mod_p(f, p, random.Random(seed))


residues = st.lists(st.integers(0, 1998), max_size=9)


@given(p=primes, a=residues, b=residues)
def test_mod_gcd_matches_list_euclid(p, a, b):
    a, b = [c % p for c in a], [c % p for c in b]
    assert intpoly._mgcd(a, b, p) == old_mgcd(a, b, p)


# ---- wall-clock bounds on the degree-12 wedge-square factors ----

WEDGE_FACTORS = ("1,0,-3,-2,3,-6,-17,-6,3,-2,-3,0,1", "1,0,-5,0,7,-6,-17,-6,7,0,-5,0,1")


def test_squarefree_part_of_degree_66_resolvent_is_fast():
    r = exterior_resolvent(IntPoly.parse(WEDGE_FACTORS[0]), 2)
    t = time.perf_counter()
    sf = squarefree_part(r)
    elapsed = time.perf_counter() - t
    assert (r.degree, sf.degree) == (66, 43)
    assert sf.divides(r) and is_squarefree(sf)
    assert elapsed < 0.5, f"squarefree_part took {elapsed:.2f} s"


@pytest.mark.parametrize("text", WEDGE_FACTORS)
def test_degrees_of_degree_12_factor_are_fast(text):
    f = IntPoly.parse(text)
    t = time.perf_counter()
    rep = dynamical_degrees(companion(f), 6)
    elapsed = time.perf_counter() - t
    assert rep.exact_equalities == {(0, 6), (1, 5), (2, 4)}
    # lambda_p is the product of the 2p largest eigenvalue moduli
    with mpmath.workdps(50):
        roots = mpmath.polyroots(list(reversed(f.coeffs)), maxsteps=200, extraprec=200)
        moduli = sorted((abs(z) for z in roots), reverse=True)
        tol = mpmath.mpf(10) ** -30
        for p, (lo, hi) in enumerate(rep.lambdas):
            value = mpmath.fprod(moduli[: 2 * p])
            assert mpmath.mpf(lo.numerator) / lo.denominator - tol <= value
            assert value <= mpmath.mpf(hi.numerator) / hi.denominator + tol
    assert elapsed < 3, f"dynamical_degrees took {elapsed:.2f} s"
