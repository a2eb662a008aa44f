"""Property tests for the dyadic midpoint-radius ComplexBall.

Two kinds of property, over hypothesis-drawn dyadic and non-dyadic
rational disks:

- every operation contains the exact image of points sampled from its
  input disks;
- on dyadic disks, every disk test, the product and ``modulus_interval``
  agree exactly with the formulas the library used when balls held
  ``Fraction`` triples.  Those formulas are kept below as the oracle.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemtori import certroots
from salemtori.certroots import ComplexBall, evaluate_poly_on_ball
from salemtori.exceptions import InputError, PrecisionExhausted
from salemtori.intpoly import IntPoly

# ---- the Fraction formulas, as the oracle ----


def old_sqrt_upper(q: Fraction, bits: int = 0) -> Fraction:
    n, d = q.numerator, q.denominator
    m = (n * d) << (2 * bits)
    s = math.isqrt(m)
    return Fraction(s if s * s == m else s + 1, d << bits)


def old_sqrt_lower(q: Fraction, bits: int = 0) -> Fraction:
    n, d = q.numerator, q.denominator
    return Fraction(math.isqrt((n * d) << (2 * bits)), d << bits)


def old_eps_level(eps: Fraction) -> int:
    m = 4
    while Fraction(1, 1 << m) > eps:
        m += 1
    return m


def old_abs_sq(b):
    return b.re * b.re + b.im * b.im


def old_is_disjoint(x, y):
    dx, dy, s = x.re - y.re, x.im - y.im, x.rad + y.rad
    return dx * dx + dy * dy > s * s


def old_contains_ball(x, y):
    slack = x.rad - y.rad
    if slack < 0:
        return False
    dx, dy = x.re - y.re, x.im - y.im
    return dx * dx + dy * dy <= slack * slack


def old_contains_point(b, re, im):
    dx, dy = re - b.re, im - b.im
    return dx * dx + dy * dy <= b.rad * b.rad


def old_excludes_zero(b):
    return old_abs_sq(b) > b.rad * b.rad


def old_modulus_interval(b):
    q = old_abs_sq(b)
    bits = 16 + q.denominator.bit_length()
    if b.rad > 0:
        bits = max(bits, 16 + old_eps_level(b.rad))
    lo = old_sqrt_lower(q, bits) - b.rad
    hi = old_sqrt_upper(q, bits) + b.rad
    return (lo if lo > 0 else Fraction(0), hi)


def old_mul(x, y):
    a = old_sqrt_upper(old_abs_sq(x))
    c = old_sqrt_upper(old_abs_sq(y))
    rad = a * y.rad + c * x.rad + x.rad * y.rad
    return (x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re, rad)


# ---- strategies ----


def dyadic(min_exp=-80, max_exp=8, bits=60):
    return st.builds(
        lambda m, e: Fraction(m) * Fraction(2) ** e,
        st.integers(-(1 << bits), 1 << bits),
        st.integers(min_exp, max_exp),
    )


def rational():
    return st.fractions(min_value=-1000, max_value=1000, max_denominator=10**9)


def balls(coord, radius):
    return st.builds(ComplexBall, coord, coord, radius)


dyadic_balls = balls(dyadic(), dyadic(bits=30).map(abs))
rational_balls = balls(rational(), st.one_of(st.just(Fraction(0)), rational().map(abs)))
any_balls = st.one_of(dyadic_balls, rational_balls)

# a point of the disk: the center moved by (t, s) * rad with t^2 + s^2 <= 1
offsets = st.tuples(
    st.fractions(min_value=Fraction(-7, 10), max_value=Fraction(7, 10), max_denominator=1000),
    st.fractions(min_value=Fraction(-7, 10), max_value=Fraction(7, 10), max_denominator=1000),
)


def point(b, off):
    return b.re + off[0] * b.rad, b.im + off[1] * b.rad


# ---- exact images of sampled points ----


@settings(max_examples=150)
@given(x=any_balls, y=any_balls, ox=offsets, oy=offsets)
def test_arithmetic_contains_images(x, y, ox, oy):
    (x1, y1), (x2, y2) = point(x, ox), point(y, oy)
    assert (x + y).contains_point(x1 + x2, y1 + y2)
    assert (x - y).contains_point(x1 - x2, y1 - y2)
    assert (x * y).contains_point(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2)
    assert (-x).contains_point(-x1, -y1)
    assert x.conjugate().contains_point(x1, -y1)


@settings(max_examples=150)
@given(x=any_balls, o=offsets)
def test_invert_contains_images(x, o):
    if not x.excludes_zero():
        with pytest.raises(InputError):
            x.invert()
        return
    px, py = point(x, o)
    den = px * px + py * py
    inv = x.invert()
    assert inv.contains_point(px / den, -py / den)
    # outward rounding may let a disk that nearly touches zero reach it
    if inv.excludes_zero():
        assert inv.invert().contains_point(px, py)


@settings(max_examples=100)
@given(
    x=any_balls,
    o=offsets,
    coeffs=st.lists(st.integers(-20, 20), min_size=1, max_size=7),
)
def test_poly_on_ball_contains_images(x, o, coeffs):
    p = IntPoly(tuple(coeffs))
    px, py = point(x, o)
    vr, vi = Fraction(0), Fraction(0)
    for c in reversed(p.coeffs if p.coeffs else (0,)):
        vr, vi = vr * px - vi * py + c, vr * py + vi * px
    assert evaluate_poly_on_ball(p, x).contains_point(vr, vi)


@settings(max_examples=150)
@given(re=rational(), im=rational(), rad=st.one_of(st.just(Fraction(0)), rational().map(abs)))
def test_rational_input_rounds_outward(re, im, rad):
    b = ComplexBall(re, im, rad)
    slack = b.rad - rad
    assert slack >= 0
    assert (b.re - re) ** 2 + (b.im - im) ** 2 <= slack * slack
    dens = (re.denominator, im.denominator, rad.denominator)
    if all(d & (d - 1) == 0 for d in dens):
        assert (b.re, b.im, b.rad) == (re, im, rad)


# ---- agreement with the Fraction formulas on dyadic disks ----


@settings(max_examples=200)
@given(x=dyadic_balls, y=dyadic_balls)
def test_dyadic_disk_tests_match_fraction_formulas(x, y):
    assert x.is_disjoint(y) == old_is_disjoint(x, y)
    assert x.contains_ball(y) == old_contains_ball(x, y)
    assert x.excludes_zero() == old_excludes_zero(x)
    assert x.center_abs_sq() == old_abs_sq(x)
    # a point on the disk's boundary decides containment exactly
    edge = (y.re, y.im) if y.rad else (x.re + x.rad, x.im)
    assert x.contains_point(*edge) == old_contains_point(x, *edge)


@settings(max_examples=200)
@given(x=dyadic_balls, y=dyadic_balls)
def test_dyadic_arithmetic_matches_fraction_formulas(x, y):
    prod = x * y
    assert (prod.re, prod.im, prod.rad) == old_mul(x, y)
    total = x + y
    assert (total.re, total.im, total.rad) == (x.re + y.re, x.im + y.im, x.rad + y.rad)
    diff = x - y
    assert (diff.re, diff.im, diff.rad) == (x.re - y.re, x.im - y.im, x.rad + y.rad)


@settings(max_examples=200)
@given(x=st.one_of(dyadic_balls, balls(dyadic(), st.just(Fraction(0)))))
def test_dyadic_modulus_interval_matches_fraction_formula(x):
    assert x.modulus_interval() == old_modulus_interval(x)


@given(
    x=dyadic(), y=dyadic(),
    off=st.tuples(st.integers(-3, 3), st.integers(-3, 3)), num=st.integers(1, 7),
)
def test_contains_point_on_rational_points(x, y, off, num):
    b = ComplexBall(x, y, Fraction(1, 4))
    p = (x + Fraction(off[0] * num, 7 * 4), y + Fraction(off[1], 3 * 4))
    assert b.contains_point(*p) == old_contains_point(b, *p)


# ---- the eps level ----


@settings(max_examples=300)
@given(
    eps=st.one_of(
        st.fractions(min_value=Fraction(1, 10**60), max_value=10**6, max_denominator=10**70),
        dyadic(min_exp=-200, max_exp=20),
    ).filter(lambda q: q > 0)
)
def test_eps_level_matches_loop(eps):
    assert certroots._eps_level(eps) == old_eps_level(eps)


def test_eps_level_names_the_bits_asked_for():
    cap = certroots._MAX_PREC
    assert certroots._eps_level(Fraction(1, 1 << cap)) == cap
    with pytest.raises(PrecisionExhausted, match=f"{cap + 5} bits"):
        certroots._eps_level(Fraction(1, 1 << (cap + 5)))
