"""Value location by zero exclusion.

A derived value (a pair product, an octet triple product, a modulus
square or a product of eigenvalues) is a root of a factored resolvent,
and ``certroots._owner`` names its factor by certifying every other
factor zero-free on the value's disk (``certroots._zero_free``, the mean
value inequality on integer mantissas).  The isolation route, which
isolates every factor and finds the one root the value's disk meets, is
kept in ``isolation_route.py`` as the oracle.  ``_zero_free`` is checked
against mpmath roots and exact rational evaluation under the derandomized
profile of ``conftest.py``.
"""

import itertools
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from salemtori import salem
from salemtori.certroots import ComplexBall, RootStore, _ball, _zero_free
from salemtori.exactlin import companion
from salemtori.intpoly import IntPoly, exterior_resolvent, factor_over_z, is_squarefree
from salemtori.salem import (
    ALL_PAIRS,
    OCTET_TRIPLES,
    SexticAnalysis,
    _partition_from_match,
    dynamical_degrees,
    enumerate_special,
)
from isolation_route import isolation_owner
from test_torus_theorem import FACTORS


@pytest.fixture
def checked_min_poly(monkeypatch):
    """Every salem._min_poly_at answer checked against the isolation route;
    yields the list of polynomials it was asked about."""
    asked = []
    real = salem._min_poly_at

    def checked(spec, poly, value):
        m = real(spec, poly, value)
        fl = spec.store.factors(poly)
        assert fl.factors[isolation_owner(value, fl)][0] == m, (poly, m)
        asked.append(poly)
        return m

    monkeypatch.setattr(salem, "_min_poly_at", checked)
    return asked


def test_owners_match_isolation_route_on_bound_3_corpus(checked_min_poly):
    rows = 0
    for _q, p, cls in enumerate_special(3):
        sx = SexticAnalysis(p, cls)
        oracle = RootStore()
        plain = [isolation_owner(sx.pair_value(i, j), sx.wedge2_factors, oracle) for i, j in ALL_PAIRS]
        assert sx.wedge2_match == plain, str(p)
        assert sx.pair_orbits()[0] == _partition_from_match(plain), str(p)
        _t8, fl, owners = sx.octet
        want = tuple(
            fl.factors[isolation_owner(sx.triple_value(t), fl, oracle)][0] for t in OCTET_TRIPLES
        )
        assert owners == want, str(p)
        # the minimal polynomial of every |root|^2, and lambda_1's Salem test
        spec = salem._Spectrum(p, sx.store)
        for inst in spec.instances():
            salem._modsq_root(spec, inst)
        salem.first_dynamical_degree_salem(sx)
        rows += 1
    assert rows == 120
    assert len(checked_min_poly) == 120 * 7


def test_min_poly_matches_isolation_route_on_block_sums(checked_min_poly, monkeypatch):
    # two blocks of even total degree: lambda_1 through |a|^2, a product
    # of two real roots, or lambda_1^2
    squared = []
    real = salem._salem_first_squared
    monkeypatch.setattr(
        salem, "_salem_first_squared", lambda *args: squared.append(args) or real(*args)
    )
    seen = 0
    for f, g in itertools.combinations_with_replacement(FACTORS, 2):
        if (f.degree + g.degree) % 2:
            continue
        a = companion(f).direct_sum(companion(g))
        dynamical_degrees(a, (f.degree + g.degree) // 2).salem_first
        seen += 1
    assert seen == 72
    assert squared and len(checked_min_poly) > 30


# ---- the zero-free test ----


@st.composite
def polys(draw):
    """Non-monic integer polynomials of degree 1 to 7 with coefficients of
    up to 4, 16 or 64 bits."""
    bits = draw(st.sampled_from([4, 16, 64]))
    coeff = st.integers(-(1 << bits), 1 << bits)
    deg = draw(st.integers(1, 7))
    lead = draw(st.integers(1, 1 << bits)) * draw(st.sampled_from([1, -1]))
    return IntPoly(tuple(draw(coeff) for _ in range(deg)) + (lead,))


def _roots(g: IntPoly):
    """mpmath's roots of g with margins that cover their error, at 60
    digits; the caller must hold mpmath.workdps(60)."""
    try:
        roots, err = mpmath.polyroots(
            list(reversed(g.coeffs)), maxsteps=400, extraprec=400, error=True
        )
    except mpmath.libmp.libhyper.NoConvergence:
        return None
    return [(z, 4 * err * max(1, abs(z)) + mpmath.mpf(2) ** -150) for z in roots]


def _disk_around(z, margin, offset, e, extra):
    """A disk (C, R) 2^e, an exact _ball, with center near z + offset and
    radius at least the distance to z plus margin, plus extra units."""
    scale = mpmath.mpf(2) ** e
    w = z + offset
    cr, ci = int(mpmath.nint(w.real / scale)), int(mpmath.nint(w.imag / scale))
    d = abs(mpmath.mpc(cr, ci) * scale - z) + margin
    return _ball(cr, ci, int(mpmath.ceil(d / scale)) + extra, e)


@given(
    g=polys(),
    e=st.integers(-80, 12),
    angle=st.floats(0, 6.3),
    dist=st.integers(-80, 8),
    extra=st.sampled_from([0, 0, 1, 1 << 20]),
)
@example(g=IntPoly.parse("-1,-1,0,1"), e=-60, angle=0.0, dist=-70, extra=0)
@example(g=IntPoly((3, 0, 5)), e=20, angle=1.0, dist=-80, extra=0)  # positive exponent
@example(g=IntPoly((1 << 64, -(1 << 64) + 1, 7)), e=-40, angle=2.0, dist=-30, extra=0)
def test_zero_free_never_holds_on_a_disk_with_a_root(g, e, angle, dist, extra):
    # disks about each root, and disks whose boundary passes next to it
    assume(is_squarefree(g))
    with mpmath.workdps(60):
        roots = _roots(g)
        assume(roots is not None)
        for z, margin in roots:
            for offset in (0, mpmath.mpf(2) ** dist * mpmath.expjpi(angle / mpmath.pi)):
                ball = _disk_around(z, margin, offset, e, extra)
                assert not _zero_free(g, ball), (g, z, ball)


@given(
    h=polys(),
    re=st.integers(-(1 << 40), 1 << 40),
    im=st.integers(-(1 << 40), 1 << 40),
    e=st.integers(-64, 16),
)
def test_zero_free_never_holds_on_a_root_point(h, re, im, e):
    # g = h times the minimal polynomial over Z of the Gaussian point
    # (re + i im) 2^e, a disk of radius 0
    if e >= 0:
        a, b, d = re << e, im << e, 1
    else:
        a, b, d = re, im, 1 << -e
    root = IntPoly((-a, d)) if im == 0 else IntPoly((a * a + b * b, -2 * a * d, d * d))
    assert not _zero_free(root * h, _ball(re, im, 0, e))


@given(
    g=polys(),
    re=st.integers(-(1 << 40), 1 << 40),
    im=st.integers(-(1 << 40), 1 << 40),
    e=st.integers(-64, 16),
)
@example(g=IntPoly((0, 1)), re=0, im=0, e=0)
def test_zero_free_on_a_point_is_exact_nonvanishing(g, re, im, e):
    x, y = Fraction(re) * Fraction(2) ** e, Fraction(im) * Fraction(2) ** e
    vr, vi = 0, 0
    for c in reversed(g.coeffs):
        vr, vi = vr * x - vi * y + c, vr * y + vi * x
    assert _zero_free(g, _ball(re, im, 0, e)) == (vr != 0 or vi != 0)


def test_zero_free_holds_far_from_every_root():
    # 3x^2 + 5 has roots +-i sqrt(5/3); about 40 + 40i the disk of radius
    # 1/2 is far from both, and the mean value bound is far below |g(c)|
    g = IntPoly((5, 0, 3))
    assert _zero_free(g, ComplexBall(40, 40, Fraction(1, 2)))
    # so is the degree-12 wedge-square factor of a special sextic on a
    # disk of radius 2^-30 about a point well away from its roots
    f = factor_over_z(exterior_resolvent(IntPoly.parse("1,3,5,5,5,3,1"), 2)).factors[-1][0]
    assert f.degree == 6
    assert _zero_free(f, ComplexBall(Fraction(1, 3), Fraction(7, 5), Fraction(1, 1 << 30)))
