"""Property tests for root isolation under the derandomized profile.

Inputs are random squarefree integer polynomials of degree 2 to 12 and
products with near-colliding factors: Mignotte polynomials
x^n - 2(ax - 1)^2, whose two real roots near 1/a lie about a^-(n/2 + 1)
apart, and pairs of linear factors with nearly equal roots.  mpmath's
``polyroots`` at 80 digits is the oracle for where the roots are.
"""

from fractions import Fraction

import mpmath
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from salemtori import certroots
from salemtori.certroots import isolate_roots
from salemtori.intpoly import IntPoly, is_squarefree

X = IntPoly.parse("0,1")


@st.composite
def random_polys(draw):
    n = draw(st.integers(2, 12))
    coeffs = draw(st.lists(st.integers(-20, 20), min_size=n + 1, max_size=n + 1))
    assume(coeffs[-1] != 0)
    return IntPoly(tuple(coeffs))


@st.composite
def near_collisions(draw):
    if draw(st.booleans()):
        n, a = draw(st.integers(3, 9)), draw(st.integers(2, 12))
        p = X**n - 2 * IntPoly((-1, a)) ** 2
    else:
        # roots 1/m and 1/(m + 1), about 1/m^2 apart
        m = draw(st.integers(10, 10**6))
        p = IntPoly((-1, m)) * IntPoly((-1, m + 1))
    extra = draw(st.lists(st.integers(-5, 5), min_size=2, max_size=4))
    assume(extra[-1] != 0)
    return p * IntPoly(tuple(extra))


polys = st.one_of(random_polys(), near_collisions()).filter(is_squarefree)


def _oracle_roots(p):
    with mpmath.workdps(80):
        return mpmath.polyroots(list(reversed(p.coeffs)), maxsteps=400, extraprec=400)


def _assert_one_root_per_disk(disks, roots):
    with mpmath.workdps(80):
        hits = [
            [
                k
                for k, z in enumerate(roots)
                if (z.real - mpmath.mpf(b.re.numerator) / b.re.denominator) ** 2
                + (z.imag - mpmath.mpf(b.im.numerator) / b.im.denominator) ** 2
                <= (mpmath.mpf(b.rad.numerator) / b.rad.denominator) ** 2
            ]
            for b in disks
        ]
    assert all(len(h) == 1 for h in hits), hits
    assert sorted(h[0] for h in hits) == list(range(len(roots)))


def _public(rs):
    return rs.roots, rs.conj, rs.recip, rs.modulus_class


@settings(max_examples=150)
@given(p=polys)
def test_each_disk_holds_one_root(p):
    roots = _oracle_roots(p)
    rs = isolate_roots(p, Fraction(1, 1 << 24))
    _assert_one_root_per_disk(rs.roots, roots)
    rs.refine(Fraction(1, 1 << 200))
    _assert_one_root_per_disk(rs.roots, roots)


@settings(max_examples=150)
@given(p=polys)
def test_fallback_path_agrees_with_default(p):
    rs = isolate_roots(p, Fraction(1, 1 << 24))
    want = _public(rs)
    original = certroots._float_seed
    certroots._float_seed = lambda p: None
    try:
        got = _public(isolate_roots(p, Fraction(1, 1 << 24)))
    finally:
        certroots._float_seed = original
    assert got == want


def test_newton_failure_falls_back_to_fixed_aberth(monkeypatch):
    # from coincident starts every Newton iterate lands on one root, so
    # Newton gives up and the fixed-point Aberth sweeps must certify
    p = IntPoly.parse("1,3,5,5,5,3,1")
    newton, sweeps = [], []

    def spy(target, log):
        def wrapped(*args):
            out = target(*args)
            log.append(out)
            return out

        return wrapped

    monkeypatch.setattr(certroots, "_newton", spy(certroots._newton, newton))
    monkeypatch.setattr(certroots, "_fixed_aberth", spy(certroots._fixed_aberth, sweeps))
    state = certroots._Isolation(p)
    shift = state.prec + 16
    state.zs = [(1 << shift, 1 << (shift - 1))] * p.degree
    state._sweep = True
    balls = state.ensure(Fraction(1, 1 << 24))
    assert newton[0] is None
    assert sweeps
    _assert_one_root_per_disk(balls, _oracle_roots(p))
