"""The paper's torus theorem as properties of realified torus maps.

For an integer unimodular k x k matrix M and a unimodular U, the map
A = U (M + M) U^-1 commutes with U J U^-1, J = [[0, -I], [I, 0]], so it is
the lattice map of an automorphism of a complex k-torus.  The paper: when
k <= 4 and lambda_1 is a Salem number, lambda_1 = lambda_{k-1} or
lambda_1^2 = lambda_{k-2}.  For k = 3 that is lambda_1 = lambda_2; for
k = 4 it is lambda_1 = lambda_3 or a tie of the top moduli.

M is a direct sum of companions of cyclotomic, Salem, Pisot and
nonreal-top factors.  The Salem answer is checked against an oracle that
finds the minimal polynomial of a 60-digit lambda_1 with mpmath's
integer-relation search and tests it numerically; where the search finds
none, only the theorem is checked.  The oracle also checks the answer on
direct sums of companions that are no such M + M, where the top two
moduli may come from a real and a nonreal root of different factors.
"""

import math

import mpmath
from hypothesis import assume, example, given
from hypothesis import strategies as st

from salemtori import salem
from salemtori.certroots import RootStore
from salemtori.exactlin import IntMatrix, companion, solve_columns_exact
from salemtori.intpoly import IntPoly
from salemtori.salem import dynamical_degrees, enumerate_special, gross_mcmullen, is_salem
from unimodular import unimodular_completion

FACTORS = tuple(
    IntPoly.parse(text)
    for text in (
        "-1,1",  # x - 1
        "1,1",  # x + 1
        "1,0,1",  # x^2 + 1
        "1,1,1",  # x^2 + x + 1
        "1,-1,1",  # x^2 - x + 1
        "-1,-1,1",  # x^2 - x - 1, the golden ratio (Pisot)
        "1,3,1",  # x^2 + 3x + 1, a negative Salem root
        "-1,-1,0,1",  # x^3 - x - 1, the plastic number (Pisot)
        "1,1,1,1,1",  # Phi_5
        "1,0,-1,0,1",  # Phi_12
        "1,0,7,0,1",  # nonreal top roots of modulus (1 + sqrt 5)/2 squared
        "1,0,3,0,1",  # nonreal top roots of modulus (1 + sqrt 5)/2
    )
) + (gross_mcmullen(2), gross_mcmullen(4))


def _blocks(polys):
    m = companion(polys[0])
    for p in polys[1:]:
        m = m.direct_sum(companion(p))
    return m


@st.composite
def torus_maps(draw, k):
    """(blocks of M, A = U (M + M) U^-1) for M of size k."""
    blocks = []
    while sum(f.degree for f in blocks) < k:
        left = k - sum(f.degree for f in blocks)
        blocks.append(draw(st.sampled_from([f for f in FACTORS if f.degree <= left])))
    m = _blocks(blocks)
    n = 2 * k
    col = tuple(draw(st.integers(-2, 2)) for _ in range(n))
    assume(any(col) and math.gcd(*col) == 1)
    u = unimodular_completion(IntMatrix.from_columns([col]))
    inv = solve_columns_exact(u, IntMatrix.identity(n).columns())
    uinv = IntMatrix.from_columns([tuple(int(c) for c in x) for x in inv])
    return tuple(blocks), u * m.direct_sum(m) * uinv


def salem_oracle(blocks):
    """Whether lambda_1, the product of the two largest root moduli of the
    blocks, is a Salem number, or None when no minimal polynomial is
    found."""
    with mpmath.workdps(60):
        moduli = sorted(
            (
                abs(r)
                for f in blocks
                for r in mpmath.polyroots(list(reversed(f.coeffs)), maxsteps=200, extraprec=200)
            ),
            reverse=True,
        )
        lam = moduli[0] * moduli[1]
        poly = mpmath.findpoly(lam, 8, maxcoeff=10**5)
        if poly is None:
            return None
        poly = [int(c) for c in poly]
        if poly[0] < 0:
            poly = [-c for c in poly]
        if len(poly) < 3 or poly != poly[::-1] or poly[0] != 1:
            return False
        roots = mpmath.polyroots(poly, maxsteps=200)
        outside = sum(abs(r) > 1 + mpmath.mpf(10) ** -30 for r in roots)
    return outside == 1


def _check(blocks, a, k):
    rep = dynamical_degrees(a, k)
    want = salem_oracle(blocks + blocks)
    if want is not None:
        assert rep.salem_first is want
    if rep.salem_first:
        if k == 3:
            assert (1, 2) in rep.exact_equalities
        else:
            top, fourth = rep.order[0], rep.order[3]
            assert (1, 3) in rep.exact_equalities or (
                salem._cmp_moduli(rep.spectrum, top, fourth) == 0
            )


def _plain(*texts):
    blocks = tuple(IntPoly.parse(t) for t in texts)
    m = _blocks(blocks)
    return blocks, m.direct_sum(m)


@given(case=torus_maps(3))
@example(case=_plain("-1,1", "1,-3,1"))  # Salem, lambda_1 = lambda_2
@example(case=_plain("-1,-1,0,1"))  # lambda_1 the plastic number squared
def test_salem_first_degree_on_complex_3_tori(case):
    _check(*case, 3)


@given(case=torus_maps(4))
@example(case=_plain("1,-1,-1,-1,1"))  # Salem, with (1, 3) and (1, 2)
@example(case=_plain("1,0,7,0,1"))  # a doubled nonreal top root
@example(case=_plain("1,-3,1", "1,-3,1"))  # Salem by the degree-2 convention
# lambda_1 = lambda_3 through the roots phi and -1/phi of x^2-x-1
@example(case=_plain("-1,-1,1", "1,3,1"))
def test_salem_first_degree_on_complex_4_tori(case):
    _check(*case, 4)


@st.composite
def block_sums(draw):
    """Two or three factors of even total degree."""
    blocks = tuple(draw(st.lists(st.sampled_from(FACTORS), min_size=2, max_size=3)))
    assume(sum(f.degree for f in blocks) % 2 == 0)
    return blocks


@given(blocks=block_sums())
@example(blocks=(IntPoly.parse("1,-7,1"), IntPoly.parse("1,0,7,0,1")))  # lambda_1 Salem
# lambda_1^2 is a root of the Salem polynomial x^2-123x+1, lambda_1 of x^2-11x-1
@example(blocks=(IntPoly.parse("1,-7,1"), IntPoly.parse("1,0,3,0,1")))
def test_salem_first_on_block_sums(blocks):
    want = salem_oracle(blocks)
    assume(want is not None)
    rep = dynamical_degrees(_blocks(blocks), sum(f.degree for f in blocks) // 2)
    assert rep.salem_first is want


def test_square_route_agrees_with_conjugate_shortcut():
    # on a special sextic the top two instances are a conjugate pair, and
    # lambda_1 = |a|^2; the route through lambda_1^2 must agree
    for _q, p, _cls in list(enumerate_special(1))[:6]:
        spec = salem._Spectrum(p, RootStore())
        a = salem._sorted_instances(spec)[0]
        b = spec.conj_instance(*a)
        shortcut = is_salem(salem._modsq_root(spec, a)).is_salem
        assert salem._salem_first_squared(spec, a, b) is shortcut
