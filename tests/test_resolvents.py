"""Power-sum resolvents against their matrix oracles.

``exterior_resolvent``, ``shifted_pair_resolvent`` and
``composed_product`` build from Newton's identities the characteristic
polynomials that ``exactlin`` computes from wedge powers, additive
compounds and Kronecker products of companion matrices.  The matrix
forms live in ``tests/wedge.py`` and serve here as the independent
oracle.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemtori.exactlin import char_poly, companion
from salemtori.exceptions import BadRank, NotMonic, VerificationFailed
from salemtori.intpoly import (
    IntPoly,
    composed_product,
    exterior_resolvent,
    from_power_sums,
    power_sums,
    shifted_pair_resolvent,
    taylor_shift,
)
from wedge import additive_compound2, wedge_power

P1 = IntPoly.parse("1,3,5,5,5,3,1")


def monic(min_degree=1, max_degree=6, bound=5):
    """Monic integer polynomials with lower coefficients in [-bound, bound]."""
    return st.lists(
        st.integers(-bound, bound), min_size=min_degree, max_size=max_degree
    ).map(lambda cs: IntPoly(tuple(cs) + (1,)))


@settings(max_examples=60)
@given(p=monic(), m=st.integers(0, 12))
def test_power_sums_are_companion_traces(p, m):
    c = companion(p)
    assert power_sums(p, m) == tuple((c ** j).trace() for j in range(1, m + 1))
    assert from_power_sums(power_sums(p, p.degree)) == p


@settings(max_examples=60)
@given(p=monic(max_degree=8), c=st.integers(-4, 4), x=st.integers(-6, 6))
def test_taylor_shift_moves_the_variable(p, c, x):
    assert taylor_shift(p, c).evaluate(x) == p.evaluate(x + c)
    assert taylor_shift(taylor_shift(p, c), -c) == p


@settings(max_examples=60)
@given(data=st.data(), k=st.integers(1, 3))
def test_exterior_resolvent_matches_wedge_power(data, k):
    p = data.draw(monic(min_degree=k))
    assert exterior_resolvent(p, k) == char_poly(wedge_power(companion(p), k))


@settings(max_examples=60)
@given(f=monic(max_degree=4), g=monic(max_degree=4))
def test_composed_product_matches_kron(f, g):
    assert composed_product(f, g) == char_poly(companion(f).kron(companion(g)))


@settings(max_examples=60)
@given(p=monic(min_degree=2), c=st.integers(-3, 3))
def test_shifted_pair_resolvent_matches_additive_compound(p, c):
    a = companion(p)
    expected = char_poly(wedge_power(a, 2) + additive_compound2(a) * c)
    assert shifted_pair_resolvent(p, c) == expected


def test_degree_twelve_exterior_square():
    # the 66 x 66 wedge square of a degree-12 exterior-square factor of a
    # special sextic, the largest resolvent the degree computations build
    f = IntPoly.parse("1,0,-3,-2,3,-6,-17,-6,3,-2,-3,0,1")
    assert exterior_resolvent(f, 2) == char_poly(wedge_power(companion(f), 2))


def test_sextic_resolvents_split_as_expected():
    # the wedge cube of a reciprocal sextic with p(0) = 1 holds p twice
    # (a_i a_j a_k = 1 / (the other three)), leaving the degree-8 octet
    t8 = exterior_resolvent(P1, 3).div_exact(P1 * P1)
    assert t8.degree == 8
    assert exterior_resolvent(P1, 6) == IntPoly.parse("-1,1")


@pytest.mark.parametrize(
    "build",
    [
        lambda p: power_sums(p, 3),
        lambda p: exterior_resolvent(p, 2),
        lambda p: shifted_pair_resolvent(p, 1),
        lambda p: composed_product(p, IntPoly.parse("1,1")),
        lambda p: composed_product(IntPoly.parse("1,1"), p),
        companion,
    ],
    ids=["power_sums", "exterior", "shifted", "product-left", "product-right", "companion"],
)
def test_non_monic_input_raises(build):
    with pytest.raises(NotMonic):
        build(IntPoly.parse("1,0,2"))


@pytest.mark.parametrize("k", [0, 4, 7])
def test_rank_outside_degree_raises(k):
    p = IntPoly.parse("1,2,0,1")
    with pytest.raises(BadRank):
        exterior_resolvent(p, k)
    with pytest.raises(BadRank):
        wedge_power(companion(p), k)


def test_inexact_newton_step_is_named():
    # power sums (1, 0) force e_2 = 1/2: no monic integer polynomial has them
    with pytest.raises(VerificationFailed, match="Newton step 2 of 2"):
        from_power_sums((1, 0))


def generic_exterior(p, k):
    """The exterior resolvent through one Newton inversion per power:
    e_k of the j-th powers from P_j, P_2j, ..., P_kj."""
    size = math.comb(p.degree, k)
    ps = power_sums(p, k * size)
    sign = (-1) ** k
    return from_power_sums(
        [sign * from_power_sums(ps[j - 1 : k * j : j]).coeffs[0] for j in range(1, size + 1)]
    )


@settings(max_examples=60)
@given(p=monic(min_degree=2, max_degree=12, bound=20))
def test_exterior_square_matches_generic_route(p):
    # k = 2 reads e_2 of the j-th powers as (P_j^2 - P_2j) / 2
    assert exterior_resolvent(p, 2) == generic_exterior(p, 2)
