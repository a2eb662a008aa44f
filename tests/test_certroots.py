import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from salemtori import certroots
from salemtori.certroots import (
    CertValue,
    ComplexBall,
    RootStore,
    certify_value_match,
    derived_value,
    evaluate_poly_on_ball,
    isolate_roots,
    refine_until,
)
from salemtori.exactlin import char_poly, companion
from salemtori.exceptions import (
    Ambiguous,
    InputError,
    NotSquarefree,
    PrecisionExhausted,
    VerificationFailed,
)
from salemtori.intpoly import IntPoly, exterior_resolvent, factor_over_z, is_squarefree
from salemtori.salem import _Spectrum, enumerate_special
from wedge import wedge_power

P1 = IntPoly.parse("1,3,5,5,5,3,1")
CUBIC = IntPoly.parse("-1,-1,0,1")  # t^3 - t - 1
EPS = Fraction(1, 1 << 20)


def mp_roots(p, dps=40):
    with mpmath.workdps(dps):
        return mpmath.polyroots(
            [p.coeffs[-1 - i] for i in range(p.degree + 1)], maxsteps=200, extraprec=80
        )


def frac(mpf):
    # decimal string round-trip is plenty below ball radii used here
    return Fraction(mpmath.nstr(mpf, 30, strip_zeros=False))


# ---- ComplexBall arithmetic ----


def test_ball_mul_contains_products():
    rng = random.Random(1201)
    for _ in range(200):
        def rnd_ball():
            c = ComplexBall(
                Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                Fraction(rng.randint(0, 5), 7),
            )
            return c

        def rnd_point(b):
            # random rational point inside: center + t*(r/2, s*r/2) scaled into disk
            t = Fraction(rng.randint(-10, 10), 21)
            s = Fraction(rng.randint(-10, 10), 21)
            return (b.re + t * b.rad, b.im + s * b.rad)

        b1, b2 = rnd_ball(), rnd_ball()
        (x1, y1), (x2, y2) = rnd_point(b1), rnd_point(b2)
        prod = b1 * b2
        pr = x1 * x2 - y1 * y2
        pi = x1 * y2 + y1 * x2
        assert prod.contains_point(pr, pi)
        s = b1 + b2
        assert s.contains_point(x1 + x2, y1 + y2)
        d = b1 - b2
        assert d.contains_point(x1 - x2, y1 - y2)


def test_ball_invert_exact_image():
    rng = random.Random(1202)
    for _ in range(200):
        b = ComplexBall(
            Fraction(rng.randint(2, 50), rng.randint(1, 5)),
            Fraction(rng.randint(-50, 50), rng.randint(1, 5)),
            Fraction(1, rng.randint(2, 20)),
        )
        if not b.excludes_zero():
            continue
        inv = b.invert()
        for _ in range(5):
            t = Fraction(rng.randint(-10, 10), 11)
            s = Fraction(rng.randint(-10, 10), 11)
            x = b.re + t * b.rad / 2
            y = b.im + s * b.rad / 2
            den = x * x + y * y
            assert inv.contains_point(x / den, -y / den)
        # double inversion returns to a disk containing the original center
        assert inv.invert().contains_point(b.re, b.im)


def test_ball_invert_rejects_zero_disk():
    with pytest.raises(InputError):
        ComplexBall(Fraction(1, 2), Fraction(0), Fraction(1)).invert()


def test_modulus_interval_bounds():
    b = ComplexBall(Fraction(3), Fraction(4), Fraction(1, 10))
    lo, hi = b.modulus_interval()
    assert lo <= 5 <= hi
    assert hi - lo <= Fraction(1, 5) + Fraction(1, 100)


def test_poly_on_ball_contains_value():
    rng = random.Random(1203)
    p = IntPoly.parse("2,-3,0,1")
    for _ in range(100):
        b = ComplexBall(
            Fraction(rng.randint(-9, 9), 4),
            Fraction(rng.randint(-9, 9), 4),
            Fraction(1, rng.randint(3, 30)),
        )
        x = b.re + b.rad / 3
        y = b.im - b.rad / 5
        vr = x * (x * x - 3 * y * y) - 3 * x + 2
        vi = y * (3 * x * x - y * y) - 3 * y
        assert evaluate_poly_on_ball(p, b).contains_point(vr, vi)


# ---- isolation on reference inputs ----


def test_gaussian_units():
    rs = isolate_roots(IntPoly.parse("1,0,1"), Fraction(1, 10**6))
    assert len(rs.roots) == 2
    assert rs.modulus_class == ("eq1", "eq1")
    assert rs.conj == (1, 0)
    assert rs.recip == (1, 0)
    assert rs.roots[0].contains_point(0, 1) or rs.roots[0].contains_point(0, -1)
    assert rs.roots[0].im * rs.roots[1].im < 0


def test_sextic_canonical_labels():
    rs = isolate_roots(P1, Fraction(1, 10**8))
    assert rs.labeling == "special-canonical"
    assert rs.modulus_class == ("eq1", "eq1", "gt1", "lt1", "lt1", "gt1")
    assert rs.conj == (1, 0, 5, 4, 3, 2)
    assert rs.recip == (1, 0, 3, 2, 5, 4)
    assert rs.roots[0].im > 0 and rs.roots[2].im > 0 and rs.roots[4].im > 0
    assert rs.roots[1].im < 0 and rs.roots[3].im < 0 and rs.roots[5].im < 0


def test_sextic_roots_against_float_solver():
    rs = isolate_roots(P1, Fraction(1, 10**10))
    approx = mp_roots(P1)
    # every float root falls in exactly one disk
    used = set()
    for z in approx:
        hits = [
            i
            for i, b in enumerate(rs.roots)
            if b.contains_point(frac(mpmath.re(z)), frac(mpmath.im(z)))
        ]
        assert len(hits) == 1
        used.add(hits[0])
    assert used == set(range(6))


def test_cubic_real_root():
    rs = isolate_roots(CUBIC, Fraction(1, 10**6))
    assert rs.recip is None
    reals = [i for i in range(3) if rs.conj[i] == i]
    assert len(reals) == 1
    r = reals[0]
    assert rs.roots[r].contains_point(Fraction("1.3247179572447460259609088545"))
    assert rs.modulus_class[r] == "gt1"
    others = [i for i in range(3) if i != r]
    assert rs.conj[others[0]] == others[1]
    assert all(rs.modulus_class[i] == "lt1" for i in others)


def test_unit_roots_without_reciprocal_input():
    # (t - 2)(t^2 + 1): the circle pair is certified eq1 even though the
    # polynomial as a whole is not self-reciprocal
    p = IntPoly.parse("-2,1,-2,1")
    rs = isolate_roots(p, Fraction(1, 10**6))
    assert rs.recip is None
    assert sorted(rs.modulus_class) == ["eq1", "eq1", "gt1"]
    big = rs.modulus_class.index("gt1")
    assert rs.roots[big].contains_point(2)


def test_real_unit_roots():
    rs = isolate_roots(IntPoly.parse("-1,0,1"), Fraction(1, 10**6))
    assert rs.modulus_class == ("eq1", "eq1")
    assert rs.conj == (0, 1)
    assert rs.recip == (0, 1)


def test_root_at_zero():
    rs = isolate_roots(IntPoly.parse("0,-1,1"), Fraction(1, 64))
    classes = sorted(rs.modulus_class)
    assert classes == ["eq1", "lt1"]


def test_salem_quartic_classes():
    # real pair lambda, 1/lambda plus a conjugate unit pair
    p = IntPoly.parse("1,-5,7,-5,1")
    rs = isolate_roots(p, Fraction(1, 10**6))
    assert rs.recip is not None
    assert sorted(rs.modulus_class) == ["eq1", "eq1", "gt1", "lt1"]
    for i in range(4):
        if rs.modulus_class[i] == "gt1":
            assert rs.conj[i] == i
            assert rs.modulus_class[rs.recip[i]] == "lt1"
        if rs.modulus_class[i] == "eq1":
            assert rs.recip[i] == rs.conj[i]


def test_rejects_non_squarefree():
    with pytest.raises(NotSquarefree):
        isolate_roots(IntPoly.parse("1,2,1"), EPS)


def test_rejects_constant_and_bad_eps():
    with pytest.raises(InputError):
        isolate_roots(IntPoly.parse("5"), EPS)
    with pytest.raises(InputError):
        isolate_roots(P1, 0)


# ---- float seeds and the self-reciprocal shortcut ----

# the cyclotomic and Salem factors of the lattice-maps benchmark's table
TABLE_FACTORS = (
    "1,1,1", "1,0,1", "1,-1,1", "1,1,1,1,1", "1,0,0,0,1", "1,-1,1,-1,1",
    "1,0,-1,0,1", "1,-3,1", "1,-4,1", "1,-5,1", "1,-1,-1,-1,1",
    "1,-2,1,-2,1", "1,-3,3,-3,1", "1,-5,7,-5,1", "1,0,-1,-1,-1,0,1",
    "1,0,0,-1,-1,-1,0,0,1",
)
WORKED = ("1,3,5,5,5,3,1", "1,-5,13,-11,13,-5,1", "1,1,3,1,3,1,1")
# degree-12 wedge-square factors whose lt1 and gt1 classes each hold two
# conjugate pairs of one modulus: the order of the pairs is an exact tie
TIED_FACTORS = ("1,0,-3,-2,3,-6,-17,-6,3,-2,-3,0,1", "1,0,-5,0,7,-6,-17,-6,7,0,-5,0,1")


def _public(rs):
    return rs.roots, rs.conj, rs.recip, rs.modulus_class, rs.labeling


def test_float_seeds_and_circle_start_agree(monkeypatch):
    # the order of equal-modulus roots must not depend on where the
    # approximations came from
    polys = [p for _t, p, _c in enumerate_special(1)]
    polys += [IntPoly.parse(t) for t in TABLE_FACTORS + WORKED + TIED_FACTORS]
    seeded = []
    for p in polys:
        assert certroots._float_seed(p) is not None
        rs = isolate_roots(p, Fraction(1, 1 << 24))
        coarse = _public(rs)
        rs.refine(Fraction(1, 1 << 80))
        seeded.append((coarse, _public(rs)))
    monkeypatch.setattr(certroots, "_float_seed", lambda p: None)
    for p, want in zip(polys, seeded):
        rs = isolate_roots(p, Fraction(1, 1 << 24))
        coarse = _public(rs)
        rs.refine(Fraction(1, 1 << 80))
        assert (coarse, _public(rs)) == want, str(p)


def test_overflowing_coefficients_fall_back_to_circle_start():
    # x^2 - 10^400 x + 1: no float holds the middle coefficient
    p = IntPoly((1, -(10**400), 1))
    assert certroots._float_seed(p) is None
    start = time.perf_counter()
    rs = isolate_roots(p, Fraction(1, 1 << 24))
    assert time.perf_counter() - start < 10
    big = rs.modulus_class.index("gt1")
    assert abs(rs.roots[big].re - 10**400) < 1
    assert abs(rs.roots[1 - big].re) < Fraction(1, 1 << 20)


def _isolations_agree(p, monkeypatch):
    """Isolate p from its float seeds and again from the fixed-point
    circle start, and check that both present the same roots."""
    seeded = _public(isolate_roots(p, Fraction(1, 1 << 24)))
    with monkeypatch.context() as m:
        m.setattr(certroots, "_float_seed", lambda p: None)
        assert _public(isolate_roots(p, Fraction(1, 1 << 24))) == seeded


@pytest.mark.parametrize(
    "text,zeros,radii",
    [
        # x (x^2 - 3x + 1): one point at 0, then the hull of 1, -3x, x^2
        ("0,1,-3,1", 1, [(1 / 3, 1), (3, 1)]),
        # x^7 - 2: one edge
        ("-2,0,0,0,0,0,0,1", 0, [(2 ** (1 / 7), 7)]),
        # x^7 - 3x^2 + 1: zero middle coefficients, two edges
        ("1,0,-3,0,0,0,0,1", 0, [(3 ** -0.5, 2), (3**0.2, 5)]),
    ],
    ids=["root-at-zero", "one-edge", "zero-middle"],
)
def test_polygon_start_edge_cases(text, zeros, radii, monkeypatch):
    p = IntPoly.parse(text)
    start = certroots._polygon_start(p)
    assert len(start) == p.degree
    assert start[:zeros] == [0j] * zeros
    k = zeros
    for r, m in radii:
        # m points on the circle of 0.9 times the edge's radius, none real
        for z in start[k : k + m]:
            assert abs(abs(z) - 0.9 * r) < 1e-12 and z.imag != 0
        k += m
    assert certroots._float_seed(p) is not None
    _isolations_agree(p, monkeypatch)


def test_float_seed_overflow_falls_back(monkeypatch):
    # (2^1100 x - 1)(x^2 + 1): no float holds the leading coefficient
    p = IntPoly((-1, 1 << 1100)) * IntPoly.parse("1,0,1")
    assert certroots._float_seed(p) is None
    rs = isolate_roots(p, Fraction(1, 1 << 24))
    tiny = rs.modulus_class.index("lt1")
    assert rs.roots[tiny].contains_point(Fraction(1, 1 << 1100))
    # x (2^70000 x - 1) overflows at once; its isolation ends at the bit
    # cap (test_precision_cap_names_stage_bits_and_size)
    assert certroots._float_seed(IntPoly((0, -1, 1 << 70000))) is None


def test_polygon_start_sweeps_on_wedge_factors():
    # the degree-12 wedge-square factors of the bound-2 special sextics
    # take at most 13 sweeps from the polygon start; from one circle of
    # radius 0.7 cauchy_bound they took up to 36
    factors = {
        f
        for _t, p, _c in enumerate_special(2)
        for f, _m in factor_over_z(exterior_resolvent(p, 2))
        if f.degree == 12
    }
    assert len(factors) > 10
    for f in factors:
        desc = f.coeffs[::-1]
        fp = [float(c) for c in desc]
        fdp = [float(c * (12 - i)) for i, c in enumerate(desc[:-1])]
        _zs, converged = certroots._aberth(fp, fdp, certroots._polygon_start(f), 1e-13, None, 15)
        assert converged, str(f)


@pytest.mark.parametrize("n,a", [(7, 10), (9, 30)])
def test_mignotte_cluster_certifies(n, a):
    # x^n - 2(ax - 1)^2 has two real roots about a^-(n/2 + 1) from 1/a
    p = IntPoly.parse("0,1") ** n - 2 * IntPoly((-1, a)) ** 2
    start = time.perf_counter()
    rs = isolate_roots(p, Fraction(1, 1 << 24))
    assert time.perf_counter() - start < 10
    assert len(rs.roots) == n
    for b, c in itertools.combinations(rs.roots, 2):
        assert b.is_disjoint(c)
    near = [
        i
        for i, b in enumerate(rs.roots)
        if abs(b.re - Fraction(1, a)) < Fraction(1, a**3)
    ]
    assert len(near) == 2
    assert all(rs.conj[i] == i for i in near)


def test_precision_cap_names_stage_bits_and_size():
    # x (2^70000 x - 1): two roots 2^-70000 apart, beyond the 65536-bit cap;
    # the message must not print the coefficients
    p = IntPoly((0, -1, 1 << 70000))
    start = time.perf_counter()
    with pytest.raises(PrecisionExhausted) as err:
        isolate_roots(p, Fraction(1, 1 << 24))
    assert time.perf_counter() - start < 10
    msg = str(err.value)
    assert msg.startswith("isolation ")
    assert "65536 bits" in msg and "degree-2" in msg and "70001 bits" in msg
    assert len(msg) < 200


def test_refine_until_names_stage_and_rounds():
    refines = []
    assert refine_until(lambda: 0, lambda: refines.append(1), "a falsy decision") == 0
    start = time.perf_counter()
    with pytest.raises(PrecisionExhausted) as err:
        refine_until(lambda: None, lambda: refines.append(1), "modulus classes")
    assert time.perf_counter() - start < 10
    assert len(refines) == certroots._MAX_ROUNDS
    assert str(err.value) == (
        f"modulus classes undecided after {certroots._MAX_ROUNDS} refinement rounds"
    )


# degree-24 factors of the composed product of the modulus-square minimal
# polynomials that the lambda_1^2 Salem route builds for the special
# sextics 1,-1,3,-3,3,-1,1, 1,-1,3,-1,3,-1,1 and 1,-1,4,-1,4,-1,1; their
# root order holds exact modulus ties
SQUARE_ROUTE_FACTORS = (
    "1,-1,9,-1,118,-172,874,-1539,3007,-4807,7515,-7560,10296,"
    "-7560,7515,-4807,3007,-1539,874,-172,118,-1,9,-1,1",
    "1,1,-7,31,74,4,90,109,627,-2237,5803,-9556,10184,"
    "-9556,5803,-2237,627,109,90,4,74,31,-7,1,1",
    "1,3,-36,11,972,951,-2376,189,13980,-27771,97944,-202095,239370,"
    "-202095,97944,-27771,13980,189,-2376,951,972,11,-36,3,1",
)


@pytest.mark.parametrize(
    "text", SQUARE_ROUTE_FACTORS, ids=["1,-1,3,-3,3,-1,1", "1,-1,3,-1,3,-1,1", "1,-1,4,-1,4,-1,1"]
)
def test_modulus_ties_narrow_every_round(text, monkeypatch):
    # every round of the tie test must shrink the disks; rounds that only
    # raise a level the disks are already finer than used up to 79 of 80
    monkeypatch.setattr(certroots, "_MAX_ROUNDS", 20)
    rs = isolate_roots(IntPoly.parse(text), Fraction(1, 1 << 24))
    assert rs.labeling == "modulus-then-conjugate"


class _StuckSystem:
    """A root system whose refine never narrows anything; it fails past a
    hard call limit instead of running forever."""

    def __init__(self, limit):
        self.calls = 0
        self.limit = limit

    def refine(self):
        self.calls += 1
        assert self.calls <= self.limit, "refine called without bound"


def test_derived_value_stops_when_refine_never_narrows():
    stuck = _StuckSystem(limit=1000)
    value = derived_value(lambda: ComplexBall(1, 0, Fraction(1, 2)), (stuck,))
    start = time.perf_counter()
    with pytest.raises(PrecisionExhausted, match="derived value undecided after"):
        value.shrink(Fraction(1, 1 << 30))
    assert time.perf_counter() - start < 10
    assert stuck.calls == certroots._MAX_ROUNDS


def test_self_reciprocal_polynomials_skip_the_membership_pass(monkeypatch):
    calls = []
    certify = certroots._certify_factor_roots

    def counting(g, state, what="factor membership"):
        calls.append(g)
        return certify(g, state, what)

    monkeypatch.setattr(certroots, "_certify_factor_roots", counting)
    for p in (P1, IntPoly.parse("1,1,1,1,1")):
        assert isolate_roots(p, EPS).recip is not None
    assert calls == []
    # (x^2 - 3x + 1)(x^3 - x - 1): the reciprocal part has degree 2 of 5
    rs = isolate_roots(IntPoly.parse("1,-3,1") * CUBIC, EPS)
    assert [g.degree for g in calls] == [2]
    assert rs.recip is None


# ---- invariants ----


def test_sum_and_product_enclosures():
    for p in (P1, CUBIC, IntPoly.parse("1,-5,13,-11,13,-5,1")):
        rs = isolate_roots(p, Fraction(1, 10**8))
        n = p.degree
        csum = ComplexBall.exact(0)
        cprod = ComplexBall.exact(1)
        for b in rs.roots:
            csum = csum + b
            cprod = cprod * b
        assert csum.contains_point(Fraction(-p[n - 1], p.lc))
        assert cprod.contains_point(Fraction((-1) ** n * p[0], p.lc))


def test_involutions_commute():
    for text in ("1,3,5,5,5,3,1", "1,-5,13,-11,13,-5,1", "1,-5,7,-5,1"):
        rs = isolate_roots(IntPoly.parse(text), Fraction(1, 10**6))
        n = len(rs.roots)
        for i in range(n):
            assert rs.conj[rs.conj[i]] == i
            assert rs.recip[rs.recip[i]] == i
            assert rs.conj[rs.recip[i]] == rs.recip[rs.conj[i]]


def test_refine_preserves_structure():
    rs = isolate_roots(P1, EPS)
    coarse, conj, recip, classes = rs.roots, rs.conj, rs.recip, rs.modulus_class
    rs.refine(EPS / 1024)
    assert rs.conj == conj
    assert rs.recip == recip
    assert rs.modulus_class == classes
    for i in range(6):
        assert coarse[i].contains_ball(rs.roots[i])
        assert rs.roots[i].rad <= EPS / 1024


def test_refine_is_in_place():
    store = RootStore()
    rs = store[P1]
    coarse, eps = rs.roots, rs.eps
    assert rs.refine() is None
    assert store[P1] is rs
    assert rs.eps == eps / 16
    for old, new in zip(coarse, rs.roots):
        assert old.contains_ball(new)
        assert new.rad <= eps / 16
    fine = rs.roots
    rs.refine(eps)  # a coarser request changes nothing
    assert rs.roots is fine and rs.eps == eps / 16


def test_monotone_refinement_random_sextics():
    rng = random.Random(424242)
    done = 0
    while done < 100:
        coeffs = [rng.randint(-6, 6) for _ in range(6)] + [1]
        p = IntPoly(tuple(coeffs))
        if p.degree != 6 or not is_squarefree(p):
            continue
        eps = Fraction(1, 1 << 30)
        rs1 = isolate_roots(p, eps)
        rs2 = isolate_roots(p, eps / 2)
        matched = 0
        for b2 in rs2.roots:
            hits = [b1 for b1 in rs1.roots if b1.contains_ball(b2)]
            assert len(hits) == 1
            matched += 1
        assert matched == 6
        done += 1


# ---- value matching ----


def wedge2_factors():
    return factor_over_z(char_poly(wedge_power(companion(P1), 2)))


def pair_product_values(rs):
    def mk(i, j):
        return derived_value(lambda: rs.roots[i] * rs.roots[j], (rs,), tag=(i, j))

    return [mk(i, j) for i, j in itertools.combinations(range(6), 2)]


def test_value_match_pair_products():
    fl = wedge2_factors()
    assert fl.degrees() == [1, 1, 1, 3, 3, 6]
    values = pair_product_values(isolate_roots(P1, Fraction(1, 1 << 24)))
    match = certify_value_match(values, fl)
    per_factor = Counter(match)
    for fi, (f, mult) in enumerate(fl):
        assert per_factor[fi] == f.degree * mult
    # products over the reciprocal pairs are exactly 1, owned by t - 1
    lin = [fi for fi, (f, m) in enumerate(fl) if f.degree == 1][0]
    ones = {values[k].tag for k, fi in enumerate(match) if fi == lin}
    assert ones == {(0, 1), (2, 3), (4, 5)}


def test_derived_value_refines_roots_until_narrow():
    rs = isolate_roots(P1, Fraction(1, 1 << 24))
    start_eps = rs.eps

    def current():
        r = rs.roots
        return r[2] * r[5]  # |root_2|^2, a real number above 1

    v = derived_value(current, (rs,), tag=(2, 5))
    start = v.ball
    assert v.tag == (2, 5)
    target = Fraction(1, 1 << 60)
    assert v.shrink(target)
    assert v.ball.rad <= target < start.rad
    assert rs.eps < start_eps
    assert not start.is_disjoint(v.ball)
    assert abs(v.ball.im) <= v.ball.rad and v.ball.re > 1


def test_locate_refines_only_factors_the_value_meets():
    # (t-1)(t-2)(t^2+t+1); the value is 2, first known to within 3/5 of
    # 3/2, so its disk meets the roots 1 and 2 but not the cube roots of 1
    roots = _Spectrum(IntPoly.parse("2,-3,1") * IntPoly.parse("1,1,1"), RootStore())
    value = CertValue(
        ComplexBall(Fraction(3, 2), 0, Fraction(3, 5)),
        lambda target: ComplexBall(2, 0, target),
    )
    fi, si = roots.locate(value)
    assert (roots.factor(fi), si) == (IntPoly.parse("-2,1"), 0)
    start = Fraction(1, 1 << 24)
    for rs in roots.systems:
        assert (rs.eps < start) == (rs.poly.degree == 1)


def test_value_match_rational_slot_capacity():
    # (t-1)^2 (t-3): two values equal to 1, one equal to 3
    fl = factor_over_z(IntPoly.parse("-1,1") ** 2 * IntPoly.parse("-3,1"))
    values = [
        ComplexBall.exact(1),
        ComplexBall.exact(1),
        ComplexBall.exact(3),
    ]
    match = certify_value_match(values, fl)
    assert match[0] == match[1]
    assert match[2] != match[0]


def test_value_match_detects_alien_value():
    fl = factor_over_z(IntPoly.parse("2,-3,1"))  # (t-1)(t-2)
    with pytest.raises(VerificationFailed):
        certify_value_match([ComplexBall.exact(1), ComplexBall.exact(5)], fl)


def test_value_match_ambiguous_without_refinement():
    fl = factor_over_z(IntPoly.parse("2,-3,1"))
    wide = ComplexBall(Fraction(3, 2), Fraction(0), Fraction(2))
    with pytest.raises(Ambiguous):
        certify_value_match([wide, ComplexBall.exact(2)], fl)


def test_value_match_wrong_count():
    fl = factor_over_z(IntPoly.parse("2,-3,1"))
    with pytest.raises(VerificationFailed):
        certify_value_match([ComplexBall.exact(1)], fl)
