from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from salemtori import certroots, intpoly, salem
from salemtori.exactlin import IntMatrix, char_poly, companion
from salemtori.exceptions import (
    ClassificationRequired,
    InputError,
    NotUnimodular,
    OddDegreeRequested,
    ScanExhausted,
)
from salemtori.intpoly import (
    IntPoly,
    cauchy_bound,
    factor_over_z,
    is_irreducible,
    real_root_enclosure,
    square_value_poly,
    sturm_count,
)
from salemtori.salem import (
    classify_special,
    dynamical_degrees,
    enumerate_special,
    first_dynamical_degree_salem,
    gross_mcmullen,
    is_salem,
)
from wedge import wedge_power

P1 = IntPoly.parse("1,3,5,5,5,3,1")
P2 = IntPoly.parse("1,-5,13,-11,13,-5,1")
NONPROJ = IntPoly.parse("1,1,3,1,3,1,1")
LEHMER = IntPoly.parse("1,1,0,-1,-1,-1,-1,-1,0,1,1")
SALEM2 = IntPoly.parse("1,-3,1")
PHI5 = IntPoly.parse("1,1,1,1,1")

CONDITION_NAMES = (
    "monic",
    "degree 6",
    "p(0)=1",
    "irreducible",
    "reciprocal",
    "trace-root pattern",
)


def covers(interval, value):
    lo, hi = interval
    return lo <= Fraction(value) <= hi


def mp_real_root(p, lo, hi, dps=40):
    with mpmath.workdps(dps):
        coeffs = [p.coeffs[-1 - i] for i in range(p.degree + 1)]
        return mpmath.findroot(
            lambda x: mpmath.polyval(coeffs, x), (lo + hi) / 2, solver="newton"
        )


# ---- classify_special ----


def test_classify_projective_example():
    cls = classify_special(P1)
    assert cls.is_special
    assert cls.failed() == []
    assert tuple(name for name, _ in cls.reasons) == CONDITION_NAMES
    assert cls.trace_poly == IntPoly.parse("-1,2,3,1")
    assert cls.subcase == "recip_equals_conj_on_big_pair"
    lo, hi = cls.real_trace_root_interval
    assert hi - lo <= Fraction(1, 1 << 32)
    x = mp_real_root(cls.trace_poly, 0.3, 0.4)
    assert covers((lo, hi), float(x))


def test_classify_second_projective_example():
    cls = classify_special(P2)
    assert cls.is_special
    assert -2 < cls.real_trace_root_interval[0] < cls.real_trace_root_interval[1] < 2


def test_classify_nonprojective_example():
    cls = classify_special(NONPROJ)
    assert cls.is_special
    assert cls.trace_poly == IntPoly.parse("-1,0,1,1")


def test_classify_rejects_unit_circle_sextic():
    # t^6 + t^3 + 1: trace cubic t^3 - 3t + 1 has three real roots in (-2,2)
    cls = classify_special(IntPoly.parse("1,0,0,1,0,0,1"))
    assert not cls.is_special
    assert cls.failed() == ["trace-root pattern"]
    assert cls.trace_poly == IntPoly.parse("1,-3,0,1")
    assert sturm_count(cls.trace_poly, -2, 2) == 3


def test_classify_rejects_wrong_constant_term():
    cls = classify_special(IntPoly.parse("-2,0,0,0,0,0,1"))
    assert not cls.is_special
    assert "p(0)=1" in cls.failed()


def test_classify_rejects_nonmonic():
    cls = classify_special(IntPoly.parse("1,3,5,5,5,3,2"))
    assert not cls.is_special
    assert "monic" in cls.failed()


def test_classify_rejects_reducible():
    cls = classify_special(SALEM2 * PHI5)
    assert not cls.is_special
    assert "irreducible" in cls.failed()
    # its trace cubic has the Salem trace root above 2 and two roots inside
    assert "trace-root pattern" in cls.failed()


def test_classify_rejects_wrong_degree():
    cls = classify_special(PHI5)
    assert not cls.is_special
    assert "degree 6" in cls.failed()


def test_classify_special_iff_no_failures():
    for p in (P1, P2, NONPROJ, SALEM2 * PHI5, PHI5, IntPoly.parse("1,0,0,1,0,0,1")):
        cls = classify_special(p)
        assert cls.is_special == (cls.failed() == [])


# ---- is_salem ----


def test_lehmer_polynomial():
    cert = is_salem(LEHMER)
    assert cert.is_salem
    assert cert.count_gt2 == 1
    assert cert.count_in_m2_2 == 4
    assert cert.trace_poly.degree == 5
    lo, hi = cert.lambda_
    assert hi - lo <= Fraction(1, 1 << 64)
    assert covers((lo, hi), Fraction("1.17628081825991750654046596098"))


def test_degree_two_salem_convention():
    cert = is_salem(SALEM2)
    assert cert.is_salem
    lo, hi = cert.lambda_
    # lambda = (3+sqrt 5)/2: check exactly via (2x-3)^2 = 5
    assert (2 * lo - 3) ** 2 < 5 < (2 * hi - 3) ** 2


def test_special_sextic_is_not_salem():
    cert = is_salem(P1)
    assert not cert.is_salem
    assert cert.count_gt2 == 0
    # only the one real trace root lands in (-2,2); the rest are nonreal
    assert cert.count_in_m2_2 == 1


def test_cyclotomic_is_not_salem():
    cert = is_salem(PHI5)
    assert not cert.is_salem
    assert cert.count_gt2 == 0
    # x^2 + 1: the trace polynomial is t, whose root bound is 2 itself
    cert = is_salem(IntPoly.parse("1,0,1"))
    assert not cert.is_salem
    assert cert.count_gt2 == 0


def test_salem_gates():
    assert not is_salem(IntPoly.parse("-1,0,1,1")).is_salem  # odd degree
    assert not is_salem(SALEM2 * PHI5).is_salem  # reducible
    assert not is_salem(IntPoly.parse("1,-3,2")).is_salem  # not monic
    assert not is_salem(IntPoly.parse("2,-3,1")).is_salem  # not reciprocal
    assert not is_salem(IntPoly.parse("1")).is_salem  # degree 0


def test_salem_lambda_is_enclosed_root():
    cert = is_salem(gross_mcmullen(6))
    lo, hi = cert.lambda_
    p = gross_mcmullen(6)
    assert p.evaluate(lo) * p.evaluate(hi) <= 0
    assert lo > 1


# ---- gross_mcmullen ----


def test_generator_degree_two():
    assert gross_mcmullen(2) == SALEM2


def test_generator_degree_four():
    assert gross_mcmullen(4) == IntPoly.parse("1,-5,7,-5,1")
    # matches lifting R_2 = (t-2)(t-3) - 1 = t^2 - 5t + 5 at a = 3
    assert IntPoly.from_trace(IntPoly.parse("5,-5,1")) == IntPoly.parse("1,-5,7,-5,1")


def test_generator_range():
    for d in range(2, 17, 2):
        g = gross_mcmullen(d)
        assert g.degree == d
        assert g.is_monic() and g.is_reciprocal()
        assert is_salem(g).is_salem


def test_generator_rejects_odd():
    with pytest.raises(OddDegreeRequested):
        gross_mcmullen(7)


def test_generator_rejects_nonpositive():
    with pytest.raises(InputError):
        gross_mcmullen(0)


def test_generator_scan_bound():
    with pytest.raises(ScanExhausted):
        gross_mcmullen(10, a_max=2)


def test_power_lemma_square_minimal_polynomials():
    # the minimal polynomial of lambda^2 is again Salem, for generator
    # outputs of degree up to 12
    for d in (2, 4, 6, 8, 10, 12):
        g = gross_mcmullen(d)
        w = square_value_poly(g)
        eps = Fraction(1, 1 << 64)
        bound = cauchy_bound(g) + 1
        while True:
            lo, hi = real_root_enclosure(g, 1, bound, eps)
            owners = [
                f
                for f, _m in factor_over_z(w)
                if sturm_count(f, lo * lo, hi * hi) >= 1
            ]
            if len(owners) == 1:
                break
            eps = eps / (1 << 16)
        cert = is_salem(owners[0])
        assert cert.is_salem
        assert owners[0].degree <= d


# ---- dynamical_degrees ----


def test_degrees_identity():
    rep = dynamical_degrees(IntMatrix.identity(6), 3)
    assert all(lo == hi == 1 for lo, hi in rep.lambdas)
    assert rep.exact_equalities == {
        (p, q) for p in range(4) for q in range(p + 1, 4)
    }
    assert rep.salem_first is False


def test_degrees_projective_example():
    rep = dynamical_degrees(companion(P1), 3)
    assert rep.lambdas[0] == (1, 1) and rep.lambdas[3] == (1, 1)
    assert rep.exact_equalities == {(0, 3), (1, 2)}
    assert rep.salem_first is False
    lo, hi = rep.lambdas[1]
    assert hi - lo <= Fraction(1, 1 << 40)
    # lambda_1 = alpha * conj(alpha) is the real root of t^3 - 3t^2 + 2t - 1
    cubic = IntPoly.parse("-1,2,-3,1")
    assert cubic.evaluate(lo) * cubic.evaluate(hi) <= 0
    assert covers((lo, hi), Fraction("2.32471795724474602596090885"))
    assert rep.lambdas[2] == rep.lambdas[1]


def test_degrees_equal_modulus_pair():
    # t^4 - 3t^2 + 1 has roots +-sqrt(l), +-1/sqrt(l): the top two moduli
    # agree but no interval ever separates them
    rep = dynamical_degrees(companion(IntPoly.parse("1,0,-3,0,1")), 2)
    assert rep.exact_equalities == {(0, 2)}
    lo, hi = rep.lambdas[1]
    assert (2 * lo - 3) ** 2 < 5 < (2 * hi - 3) ** 2  # lambda_1 = (3+sqrt 5)/2
    assert rep.salem_first is True


def test_degrees_minus_inverse_partner():
    # the roots phi and -1/phi of x^2-x-1 have inverse moduli, though
    # 1/phi is no root, so lambda_0 = lambda_1 = 1 is still certified
    rep = dynamical_degrees(companion(IntPoly.parse("-1,-1,1")), 1)
    assert rep.exact_equalities == {(0, 1)}


def test_degrees_modulus_product_of_a_whole_factor():
    # x^3-x-1 has a real root rho and a conjugate pair of modulus
    # rho^(-1/2), none of them +-1/rho: only the complete root sets
    # multiply to modulus 1, so lambda_0 = lambda_3 is certified that way
    m = companion(IntPoly.parse("-1,-1,0,1"))
    rep = dynamical_degrees(m.direct_sum(m), 3)
    assert rep.exact_equalities == {(0, 3)}
    assert rep.salem_first is False  # lambda_1 = rho^2, a Pisot number


def test_salem_first_never_proves_a_factor_irreducible_again(monkeypatch):
    tested, inside, leaks = [], [], []

    def marking(fn):
        def wrapped(f):
            tested.append(f)
            inside.append(f)
            try:
                return fn(f)
            finally:
                inside.pop()

        return wrapped

    def spy(name, fn):
        def wrapped(p):
            if inside:
                leaks.append((name, str(p)))
            return fn(p)

        return wrapped

    monkeypatch.setattr(salem, "_salem_test", marking(salem._salem_test))
    monkeypatch.setattr(salem, "is_salem", marking(salem.is_salem))
    monkeypatch.setattr(salem, "is_irreducible", spy("is_irreducible", is_irreducible))
    for module in (intpoly, certroots, salem):
        monkeypatch.setattr(module, "factor_over_z", spy("factor_over_z", factor_over_z))
    # the two -top-blocks degrees goldens
    for blocks, n in ((("1,-7,1", "1,0,7,0,1"), 3), (("1,0,7,0,1", "1,0,7,0,1"), 4)):
        m = companion(IntPoly.parse(blocks[0])).direct_sum(companion(IntPoly.parse(blocks[1])))
        assert dynamical_degrees(m, n).salem_first is True
    assert tested and leaks == []


def test_degrees_salem_times_cyclotomic():
    rep = dynamical_degrees(companion(SALEM2 * PHI5), 3)
    assert rep.exact_equalities == {(0, 3), (1, 2)}
    assert rep.salem_first is True
    lo, hi = rep.lambdas[1]
    assert (2 * lo - 3) ** 2 < 5 < (2 * hi - 3) ** 2


def test_degrees_product_four_torus():
    # companion(gm(4)) tensor identity acts on an abelian fourfold; the
    # first three degrees all equal alpha^2
    M = companion(IntPoly.parse("1,-5,7,-5,1"))
    rep = dynamical_degrees(M.kron(IntMatrix.identity(2)), 4)
    assert rep.exact_equalities == {(0, 4), (1, 2), (1, 3), (2, 3)}
    assert rep.salem_first is True
    quartic = IntPoly.parse("1,-11,1,-11,1")  # minimal polynomial of alpha^2
    for p in (1, 2, 3):
        lo, hi = rep.lambdas[p]
        assert quartic.evaluate(lo) * quartic.evaluate(hi) <= 0
        assert abs(float(lo) - 10.99925469285987) < 1e-10


def test_degrees_log_concavity():
    for p in (P1, P2, NONPROJ, SALEM2 * PHI5):
        rep = dynamical_degrees(companion(p), 3)
        for i in range(1, 3):
            hi = rep.lambdas[i][1]
            assert hi * hi >= rep.lambdas[i - 1][0] * rep.lambdas[i + 1][0]


def test_degrees_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        dynamical_degrees(IntMatrix(((2, 0), (0, 1))), 1)


def test_degrees_rejects_wrong_shape():
    with pytest.raises(InputError):
        dynamical_degrees(IntMatrix.identity(6), 2)


# ---- first_dynamical_degree_salem ----


def test_first_degree_projective_example():
    assert first_dynamical_degree_salem(P1) is False
    # because the owner of alpha*conj(alpha) among the exterior-square
    # factors is a non-reciprocal cubic
    fl = factor_over_z(char_poly(wedge_power(companion(P1), 2)))
    cubic = IntPoly.parse("-1,2,-3,1")
    assert any(f == cubic for f, _m in fl)
    assert not cubic.is_reciprocal()


def test_first_degree_second_example():
    assert first_dynamical_degree_salem(P2) is False


def test_first_degree_nonprojective_example():
    assert first_dynamical_degree_salem(NONPROJ) is False


def test_first_degree_salem_times_quartic_cyclotomic():
    assert first_dynamical_degree_salem(SALEM2 * PHI5) is True


def test_first_degree_quartic_salem_times_quadratic_cyclotomic():
    p = IntPoly.parse("1,-5,7,-5,1") * IntPoly.parse("1,1,1")
    assert p == IntPoly.parse("1,-4,3,-3,3,-4,1")
    assert first_dynamical_degree_salem(p) is True


def test_first_degree_requires_qualifying_input():
    with pytest.raises(ClassificationRequired):
        first_dynamical_degree_salem(IntPoly.parse("-2,0,0,0,0,0,1"))
    with pytest.raises(ClassificationRequired):
        # irreducible but not special
        first_dynamical_degree_salem(IntPoly.parse("1,0,0,1,0,0,1"))


# ---- corpus enumeration ----


def test_enumerate_special_small_bound():
    corpus = list(enumerate_special(1))
    assert len(corpus) == 12
    assert corpus[0][0] == IntPoly.parse("-1,-1,-1,1")
    assert corpus[0][1] == IntPoly.parse("1,-1,2,-3,2,-1,1")
    seen = []
    for q, p, cls in corpus:
        assert cls.is_special
        assert all(abs(c) <= 1 for c in q.coeffs[:3])
        assert IntPoly.from_trace(q) == p
        assert is_irreducible(p)
        key = tuple(reversed(q.coeffs[:3]))
        seen.append(key)
    assert seen == sorted(seen)


def test_first_degree_salem_routes_differ_on_reducible_sextic():
    # the two largest moduli are the real Salem roots of the two factors,
    # and lambda_1 is their product, not alpha^2 for the top root alpha;
    # that product is not a Salem number
    p = IntPoly.parse("1,-3,1") * IntPoly.parse("1,-5,7,-5,1")
    assert first_dynamical_degree_salem(p) is False
    assert dynamical_degrees(companion(p), 3).salem_first is False
    # with the top root doubled, lambda_1 = alpha^2 is a Salem number
    doubled = IntPoly.parse("1,-3,1") ** 2 * IntPoly.parse("1,1,1")
    assert first_dynamical_degree_salem(doubled) is True
    assert dynamical_degrees(companion(doubled), 3).salem_first is True


def first_degree_salem_oracle(p: IntPoly) -> bool:
    """Whether lambda_1 of a special sextic p, the product of its two
    largest root moduli, is a Salem number, decided by sympy and mpmath
    alone.

    The resultant of p(x) and x^6 p(t/x) in x has as roots all products of
    two roots of p, and lambda_1 = alpha * conj(alpha) for a top root alpha
    is one of them, so one irreducible factor vanishes at lambda_1.
    That factor is a Salem polynomial (degree 2 accepted, as by is_salem)
    iff it is reciprocal with exactly one root outside the unit circle;
    without reciprocity a Pisot number such as lambda_1 of P1 would pass.
    """
    import sympy

    x, t = sympy.symbols("x t")
    px = sum(c * x**i for i, c in enumerate(p.coeffs))
    res = sympy.resultant(px, sympy.expand(x**6 * px.subs(x, t / x)), x)
    factors = [sympy.Poly(f, t).all_coeffs() for f, _m in sympy.factor_list(res, t)[1]]
    with mpmath.workdps(40):
        moduli = sorted(
            (abs(r) for r in mpmath.polyroots(list(reversed(p.coeffs)), maxsteps=200)),
            reverse=True,
        )
        lam = moduli[0] * moduli[1]
        owners = [
            [int(c) for c in f]
            for f in factors
            if len(f) > 1
            and min(abs(r - lam) for r in mpmath.polyroots(f, maxsteps=200)) < 1e-20
        ]
        assert len(owners) == 1
        f = owners[0]
        outside = sum(abs(r) > 1 + 1e-20 for r in mpmath.polyroots(f, maxsteps=200))
    return f == f[::-1] and outside == 1


def test_corpus_first_two_degrees_agree():
    # every special sextic gives lambda_1 = lambda_2, certified exactly,
    # and both questions answer the Salem test like the oracle
    for q, p, cls in enumerate_special(1):
        rep = dynamical_degrees(companion(p), 3)
        assert (1, 2) in rep.exact_equalities
        want = first_degree_salem_oracle(p)
        assert rep.salem_first is want
        assert first_dynamical_degree_salem(p) is want


def test_first_degree_salem_negative_top_root():
    # x^2+3x+1 has the top root -(3+sqrt 5)/2; lambda_1 is its modulus, a
    # root of x^2-3x+1, so a Salem number as for SALEM2 * PHI5
    assert first_dynamical_degree_salem(IntPoly.parse("1,3,1") * PHI5) is True


def test_degrees_salem_first_negative_top_root():
    blocks = companion(IntPoly.parse("1,3,1")).direct_sum(companion(PHI5))
    rep = dynamical_degrees(blocks, 3)
    lo, hi = rep.lambdas[1]
    assert (2 * lo - 3) ** 2 < 5 < (2 * hi - 3) ** 2  # lambda_1 = (3+sqrt 5)/2
    assert rep.salem_first is True


def test_salem_first_decided_only_when_read(monkeypatch):
    calls = []
    decide = salem._salem_first

    def counting(spec, order):
        calls.append(order)
        return decide(spec, order)

    monkeypatch.setattr(salem, "_salem_first", counting)
    rep = dynamical_degrees(companion(SALEM2 * PHI5), 3)
    assert calls == []
    assert rep.salem_first is True and rep.salem_first is True
    assert len(calls) == 1


def test_salem_first_real_and_nonreal_top_roots():
    # lambda_1 = 9 + 4 sqrt 5, a root of the Salem polynomial x^2 - 18x + 1
    assert is_salem(IntPoly.parse("1,-18,1")).is_salem
    blocks = companion(IntPoly.parse("1,-7,1")).direct_sum(companion(IntPoly.parse("1,0,7,0,1")))
    assert dynamical_degrees(blocks, 3).salem_first is True


def test_salem_first_repeated_nonreal_top_root():
    # the top root of x^4+7x^2+1 is nonreal and doubled: lambda_1 is its
    # modulus squared, (7 + 3 sqrt 5)/2, a root of x^2 - 7x + 1
    doubled = IntPoly.parse("1,0,7,0,1") ** 2
    assert dynamical_degrees(companion(doubled), 4).salem_first is True


def test_salem_first_square_salem_but_first_degree_not():
    # lambda_1 = (7 + 3 sqrt 5)/2 * (1 + sqrt 5)/2 = (11 + 5 sqrt 5)/2, a
    # root of x^2 - 11x - 1, is not Salem, though lambda_1^2 is a root of
    # the Salem polynomial x^2 - 123x + 1
    assert not is_salem(IntPoly.parse("-1,-11,1")).is_salem
    assert is_salem(IntPoly.parse("1,-123,1")).is_salem
    blocks = companion(IntPoly.parse("1,-7,1")).direct_sum(companion(IntPoly.parse("1,0,3,0,1")))
    rep = dynamical_degrees(blocks, 3)
    lo, hi = rep.lambdas[1]
    assert (2 * lo - 11) ** 2 < 125 < (2 * hi - 11) ** 2
    assert rep.salem_first is False


# ---- one exact modulus comparator ----

# three roots of modulus tau^2 (tau the golden ratio) in two factors
EQUAL_MODULI = companion(SALEM2).direct_sum(companion(IntPoly.parse("1,0,7,0,1")))
# degree-12 wedge-square factors whose lt1 and gt1 classes each hold two
# conjugate pairs of one modulus
TIED_FACTORS = ("1,0,-3,-2,3,-6,-17,-6,3,-2,-3,0,1", "1,0,-5,0,7,-6,-17,-6,7,0,-5,0,1")


def mp_moduli(spec):
    """60-digit modulus of each spectrum instance's root."""
    out = {}
    with mpmath.workdps(60):
        for fi, (f, _m) in enumerate(spec.factors):
            roots = mpmath.polyroots(list(reversed(f.coeffs)), maxsteps=200, extraprec=200)
            for si in range(f.degree):
                b = spec.ball(fi, si)
                center = mpmath.mpc(
                    mpmath.mpf(b.re.numerator) / b.re.denominator,
                    mpmath.mpf(b.im.numerator) / b.im.denominator,
                )
                z = min(roots, key=lambda r: abs(r - center))
                assert abs(z - center) < mpmath.mpf(2) ** -20
                out[fi, si] = abs(z)
    return out


@pytest.mark.parametrize(
    "matrix,n",
    [(EQUAL_MODULI, 3), (companion(IntPoly.parse(TIED_FACTORS[0])), 6)],
    ids=["equal-moduli-blocks", "tied-factor"],
)
def test_cmp_moduli_matches_mpmath_moduli(matrix, n):
    spec = dynamical_degrees(matrix, n).spectrum
    moduli = mp_moduli(spec)
    insts = spec.instances()
    ties = 0
    with mpmath.workdps(60):
        for a in insts:
            for b in insts:
                c = salem._cmp_moduli(spec, a, b)
                diff = moduli[a] - moduli[b]
                if abs(diff) < mpmath.mpf(10) ** -50:
                    assert c == 0, (a, b)
                    ties += spec.conj_instance(*a) not in (a, b)
                else:
                    assert c == (1 if diff > 0 else -1), (a, b)
    # some ties are between roots that are not conjugate, so the exact
    # resolvent decides them
    assert ties


@pytest.mark.parametrize("text", TIED_FACTORS)
def test_spectrum_builds_each_tie_radical_once(monkeypatch, text):
    built = Counter()
    build = salem._modsq_radical

    def counting(parts):
        parts = frozenset(parts)
        built[parts] += 1
        return build(parts)

    monkeypatch.setattr(salem, "_modsq_radical", counting)
    rep = dynamical_degrees(companion(IntPoly.parse(text)), 6)
    assert rep.exact_equalities == {(0, 6), (1, 5), (2, 4)}
    assert built and max(built.values()) == 1
