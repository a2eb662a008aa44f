"""Special sextics, Salem certificates, and dynamical degrees.

A monic integer sextic p with p(0) = 1 is *special* when it is irreducible,
reciprocal, and its roots split into one conjugate pair on the unit circle,
one pair of modulus > 1, and one pair of modulus < 1, all nonreal.  That
root pattern is equivalent to a condition on the trace cubic q (where
p(t) = t^3 q(t + 1/t)): exactly one real root, lying in (-2, 2).  The other
two roots of q are then forced nonreal, which is what pushes the remaining
quartet of roots of p off both the circle and the real line.

The degree sequence of the induced torus automorphism is pure linear
algebra: the p-th dynamical degree is the spectral radius of the action on
the 2p-th exterior power, i.e. the product of the 2p largest eigenvalue
moduli.  Equalities between degrees are certified structurally: a window of
ranks multiplies to exactly 1 when it splits into roots certified on the
unit circle and pairs of roots z, w certified to have w = 1/z or -1/z,
or when, besides those, it holds every root of an integer factor whose
constant term and leading coefficient agree up to sign.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key

from .certroots import (
    CertValue,
    ComplexBall,
    RootStore,
    RootSystem,
    _compare_moduli,
    _modsq_radical,
    _modsq_resolvent,
    _owner,
    certify_value_match,
    derived_value,
    isolate_roots,
    refine_until,
)
from .exactlin import IntMatrix, char_poly, det
from .exceptions import (
    Ambiguous,
    ClassificationRequired,
    CollisionUnresolved,
    EndpointIsRoot,
    InputError,
    NotSpecial,
    NotUnimodular,
    OddDegreeRequested,
    ScanExhausted,
    VerificationFailed,
)
from .intpoly import (
    FactorList,
    IntPoly,
    cauchy_bound,
    composed_product,
    count_real_roots,
    exterior_resolvent,
    factor_over_z,
    is_irreducible,
    is_squarefree,
    real_root_enclosure,
    shifted_pair_resolvent,
    sturm_count,
)

# canonical root labels of a special sextic: (0,1) the unit pair, (2,3) and
# (4,5) the reciprocal off-circle pairs
ALL_PAIRS = tuple(itertools.combinations(range(6), 2))
# one root from each reciprocal pair
OCTET_TRIPLES = tuple(
    t for t in itertools.combinations(range(6), 3) if len({i // 2 for i in t}) == 3
)
_ONE_ROOT = IntPoly.parse("-1,1")

_CONDITIONS = (
    "monic",
    "degree 6",
    "p(0)=1",
    "irreducible",
    "reciprocal",
    "trace-root pattern",
)


@dataclass(frozen=True)
class SpecialClassification:
    is_special: bool
    reasons: tuple  # ((condition, passed), ...) in _CONDITIONS order
    trace_poly: IntPoly | None
    real_trace_root_interval: tuple | None  # (lo, hi) Fractions
    subcase: str | None
    # the special-canonical root system isolated while checking the pattern
    roots: RootSystem | None = field(default=None, repr=False, compare=False)

    def failed(self):
        return [name for name, ok in self.reasons if not ok]


@dataclass(frozen=True)
class SalemCertificate:
    is_salem: bool
    trace_poly: IntPoly | None
    count_gt2: int | None
    count_in_m2_2: int | None
    lambda_: tuple | None  # (lo, hi) Fractions enclosing the root > 1


@dataclass(frozen=True)
class DegreeReport:
    lambdas: tuple  # (lo, hi) per p = 0..n
    exact_equalities: frozenset  # pairs (p, q), p < q, certified equal
    # the eigenvalues and their modulus order, kept for salem_first
    spectrum: "_Spectrum" = field(repr=False, compare=False)
    order: tuple = field(repr=False, compare=False)

    @cached_property
    def salem_first(self) -> bool:
        """Whether lambda_1 is a Salem number, decided on first read."""
        return _salem_first(self.spectrum, self.order)


def classify_special(p: IntPoly) -> SpecialClassification:
    checks = {}
    checks["monic"] = p.degree >= 0 and p.is_monic()
    checks["degree 6"] = p.degree == 6
    checks["p(0)=1"] = (not p.is_zero()) and p[0] == 1
    checks["irreducible"] = p.degree >= 1 and is_irreducible(p)
    checks["reciprocal"] = p.degree >= 1 and p.is_reciprocal()

    q = None
    interval = None
    pattern = False
    if checks["monic"] and checks["degree 6"] and checks["reciprocal"]:
        q = p.trace_polynomial()
        try:
            pattern = count_real_roots(q) == 1 and sturm_count(q, -2, 2) == 1
        except EndpointIsRoot:
            # a trace root at +-2 means p(-+1) = 0, never irreducible
            pattern = False
        if pattern:
            interval = real_root_enclosure(q, -2, 2, Fraction(1, 1 << 32))
    checks["trace-root pattern"] = pattern

    special = all(checks[name] for name in _CONDITIONS)
    subcase = None
    rs = None
    if special:
        rs = isolate_roots(p, Fraction(1, 1 << 24))
        if rs.labeling != "special-canonical":
            raise VerificationFailed(
                "trace criterion and root isolation disagree on the root pattern"
            )
        # for the standard eigenvalue choice (indices 0, 2, 4) the small
        # root is the conjugate of the reciprocal of the big one
        subcase = "recip_equals_conj_on_big_pair"
    return SpecialClassification(
        is_special=special,
        reasons=tuple((name, checks[name]) for name in _CONDITIONS),
        trace_poly=q,
        real_trace_root_interval=interval,
        subcase=subcase,
        roots=rs,
    )


def _partition_from_match(owners):
    groups = {}
    for pair, fi in zip(ALL_PAIRS, owners):
        groups.setdefault(fi, set()).add(pair)
    return tuple(sorted(map(frozenset, groups.values()), key=lambda o: (len(o), min(o))))


class SexticAnalysis:
    """The facts about one sextic that questions on it read, each computed
    on first use and kept.  The questions on special sextics accept an
    analysis in place of the IntPoly, so one analysis passed to several
    of them shares their work.  ``roots`` is the classification's
    special-canonical root system, refined in place as values need it;
    ``store`` holds it and every other root system the questions isolate.
    """

    def __init__(self, p: IntPoly, classification: SpecialClassification | None = None):
        """classification, when given, must be classify_special(p)."""
        self.poly = p
        self._pair_orbits = None
        if classification is not None:
            self.classification = classification

    @classmethod
    def of(cls, p) -> "SexticAnalysis":
        """p itself when it is an analysis, else a fresh analysis of p."""
        return p if isinstance(p, cls) else cls(p)

    @cached_property
    def classification(self) -> SpecialClassification:
        return classify_special(self.poly)

    def require_special(self) -> SpecialClassification:
        cls = self.classification
        if not cls.is_special:
            raise NotSpecial(self.poly.format())
        return cls

    @cached_property
    def roots(self) -> RootSystem:
        return self.require_special().roots

    @cached_property
    def store(self) -> RootStore:
        """The root systems and factorizations the questions on this
        sextic read, seeded with those the classification proved."""
        p, cls = self.poly, self.classification
        seeds = ({p: cls.roots}, {p: FactorList(Fraction(1), ((p, 1),))}) if cls.is_special else ()
        return RootStore(*seeds)

    def pair_value(self, i, j, c=0) -> CertValue:
        """root_i * root_j + c * (root_i + root_j), shrinkable."""

        def current():
            r = self.roots.roots
            b = r[i] * r[j]
            if c:
                b = b + (r[i] + r[j]) * ComplexBall.exact(c)
            return b

        return derived_value(current, (self.roots,), tag=(i, j))

    def triple_value(self, t) -> CertValue:
        def current():
            r = self.roots.roots
            return r[t[0]] * r[t[1]] * r[t[2]]

        return derived_value(current, (self.roots,), tag=t)

    @cached_property
    def degrees(self) -> DegreeReport:
        """dynamical_degrees(companion(p), 3), read off the roots of p in
        this analysis's store."""
        self.require_special()
        return _degree_report(_Spectrum(self.poly, self.store), 3)

    @cached_property
    def wedge2_factors(self):
        """Factorization of the exterior-square resolvent, whose roots are
        the 15 pair products."""
        return self.store.factors(exterior_resolvent(self.poly, 2))

    @cached_property
    def wedge2_match(self):
        """The owning factor of each plain pair product, in ALL_PAIRS order."""
        values = [self.pair_value(i, j) for i, j in ALL_PAIRS]
        return certify_value_match(values, self.wedge2_factors)

    def pair_orbits(self, c_max: int = 100):
        """(partition, route): the Galois orbit partition of the 15 pairs
        and the resolvent that found it.

        The plain exterior square is conclusive when the only repeated
        factor is (t-1)^3 from the three reciprocal pairs.  Any other
        repetition means two orbits share a value set, and the products
        are re-separated by adding c times the pair sum, for the least
        c that makes the resolvent squarefree.
        """
        if self._pair_orbits is None:
            self._pair_orbits = self._find_pair_orbits(c_max)
        if self._pair_orbits[1][1] > c_max:
            raise CollisionUnresolved(f"no shift c <= {c_max} separates the pair values")
        return self._pair_orbits

    def _find_pair_orbits(self, c_max: int):
        conclusive = all(
            (m == 3 and f == _ONE_ROOT) or (m == 1 and f != _ONE_ROOT)
            for f, m in self.wedge2_factors
        )
        if conclusive:
            return _partition_from_match(self.wedge2_match), ("pair-products", 0)
        for c in range(1, c_max + 1):
            resolvent = shifted_pair_resolvent(self.poly, c)
            if not is_squarefree(resolvent):
                continue
            fl = factor_over_z(resolvent)
            values = [self.pair_value(i, j, c) for i, j in ALL_PAIRS]
            owners = certify_value_match(values, fl)
            return _partition_from_match(owners), ("shifted pair-products", c)
        raise CollisionUnresolved(f"no shift c <= {c_max} separates the pair values")

    @cached_property
    def wedge3_char_poly(self) -> IntPoly:
        return exterior_resolvent(self.poly, 3)

    @cached_property
    def octet(self):
        """(T8, its factorization, owners): the degree-8 resolvent of the
        one-per-pair triple products, and the irreducible factor owning
        the product of each triple in OCTET_TRIPLES.  A triple owns (t-1)
        exactly when its product is certified to be 1."""
        t8 = self.wedge3_char_poly.div_exact(self.poly * self.poly)
        if t8.degree != 8:
            raise VerificationFailed("cube resolvent did not split off the square")
        fl = factor_over_z(t8)
        owners = certify_value_match([self.triple_value(t) for t in OCTET_TRIPLES], fl)
        return t8, fl, tuple(fl.factors[fi][0] for fi in owners)

    @cached_property
    def product_one_triples(self) -> frozenset:
        """The octet triples whose root product is certified to be 1."""
        owners = self.octet[2]
        return frozenset(t for t, f in zip(OCTET_TRIPLES, owners) if f == _ONE_ROOT)


_NOT_SALEM = SalemCertificate(False, None, None, None, None)


def _salem_gates(f: IntPoly) -> bool:
    return f.degree >= 2 and f.degree % 2 == 0 and f.is_monic() and f.is_reciprocal()


def is_salem(p: IntPoly) -> SalemCertificate:
    """Salem test: monic, reciprocal, irreducible, even degree 2k, and the
    trace polynomial has exactly one real root above 2 and k-1 in (-2,2).
    Degree 2 is accepted."""
    return _salem_test(p) if _salem_gates(p) and is_irreducible(p) else _NOT_SALEM


def _salem_test(f: IntPoly) -> SalemCertificate:
    """is_salem for an f already known to be irreducible: every gate but
    irreducibility, then the trace-polynomial root counts."""
    if not _salem_gates(f):
        return _NOT_SALEM
    k = f.degree // 2
    q = f.trace_polynomial()
    bound = cauchy_bound(q) + 1
    # q(2) = 0 would force f(1) = 0, impossible for irreducible f of
    # degree >= 2, so the endpoints are safe; no root of q lies above a
    # bound <= 2
    gt2 = sturm_count(q, 2, bound) if bound > 2 else 0
    inside = sturm_count(q, -2, 2)
    ok = gt2 == 1 and inside == k - 1
    lam = None
    if ok:
        big = cauchy_bound(f) + 1
        lam = real_root_enclosure(f, 1, big, Fraction(1, 1 << 64))
    return SalemCertificate(ok, q, gt2, inside, lam)


# ---------------------------------------------------------------------------
# Salem generator


def _comb(j: int) -> IntPoly:
    """Monic degree-j integer polynomial with j distinct real roots in
    (-2,2): products of distinct (t^2 - m), times t when j is odd."""
    t = IntPoly.parse("0,1")
    base = {
        0: IntPoly.parse("1"),
        2: IntPoly.parse("-2,0,1"),
        4: IntPoly.parse("-2,0,1") * IntPoly.parse("-3,0,1"),
        6: IntPoly.parse("-1,0,1") * IntPoly.parse("-2,0,1") * IntPoly.parse("-3,0,1"),
    }
    even = j - (j % 2)
    if even not in base:
        raise ScanExhausted(f"no interlacing comb of degree {j} is tabulated")
    c = base[even]
    if j % 2:
        c = c * t
    return c


def _salem_trace_pattern(r: IntPoly, k: int) -> bool:
    try:
        bound = cauchy_bound(r) + 1
        return sturm_count(r, -2, 2) == k - 1 and sturm_count(r, 2, bound) == 1
    except EndpointIsRoot:
        return False


def gross_mcmullen(two_k: int, a_max: int = 10000) -> IntPoly:
    """A Salem polynomial of each even degree, by perturbing an
    interlacing product: R(t) = comb * (edge factors) * (t - a) - 1 has
    k-1 roots in (-2,2) and one above 2 for suitable a, and lifting R as a
    trace polynomial gives the Salem polynomial."""
    if two_k % 2 != 0:
        raise OddDegreeRequested(str(two_k))
    if two_k < 2:
        raise InputError("degree must be at least 2")
    if two_k == 2:
        p = IntPoly.parse("1,-3,1")
        if not is_salem(p).is_salem:
            raise VerificationFailed("degree-2 table entry failed the Salem test")
        return p
    k = two_k // 2
    if k == 3:
        # the odd-k formula starts at k = 5; scan small trace cubics
        for s in range(1, 12):
            for c2 in range(-s, s + 1):
                for c1 in range(-s, s + 1):
                    for c0 in range(-s, s + 1):
                        if max(abs(c2), abs(c1), abs(c0)) != s:
                            continue
                        r = IntPoly((c0, c1, c2, 1))
                        if not _salem_trace_pattern(r, 3):
                            continue
                        p = IntPoly.from_trace(r)
                        if is_salem(p).is_salem:
                            return p
        raise ScanExhausted("no degree-6 Salem polynomial in the search box")
    t = IntPoly.parse("0,1")
    if k % 2 == 1:
        fixed = _comb(k - 3) * IntPoly.parse("-4,0,1")
    else:
        fixed = _comb(k - 2) * IntPoly.parse("-2,1")
    for a in range(3, a_max + 1):
        r = fixed * (t - a) - 1
        if not _salem_trace_pattern(r, k):
            continue
        p = IntPoly.from_trace(r)
        if is_salem(p).is_salem:
            return p
    raise ScanExhausted(f"no Salem polynomial of degree {two_k} with a <= {a_max}")


# ---------------------------------------------------------------------------
# eigenvalue bookkeeping for degree computations


class _Spectrum:
    """Eigenvalues of an integer matrix: the root systems, taken from a
    store, of its char poly's irreducible factors; instances carry
    algebraic multiplicity."""

    def __init__(self, chi: IntPoly, store: RootStore):
        self.factors = store.factors(chi)
        self.store = store
        self.systems = [store[f] for f, _m in self.factors]
        self._radicals = {}

    def factor(self, fi) -> IntPoly:
        return self.factors.factors[fi][0]

    def instances(self):
        out = []
        for fi, (f, m) in enumerate(self.factors):
            for si in range(f.degree):
                for copy in range(m):
                    out.append((fi, si))
        return out

    def ball(self, fi, si):
        return self.systems[fi].roots[si]

    def is_eq1(self, fi, si):
        return self.mod_class(fi, si) == "eq1"

    def mod_class(self, fi, si):
        return self.systems[fi].modulus_class[si]

    def is_real(self, fi, si):
        return self.systems[fi].conj[si] == si

    def systems_of(self, *insts):
        """The distinct root systems holding the given instances."""
        return tuple(dict.fromkeys(self.systems[fi] for fi, _si in insts))

    def product_value(self, a, b) -> CertValue:
        """Shrinkable disk for the product of the roots at instances a and
        b; with b the conjugate of a, for |root_a|^2."""

        def current():
            return self.ball(*a) * self.ball(*b)

        return derived_value(current, self.systems_of(a, b), tag=(a, b))

    def modsq_radical(self, a, b) -> IntPoly:
        """The tie radical of the (monic) factors at instances a and b,
        built once per set of (factor, real) parts."""
        parts = frozenset((self.factor(x[0]), self.is_real(*x)) for x in (a, b))
        if parts not in self._radicals:
            self._radicals[parts] = _modsq_radical(parts)
        return self._radicals[parts]

    def conj_instance(self, fi, si):
        return (fi, self.systems[fi].conj[si])

    def inverse_partner(self, fi, si):
        """(gi, sj) of the root equal to 1 / this root or, when there is
        none, to -1 / this root, so of modulus 1 / |this root|; or None.

        Within a self-reciprocal factor this is the recip involution.
        Otherwise a partner exists exactly when a factor is the reversal of
        this one or of its image under x -> -x, and is then located by
        exact disk inversion.
        """
        recip = self.systems[fi].recip
        if recip is not None:
            return (fi, recip[si])
        rev = self.factor(fi).reverse().primitive()
        for sign, g in ((1, rev), (-1, rev.negate_variable())):
            if any(f == (g if g.lc > 0 else -g) for f, _m in self.factors):
                break
        else:
            return None

        rs = self.systems[fi]

        def inverse():
            b = rs.roots[si]
            return (b.invert() if sign > 0 else -b.invert()) if b.excludes_zero() else None

        value = derived_value(lambda: refine_until(inverse, rs.refine, "zero exclusion"), (rs,))
        return self.locate(value)

    def locate(self, value: CertValue):
        """(factor index, slot) of the eigenvalue equal to value, a
        CertValue known to be one.

        Each round quarters a target radius, shrinks the value to it and
        refines to it the factors whose roots the value's disk still meets.
        Raises VerificationFailed when the disk meets no root, Ambiguous
        when the value cannot shrink, PrecisionExhausted when the rounds
        run out.
        """
        target = Fraction(1, 1 << 24)
        hits = []

        def decide():
            hits[:] = [
                (fi, si)
                for fi, rs in enumerate(self.systems)
                for si, root in enumerate(rs.roots)
                if not value.ball.is_disjoint(root)
            ]
            if not hits:
                raise VerificationFailed("a value matches no factor root")
            return hits[0] if len(hits) == 1 else None

        def refine():
            nonlocal target
            target = target / 4
            if not value.shrink(target):
                raise Ambiguous("values cannot be separated further")
            for fi in {fi for fi, _si in hits}:
                self.systems[fi].refine(target)

        return refine_until(decide, refine, "value location")


def _min_poly_at(spec: _Spectrum, poly: IntPoly, value: CertValue) -> IntPoly:
    """The irreducible factor of poly that owns value, a root of poly
    (certroots._owner): every other factor is certified zero-free on the
    value's disk, and none is isolated.  poly is factored once per store."""
    factors = spec.store.factors(poly)
    return factors.factors[_owner(value, factors)][0]


def _modsq_root(spec: _Spectrum, inst) -> IntPoly:
    """The minimal polynomial of |root|^2 at one spectrum instance."""
    v = spec.product_value(inst, spec.conj_instance(*inst))
    return _min_poly_at(spec, _modsq_resolvent(spec.factor(inst[0]), spec.is_real(*inst)), v)


def _cmp_moduli(spec: _Spectrum, a, b) -> int:
    """-1 / 0 / +1 comparing eigenvalue moduli, exact."""
    if a == b:
        return 0
    ca, cb = spec.mod_class(*a), spec.mod_class(*b)
    if ca == "eq1" and cb == "eq1":
        return 0
    if ca == "eq1":
        return 1 if cb == "lt1" else -1
    if cb == "eq1":
        return -1 if ca == "lt1" else 1
    if spec.conj_instance(*a) == b:
        return 0  # conjugate roots share modulus

    def refine():
        for rs in spec.systems_of(a, b):
            rs.refine()

    return _compare_moduli(
        lambda: [spec.ball(*x).modulus_interval() for x in (a, b)],
        lambda: spec.modsq_radical(a, b),
        refine,
    )


def _sorted_instances(spec: _Spectrum):
    """Eigenvalue instances sorted by modulus, largest first, with an
    exact comparison; equal moduli are ordered by descending
    (factor, slot) index."""
    cache = {}

    def cmp(x, y):
        if x != y and (x, y) not in cache:
            c = _cmp_moduli(spec, x, y)
            cache[x, y], cache[y, x] = c, -c
        # ties go by index, which the reversed sort makes descending
        return cache.get((x, y)) or (-1 if x < y else 1)

    return sorted(spec.instances(), key=cmp_to_key(cmp), reverse=True)


def _window_product_is_one(spec: _Spectrum, window) -> bool:
    """True when the multiset of ranks certifiedly multiplies (in
    modulus) to exactly 1: unit-circle roots plus pairs w = +-1/z, or,
    failing that, those plus complete root sets of factors f with
    |f(0)| = |lc f|, whose roots multiply to modulus 1."""
    if _pairs_to_one(spec, list(window)):
        return True
    remaining = list(window)
    for fi, (f, _m) in enumerate(spec.factors):
        roots = [(fi, si) for si in range(f.degree)]
        while abs(f[0]) == abs(f.lc) and all(r in remaining for r in roots):
            for r in roots:
                remaining.remove(r)
    return len(remaining) < len(window) and _pairs_to_one(spec, remaining)


def _pairs_to_one(spec: _Spectrum, remaining) -> bool:
    """Whether the instances in remaining, a list consumed here, are
    unit-circle roots and pairs w = +-1/z."""
    while remaining:
        inst = remaining.pop()
        if spec.is_eq1(*inst):
            continue
        partner = spec.inverse_partner(*inst)
        if partner is None:
            return False
        # any root of the partner's modulus works: its conjugate twin, or
        # another root whose modulus ties with it exactly, so the answer
        # does not depend on how equal moduli were ordered
        twin = spec.conj_instance(*partner)
        if partner in remaining:
            remaining.remove(partner)
        elif twin in remaining:
            remaining.remove(twin)
        else:
            tie = next((x for x in remaining if _cmp_moduli(spec, x, partner) == 0), None)
            if tie is None:
                return False
            remaining.remove(tie)
    return True


def _modulus_interval_tight(spec: _Spectrum, inst, eps: Fraction):
    if spec.is_eq1(*inst):
        return (Fraction(1), Fraction(1))
    rs = spec.systems[inst[0]]

    def decide():
        lo, hi = rs.roots[inst[1]].modulus_interval()
        return (lo, hi) if lo > 0 and hi - lo <= eps else None

    return refine_until(decide, rs.refine, "modulus interval")


def dynamical_degrees(A: IntMatrix, n: int) -> DegreeReport:
    """Certified dynamical degrees of the torus automorphism induced by A
    on a rank-2n lattice: lambda_p is the product of the 2p largest
    eigenvalue moduli of A."""
    if not A.is_square() or A.nrows != 2 * n:
        raise InputError(f"matrix must be {2 * n}x{2 * n} for dimension {n}")
    d = det(A)
    if abs(d) != 1:
        raise NotUnimodular(f"determinant {d}")
    return _degree_report(_Spectrum(char_poly(A), RootStore()), n)


def _degree_report(spec: _Spectrum, n: int) -> DegreeReport:
    """The degrees of a rank-2n lattice map with eigenvalues spec."""
    order = _sorted_instances(spec)

    eps = Fraction(1, 1 << 48)
    lambdas = []
    for p in range(n + 1):
        if p == 0 or p == n:
            lambdas.append((Fraction(1), Fraction(1)))
            continue
        lo, hi = Fraction(1), Fraction(1)
        for inst in order[: 2 * p]:
            ilo, ihi = _modulus_interval_tight(spec, inst, eps)
            lo *= ilo
            hi *= ihi
        lambdas.append((lo, hi))

    equal = set()
    for p in range(n + 1):
        for q in range(p + 1, n + 1):
            window = order[2 * p : 2 * q]
            if _window_product_is_one(spec, window):
                equal.add((p, q))

    for p in range(1, n):
        if lambdas[p][1] ** 2 < lambdas[p - 1][0] * lambdas[p + 1][0]:
            raise VerificationFailed("interval bounds refute log-concavity")

    return DegreeReport(
        lambdas=tuple(lambdas),
        exact_equalities=frozenset(equal),
        spectrum=spec,
        order=tuple(order),
    )


def _salem_first(spec: _Spectrum, order) -> bool:
    """Whether lambda_1 = |a| |b|, a and b the top two instances of order,
    is a Salem number.  Each answer but lambda_1 = 1 is the Salem test of a
    located minimal polynomial: of |a|^2 when b is a or its conjugate, of
    |a| when b lies on the unit circle, of |ab| when both are real, and
    otherwise of lambda_1^2.
    """
    a, b = order[0], order[1]
    if spec.is_eq1(*a):
        return False  # every modulus is 1, so lambda_1 = 1
    if b in (a, spec.conj_instance(*a)):
        return _salem_test(_modsq_root(spec, a)).is_salem
    if spec.is_eq1(*b):
        # lambda_1 = |root_a|, root_a real (a nonreal one has its conjugate
        # sorted ahead of b), and its disk, narrower than 1, shows its sign
        f = spec.factor(a[0])
        return _salem_test(f.negate_variable() if spec.ball(*a).re < 0 else f).is_salem
    if spec.is_real(*a) and spec.is_real(*b):
        # product of two real eigenvalues: two roots of one factor, or one
        # root of each; take the modulus of the product
        v = spec.product_value(a, b)
        fa, fb = spec.factor(a[0]), spec.factor(b[0])
        poly = exterior_resolvent(fa, 2) if a[0] == b[0] else composed_product(fa, fb)
        m = _min_poly_at(spec, poly, v)
        # an odd-degree m(-x) is not monic, and is not Salem either way
        return _salem_test(m.negate_variable() if v.ball.re - v.ball.rad < 0 else m).is_salem
    return _salem_first_squared(spec, a, b)


def _salem_first_squared(spec: _Spectrum, a, b) -> bool:
    """Whether lambda_1 = |a| |b| is a Salem number, through the minimal
    polynomial M of lambda_1^2 = |a|^2 |b|^2.  Powers of a Salem number are
    Salem, so a non-Salem M answers False.  Otherwise M(x^2) is irreducible
    or +-g(x)g(-x), and only a factor holding lambda_1 can be Salem: phi^2
    is a Salem number, phi is not."""
    insts = (a, spec.conj_instance(*a), b, spec.conj_instance(*b))
    v = derived_value(lambda: math.prod(spec.ball(*i) for i in insts), spec.systems_of(*insts))
    m = _min_poly_at(spec, composed_product(_modsq_root(spec, a), _modsq_root(spec, b)), v)
    if not _salem_test(m).is_salem:
        return False
    m_x2 = IntPoly(tuple(c for x in m.coeffs for c in (x, 0))[:-1])
    return any(_salem_test(g).is_salem for g, _mult in spec.store.factors(m_x2))


# ---------------------------------------------------------------------------
# first dynamical degree for sextic torus models


def first_dynamical_degree_salem(p) -> bool:
    """Whether the first dynamical degree of the 3-torus automorphism with
    analytic eigenvalue data from p is a Salem number.

    p must classify special or be a reducible monic unimodular sextic.
    The lattice spectrum of a complex-torus map is S with conj(S), so this
    is the ``salem_first`` of ``dynamical_degrees``, read off the roots of p
    in the analysis's store.  For p = (x^2-3x+1)(x^4-5x^3+7x^2-5x+1),
    lambda_1 is a product of two real Salem numbers, not a Salem number.
    """
    sx = SexticAnalysis.of(p)
    p, cls = sx.poly, sx.classification
    reducible = p.degree == 6 and p.is_monic() and abs(p[0]) == 1 and "irreducible" in cls.failed()
    if not (cls.is_special or reducible):
        raise ClassificationRequired(
            "input must classify special or be a reducible monic unimodular sextic"
        )
    spec = _Spectrum(p, sx.store)
    return _salem_first(spec, _sorted_instances(spec))


# ---------------------------------------------------------------------------
# corpus enumeration


def enumerate_special(bound: int):
    """All special sextics lifted from trace cubics t^3 + c2 t^2 + c1 t +
    c0 with |ci| <= bound, in lexicographic coefficient order.  Yields
    (trace_cubic, sextic, classification)."""
    for c2 in range(-bound, bound + 1):
        for c1 in range(-bound, bound + 1):
            for c0 in range(-bound, bound + 1):
                q = IntPoly((c0, c1, c2, 1))
                try:
                    if count_real_roots(q) != 1 or sturm_count(q, -2, 2) != 1:
                        continue
                except EndpointIsRoot:
                    continue
                p = IntPoly.from_trace(q)
                cls = classify_special(p)
                if cls.is_special:
                    yield q, p, cls
