"""Certified complex root isolation.

Approximations come from simultaneous (Aberth) sweeps: in hardware floats
for the first disks, in mpmath at doubling precision when those do not
certify or finer disks are asked for.  Every guarantee is then restored
exactly: Weierstrass correction terms are evaluated in exact dyadic
integer arithmetic and yield disks that provably contain the roots (a connected union of k such disks holds exactly k roots,
so pairwise disjoint disks isolate).  All downstream decisions, conjugate
pairing, reciprocal pairing, modulus classes, matching derived values to
resolvent factors, are made with exact rational ball arithmetic.  Floats
never decide anything.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .exceptions import (
    Ambiguous,
    InputError,
    NotSquarefree,
    PrecisionExhausted,
    VerificationFailed,
)
from .intpoly import IntPoly, cauchy_bound, gcd as poly_gcd, is_squarefree

_MAX_PREC = 1 << 16
# refinement rounds refine_until allows any one decision
_MAX_ROUNDS = 80


def _sqrt_upper(q: Fraction, bits: int = 0) -> Fraction:
    """Rational upper bound on sqrt(q) for q >= 0, tight on squares.

    The error is at most 2^-bits / denominator; callers that must separate
    the result from a nearby rational pass enough bits, since the default
    resolution is as coarse as the radicand's denominator."""
    if q < 0:
        raise InputError("negative radicand")
    n, d = q.numerator, q.denominator
    m = (n * d) << (2 * bits)
    s = math.isqrt(m)
    if s * s == m:
        return Fraction(s, d << bits)
    return Fraction(s + 1, d << bits)


def _sqrt_lower(q: Fraction, bits: int = 0) -> Fraction:
    if q < 0:
        raise InputError("negative radicand")
    n, d = q.numerator, q.denominator
    return Fraction(math.isqrt((n * d) << (2 * bits)), d << bits)


def _dyadic_round(x: Fraction, bits: int) -> Fraction:
    """Nearest multiple of 2^-bits; moves x by at most 2^-(bits+1)."""
    s = x * (1 << bits)
    q, r = divmod(s.numerator, s.denominator)
    if 2 * r >= s.denominator:
        q += 1
    return Fraction(q, 1 << bits)


def _dyadic_ceil(x: Fraction, bits: int) -> Fraction:
    s = x * (1 << bits)
    return Fraction(-((-s.numerator) // s.denominator), 1 << bits)


@dataclass(frozen=True)
class ComplexBall:
    """Closed disk with exact rational center and radius."""

    re: Fraction
    im: Fraction
    rad: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))
        object.__setattr__(self, "rad", Fraction(self.rad))
        if self.rad < 0:
            raise InputError("negative radius")

    @staticmethod
    def exact(re, im=0) -> "ComplexBall":
        return ComplexBall(Fraction(re), Fraction(im), Fraction(0))

    # exact predicates

    def center_abs_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_disjoint(self, other: "ComplexBall") -> bool:
        dx = self.re - other.re
        dy = self.im - other.im
        s = self.rad + other.rad
        return dx * dx + dy * dy > s * s

    def contains_ball(self, other: "ComplexBall") -> bool:
        slack = self.rad - other.rad
        if slack < 0:
            return False
        dx = self.re - other.re
        dy = self.im - other.im
        return dx * dx + dy * dy <= slack * slack

    def contains_point(self, re, im=0) -> bool:
        dx = Fraction(re) - self.re
        dy = Fraction(im) - self.im
        return dx * dx + dy * dy <= self.rad * self.rad

    def excludes_zero(self) -> bool:
        return self.center_abs_sq() > self.rad * self.rad

    def modulus_interval(self):
        """Exact rational [lo, hi] containing |z| for every z in the disk.

        Bound resolution beats the radius and, for exact points, the
        denominator, so shrinking the disk (or having an exact center)
        always tightens the answer."""
        q = self.center_abs_sq()
        bits = 16 + q.denominator.bit_length()
        if self.rad > 0:
            bits = max(bits, 16 + _eps_level(self.rad))
        lo = _sqrt_lower(q, bits) - self.rad
        hi = _sqrt_upper(q, bits) + self.rad
        return (lo if lo > 0 else Fraction(0), hi)

    # exact ball arithmetic

    def conjugate(self) -> "ComplexBall":
        return ComplexBall(self.re, -self.im, self.rad)

    def __neg__(self):
        return ComplexBall(-self.re, -self.im, self.rad)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return ComplexBall(self.re + other, self.im, self.rad)
        return ComplexBall(self.re + other.re, self.im + other.im, self.rad + other.rad)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return ComplexBall(self.re - other, self.im, self.rad)
        return ComplexBall(self.re - other.re, self.im - other.im, self.rad + other.rad)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return ComplexBall(self.re * f, self.im * f, self.rad * abs(f))
        a = _sqrt_upper(self.center_abs_sq())
        b = _sqrt_upper(other.center_abs_sq())
        rad = a * other.rad + b * self.rad + self.rad * other.rad
        return ComplexBall(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
            rad,
        )

    __rmul__ = __mul__

    def invert(self) -> "ComplexBall":
        """Exact image disk under z -> 1/z; requires 0 outside the disk."""
        den = self.center_abs_sq() - self.rad * self.rad
        if den <= 0:
            raise InputError("inversion of a disk containing zero")
        return ComplexBall(self.re / den, -self.im / den, self.rad / den)


def evaluate_poly_on_ball(p: IntPoly, b: ComplexBall) -> ComplexBall:
    """Ball guaranteed to contain p(z) for every z in b (Horner)."""
    acc = ComplexBall.exact(0)
    for c in reversed(p.coeffs if p.coeffs else (0,)):
        acc = acc * b + c
    return acc


# ---------------------------------------------------------------------------
# isolation engine


def _mpf_to_fraction(x) -> Fraction:
    if not mpmath.isfinite(x):
        raise ArithmeticError("non-finite value in root iteration")
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -v if sign else v


def _aberth(p, dp, zs, tol, nudge):
    """Aberth sweeps in the arithmetic of p, dp and zs: Python complex, or
    mpmath mpc under a working precision.  p and dp are the coefficients of
    the polynomial and of its derivative, highest degree first.

    A sweep converges once every correction is below tol * max(1, |z|).
    A zero derivative or two coincident approximations move the point by
    nudge * (1 + |z|) when nudge is set.  Returns (zs, converged).
    """
    n = len(zs)
    for _ in range(140):
        converged = True
        new = list(zs)
        for i in range(n):
            z = zs[i]
            pv = p[0]
            for c in p[1:]:
                pv = pv * z + c
            dv = dp[0]
            for c in dp[1:]:
                dv = dv * z + c
            if dv == 0:
                if not nudge:
                    return zs, False
                new[i] = z + nudge * (1 + abs(z)) * (1 + 1j)
                converged = False
                continue
            w = pv / dv
            s = 0
            for j in range(n):
                if j != i:
                    d = z - zs[j]
                    if d == 0:
                        if not nudge:
                            return zs, False
                        d = nudge * (1 + abs(z))
                    s += 1 / d
            denom = 1 - w * s
            corr = w if denom == 0 else w / denom
            new[i] = z - corr
            if not abs(corr) < tol * max(1, abs(z)):
                converged = False
        zs = new
        if converged:
            return zs, True
    return zs, False


def _aberth_sweeps(coeffs_desc, zs, prec):
    """Simultaneous-correction sweeps at the given binary precision."""
    n = len(coeffs_desc) - 1
    with mpmath.workprec(prec):
        p = [mpmath.mpf(c) for c in coeffs_desc]
        dp = [mpmath.mpf(c * (n - i)) for i, c in enumerate(coeffs_desc[:-1])]
        nudge = mpmath.mpf(2) ** (-(prec - 8))
        zs, _ = _aberth(p, dp, [mpmath.mpc(z) for z in zs], 4 * nudge, nudge)
        return zs


def _float_seed(p: IntPoly):
    """Approximate roots from Aberth sweeps in hardware floats, started
    from the circle of _initial_points; None on overflow, a non-finite
    value, a zero derivative, coincident approximations or no convergence."""
    n = p.degree
    desc = [p.coeffs[-1 - i] for i in range(n + 1)]
    try:
        fp = [float(c) for c in desc]
        fdp = [float(c * (n - i)) for i, c in enumerate(desc[:-1])]
        start = [complex(z) for z in _initial_points(p, 53)]
        zs, converged = _aberth(fp, fdp, start, 1e-13, None)
    except OverflowError:
        return None
    if not converged or not all(cmath.isfinite(z) for z in zs):
        return None
    return zs


def _initial_points(p: IntPoly, prec):
    n = p.degree
    b = cauchy_bound(p)
    with mpmath.workprec(prec):
        r = mpmath.mpf(b.numerator) / b.denominator
        return [
            0.7 * r * mpmath.exp(mpmath.mpc(0, 2) * mpmath.pi * (k + 0.354) / n)
            for k in range(n)
        ]


def _certified_balls(p: IntPoly, zs, prec):
    """Exact Weierstrass disks around the approximations.

    Root i lies within n*|p(z_i) / (lc * prod_{j!=i}(z_i - z_j))| of z_i,
    and pairwise disjoint disks each hold exactly one root.  Returns the
    disks, or None when disjointness fails at this precision.
    """
    n = p.degree
    lc = p.lc
    shift = prec + 16
    e = -shift
    scale = 1 << shift
    pts = []
    with mpmath.workprec(prec + 32):
        for z in zs:
            re = _mpf_to_fraction(mpmath.re(z))
            im = _mpf_to_fraction(mpmath.im(z))
            pts.append((round(re * scale), round(im * scale)))
    if len(set(pts)) != n:
        return None
    coeffs = p.coeffs
    balls = []
    for i, (a, b) in enumerate(pts):
        # p(z_i) by Horner in scaled integers: after k steps the value is
        # (va + vb*i) * 2^(e*k)
        va, vb = 0, 0
        for k, c in enumerate(reversed(coeffs)):
            if k == 0:
                va, vb = c, 0
                continue
            va, vb = va * a - vb * b, va * b + vb * a
            va += c << (k * shift)
        num_sq = va * va + vb * vb  # |p(z_i)|^2 = num_sq * 2^(2*e*n)
        den = 1
        for j, (c, d) in enumerate(pts):
            if j != i:
                dx = a - c
                dy = b - d
                den *= dx * dx + dy * dy  # each factor carries 2^(2*e)
        # |w_i|^2 = num_sq * 2^(2en) / (lc^2 * den * 2^(2e(n-1)))
        q = Fraction(num_sq, lc * lc * den) * Fraction(2) ** (2 * e)
        rad = n * _sqrt_upper(q)
        balls.append(
            ComplexBall(Fraction(a, scale), Fraction(b, scale), _dyadic_ceil(rad, prec + 8))
        )
    for i in range(n):
        for j in range(i + 1, n):
            if not balls[i].is_disjoint(balls[j]):
                return None
    return balls


class _Isolation:
    """Adaptive-precision isolation state for one squarefree polynomial.

    Ball order is fixed forever by the first successful certification;
    later refinements are matched back onto it, so an index names one true
    root for the lifetime of the state.
    """

    def __init__(self, p: IntPoly):
        self.p = p
        self.prec = 128
        seed = _float_seed(p)
        # float seeds are certified as they are before any sweep
        self._sweep = seed is None
        self.zs = _initial_points(p, self.prec) if seed is None else seed
        self.balls = None
        self._desc = tuple(p.coeffs[-1 - i] for i in range(p.degree + 1))

    def ensure(self, eps: Fraction):
        eps = Fraction(eps)
        while True:
            if self.balls is not None and all(b.rad <= eps for b in self.balls):
                return self.balls
            if self._sweep:
                self.zs = _aberth_sweeps(self._desc, self.zs, self.prec)
            cand = _certified_balls(self.p, self.zs, self.prec)
            if cand is not None and all(b.rad <= eps for b in cand):
                if self.balls is not None:
                    matched = _try_match(self.balls, cand)
                    if matched is None:
                        # new disks still too coarse to land in unique old
                        # disks; shrink them further
                        eps = eps / 4
                        continue
                    cand = matched
                self.balls = cand
                self._self_check()
                self._sweep = True
                return self.balls
            if not self._sweep:
                # the seeds did not certify: sweep before doubling
                self._sweep = True
                continue
            self.prec *= 2
            if self.prec > _MAX_PREC:
                raise PrecisionExhausted(
                    f"isolation beyond {_MAX_PREC} bits for {self.p}"
                )

    def shrink(self):
        """Refine all disks by a fixed factor."""
        radii = [b.rad for b in self.balls if b.rad > 0]
        if not radii:
            raise PrecisionExhausted("exact points cannot be refined further")
        self.ensure(min(radii) / 4)

    def _self_check(self):
        p = self.p
        csum = ComplexBall.exact(0)
        cprod = ComplexBall.exact(1)
        for b in self.balls:
            csum = csum + b
            cprod = cprod * b
        want_sum = Fraction(-p[p.degree - 1], p.lc)
        want_prod = Fraction((-1) ** p.degree * p[0], p.lc)
        if not csum.contains_point(want_sum):
            raise VerificationFailed("root sum check failed")
        if not cprod.contains_point(want_prod):
            raise VerificationFailed("root product check failed")


def _try_match(old_balls, new_balls):
    """Reorder new_balls so index k keeps the same true root; None if any
    old disk fails to meet exactly one new disk."""
    out = []
    taken = set()
    for ob in old_balls:
        hits = [j for j, nb in enumerate(new_balls) if not ob.is_disjoint(nb)]
        if len(hits) != 1 or hits[0] in taken:
            return None
        taken.add(hits[0])
        out.append(new_balls[hits[0]])
    return out


def refine_until(decide, refine, stage: str):
    """The first result of decide() other than None, calling refine()
    after each None; PrecisionExhausted naming the stage and the rounds
    spent when _MAX_ROUNDS refinements leave it undecided."""
    for _ in range(_MAX_ROUNDS):
        out = decide()
        if out is not None:
            return out
        refine()
    raise PrecisionExhausted(f"{stage} undecided after {_MAX_ROUNDS} refinement rounds")


# ---------------------------------------------------------------------------
# certified pairings (all on raw state balls, by index)


def _pair_indices(idxs, image, state, what):
    """The involution sending each root to the unique root inside
    image(its disk); refines until the match is unambiguous."""

    def decide():
        pairing = {}
        for i in idxs:
            try:
                img = image(state.balls[i])
            except InputError:
                return None
            hits = [j for j in idxs if not img.is_disjoint(state.balls[j])]
            if len(hits) != 1:
                return None
            pairing[i] = hits[0]
        return pairing

    pairing = refine_until(decide, state.shrink, f"{what} pairing")
    for i in idxs:
        if pairing[pairing[i]] != i:
            raise VerificationFailed(f"{what} pairing is not an involution")
    return pairing


def _certify_factor_roots(g: IntPoly, state, what="factor membership"):
    """Indices whose root is a root of the divisor g, certified by
    excluding zero from g's value disk everywhere else."""

    def decide():
        undecided = {
            i
            for i in range(len(state.balls))
            if not evaluate_poly_on_ball(g, state.balls[i]).excludes_zero()
        }
        if len(undecided) < g.degree:
            raise VerificationFailed(f"{what}: roots undercounted")
        return undecided if len(undecided) == g.degree else None

    return refine_until(decide, state.shrink, what)


def _certified_im_signs(idxs, state):
    def decide():
        signs = {}
        for i in idxs:
            b = state.balls[i]
            if b.im - b.rad > 0:
                signs[i] = 1
            elif b.im + b.rad < 0:
                signs[i] = -1
            else:
                return None
        return signs

    return refine_until(decide, state.shrink, "imaginary-part signs")


# ---------------------------------------------------------------------------
# public root system


class RootSystem:
    """Isolated roots with certified pairings, refined in place.

    Roots are ordered canonically.  A sextic whose modulus classes are
    exactly {two gt1, two eq1, two lt1} with no real root is ordered as
    (unit root with Im>0, its conjugate, the modulus>1 root with Im>0, its
    reciprocal, the conjugate of that reciprocal, the conjugate of the
    modulus>1 root); anything else is sorted by modulus, a conjugate pair
    by the real part it shares, positive imaginary part first.  Moduli
    known to be equal (unit roots, conjugate pairs) tie exactly, so the
    order does not depend on how the disks were found.  conj and recip are
    index involutions; recip is present exactly when the root set is
    closed under z -> 1/z.  Index k names the same true root for the
    lifetime of the system.
    """

    def __init__(self, poly, state, order, conj, recip, modulus_class, labeling, eps):
        self.poly = poly
        self._state = state  # the _Isolation whose disks are presented
        self._order = order  # public index -> state index
        self.conj = conj
        self.recip = recip
        self.modulus_class = modulus_class  # "gt1" | "eq1" | "lt1" per root
        self.labeling = labeling
        self.eps = eps
        self.roots = _presentation(state, order, eps)  # ComplexBalls

    def refine(self, eps=None):
        """Shrink the roots in place to radius at most eps, by default
        eps / 16; a request no finer than the current eps changes nothing.

        Refining at eps/2 or smaller yields disks contained in the current
        ones whenever both levels use grid-snapped presentation.
        """
        eps = self.eps / 16 if eps is None else Fraction(eps)
        if eps < self.eps:
            self.roots = _presentation(self._state, self._order, eps)
            self.eps = eps


class RootStore(dict):
    """One RootSystem per squarefree polynomial, isolated at 2^-24 on first
    request and refined in place by every reader; an analysis owns one."""

    def __missing__(self, p: IntPoly) -> RootSystem:
        rs = self[p] = isolate_roots(p, Fraction(1, 1 << 24))
        return rs


def _eps_level(eps: Fraction) -> int:
    """Smallest m >= 4 with 2^-m <= eps."""
    m = 4
    while Fraction(1, 1 << m) > eps:
        m += 1
        if m > _MAX_PREC:
            raise PrecisionExhausted("eps too small")
    return m


def _presentation(state: _Isolation, order, eps: Fraction):
    """Public disks: centers snapped to the 2^-(m+3) grid with radius
    2^-m when separation allows, so halving eps shrinks each disk inside
    its predecessor; raw certified disks otherwise."""
    m = _eps_level(eps)
    balls = state.ensure(min(eps, Fraction(1, 1 << (m + 5))))
    grid = m + 3
    n = len(balls)
    snapped = []
    for b in balls:
        re = _dyadic_round(b.re, grid)
        im = _dyadic_round(b.im, grid)
        snapped.append(ComplexBall(re, im, Fraction(1, 1 << m)))
    good = all(snapped[i].contains_ball(balls[i]) for i in range(n))
    if good:
        good = all(
            snapped[i].is_disjoint(snapped[j])
            for i in range(n)
            for j in range(i + 1, n)
        )
    chosen = snapped if good else balls
    return tuple(chosen[o] for o in order)


def isolate_roots(p: IntPoly, eps) -> RootSystem:
    """Certified pairwise-disjoint root disks with exact pairings."""
    eps = Fraction(eps)
    if eps <= 0:
        raise InputError("eps must be positive")
    if p.degree < 1:
        raise InputError("cannot isolate roots of a constant")
    if not is_squarefree(p):
        raise NotSquarefree(str(p))
    n = p.degree
    state = _Isolation(p)
    state.ensure(min(eps, Fraction(1, 1 << 24)))

    conj = _pair_indices(range(n), lambda b: b.conjugate(), state, "conjugation")

    # roots of g = gcd(p, reverse(p)) are exactly the roots whose inverse
    # is also a root; every root on the unit circle is among them
    g = poly_gcd(p, p.reverse())
    recip_subset = {}
    if g.degree > 0:
        if g.degree == n:
            sub = range(n)
        else:
            sub = sorted(_certify_factor_roots(g, state, "self-reciprocal part"))
        recip_subset = _pair_indices(sub, lambda b: b.invert(), state, "reciprocal")
    recip = None
    if g.degree == n:
        recip = recip_subset

    # |z| = 1 exactly when 1/z and conj(z) are the same root, an index
    # identity; everything off the circle is decided by interval refinement
    classes = [None] * n
    for i in recip_subset:
        if recip_subset[i] == conj[i]:
            classes[i] = "eq1"

    def decide():
        for i in range(n):
            if classes[i] is None:
                lo, hi = state.balls[i].modulus_interval()
                if lo > 1:
                    classes[i] = "gt1"
                elif hi < 1:
                    classes[i] = "lt1"
        return None if None in classes else classes

    refine_until(decide, state.shrink, "modulus classes")

    order, labeling = _canonical_order(p, state, conj, recip, classes)

    inv = {o: k for k, o in enumerate(order)}
    conj_out = tuple(inv[conj[order[k]]] for k in range(n))
    recip_out = None
    if recip is not None:
        recip_out = tuple(inv[recip[order[k]]] for k in range(n))
    classes_out = tuple(classes[order[k]] for k in range(n))

    for k in range(n):
        if conj_out[conj_out[k]] != k:
            raise VerificationFailed("conjugation is not an involution")
    if recip_out is not None:
        for k in range(n):
            if recip_out[recip_out[k]] != k:
                raise VerificationFailed("reciprocal pairing is not an involution")
            if conj_out[recip_out[k]] != recip_out[conj_out[k]]:
                raise VerificationFailed("pairings do not commute")

    return RootSystem(p, state, tuple(order), conj_out, recip_out, classes_out, labeling, eps)


def _canonical_order(p, state, conj, recip, classes):
    n = p.degree
    special_shape = (
        n == 6
        and recip is not None
        and sorted(classes) == ["eq1", "eq1", "gt1", "gt1", "lt1", "lt1"]
        and all(conj[i] != i for i in range(6))
    )
    if special_shape:
        signs = _certified_im_signs(range(6), state)
        z1 = next(i for i in range(6) if classes[i] == "eq1" and signs[i] > 0)
        z3 = next(i for i in range(6) if classes[i] == "gt1" and signs[i] > 0)
        z4 = recip[z3]
        return [z1, conj[z1], z3, z4, conj[z4], conj[z3]], "special-canonical"
    key = []
    for i in range(n):
        # a pair's two disks lie off the real axis, so their centers'
        # imaginary signs are certified
        b, c = state.balls[i], state.balls[conj[i]]
        modsq = 1 if classes[i] == "eq1" else min(b.center_abs_sq(), c.center_abs_sq())
        im_rank = 1 if conj[i] == i else (0 if b.im > 0 else 2)
        key.append((modsq, min(b.re, c.re), im_rank, i))
    return [k[-1] for k in sorted(key)], "modulus-then-conjugate"


# ---------------------------------------------------------------------------
# matching derived values to resolvent factors


class CertValue:
    """A derived algebraic value known through a shrinkable disk.

    refine_fn(target_radius) must return a new disk for the same value
    with radius at most target_radius.
    """

    def __init__(self, ball: ComplexBall, refine_fn=None, tag=None):
        self.ball = ball
        self.refine_fn = refine_fn
        self.tag = tag

    def shrink(self, target: Fraction) -> bool:
        if self.ball.rad <= target:
            return True
        if self.refine_fn is None:
            return False
        self.ball = self.refine_fn(target)
        return self.ball.rad <= target


def derived_value(current, systems, tag=None) -> CertValue:
    """A CertValue whose disk current() computes from the roots of the
    given RootSystems; shrinking refines them in place until the disk is
    narrow enough."""

    def refine():
        for rs in systems:
            rs.refine()

    def shrink_to(target):
        def decide():
            ball = current()
            return ball if ball.rad <= target else None

        return refine_until(decide, refine, "derived value")

    return CertValue(current(), shrink_to, tag)


class FactorRoots:
    """The root systems, taken from a RootStore, of the irreducible
    factors of a factorization; every derived value is located among
    roots here."""

    def __init__(self, factors, store: RootStore):
        self.factors = factors
        self.store = store
        self.systems = [store[f] for f, _m in factors]

    def factor(self, fi) -> IntPoly:
        return self.factors.factors[fi][0]

    def locate(self, value: CertValue):
        """(factor index, slot) of the root equal to value, a CertValue
        known to be a root of the factorization.

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


def certify_value_match(values, factors, store: RootStore):
    """Assign each value to one root slot of a factored polynomial.

    values: CertValue or plain ComplexBall items whose true values form,
    with multiplicity, the root multiset of the factorization.
    factors: FactorList; a factor of degree d and multiplicity k
    contributes d slots of capacity k.
    store: the RootStore the factors' root systems are taken from.
    Returns one (factor_index, slot_index) per value, with slot loads
    verified against multiplicities.  Raises VerificationFailed when a
    value provably matches no root, Ambiguous or PrecisionExhausted when
    separation stalls.
    """
    total = sum(f.degree * m for f, m in factors)
    if total != len(values):
        raise VerificationFailed(
            f"value count {len(values)} does not match total root count {total}"
        )
    roots = FactorRoots(factors, store)
    match = [roots.locate(v if isinstance(v, CertValue) else CertValue(v)) for v in values]
    loads = Counter(match)
    for fi, (f, mult) in enumerate(factors):
        for si in range(f.degree):
            if loads[fi, si] != mult:
                raise VerificationFailed(
                    f"a root slot received {loads[fi, si]} values, expected {mult}"
                )
    return match
