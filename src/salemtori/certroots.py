"""Certified complex root isolation.

Approximations come from simultaneous (Aberth) sweeps: in hardware floats
for the first disks, in mpmath at doubling precision when those do not
certify or finer disks are asked for.  Every guarantee is then restored
exactly: Weierstrass correction terms are evaluated in exact dyadic
integer arithmetic and yield disks that provably contain the roots (a
connected union of k such disks holds exactly k roots, so pairwise
disjoint disks isolate).  All downstream decisions, conjugate pairing,
reciprocal pairing, modulus classes, matching derived values to resolvent
factors, are made with midpoint-radius dyadic balls: integer mantissas
over a shared power-of-two exponent, compared exactly, with the only
inexact operation (inversion) rounded outward.  Floats never decide
anything.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
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
# an outward-rounded ball lies on a grid this many bits finer than its radius
_GUARD_BITS = 32


def _frac(m: int, e: int) -> Fraction:
    """The rational m * 2^e."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _modsq(a: int, b: int, e: int):
    """(n, k) with |(a + bi) 2^e|^2 = n / 2^k in lowest terms."""
    s = a * a + b * b
    if s == 0:
        return 0, 0
    t = (s & -s).bit_length() - 1
    k = max(0, -2 * e - t)
    sh = 2 * e + k
    return (s << sh if sh >= 0 else s >> -sh), k


def _abs_upper(a: int, b: int, e: int):
    """(u, k) with u / 2^k >= |(a + bi) 2^e|: the square root of the squared
    modulus n / 2^k, rounded up at the resolution of its denominator."""
    n, k = _modsq(a, b, e)
    m = n << k
    u = math.isqrt(m)
    return (u if u * u == m else u + 1), k


def _scaled_divmod(x: Fraction, g: int):
    """(q, r, d) with x / 2^g = q + r / d and 0 <= r < d."""
    n, d = x.numerator, x.denominator
    if g < 0:
        n <<= -g
    else:
        d <<= g
    return (*divmod(n, d), d)


def _round_half_up(m: int, e: int, bits: int) -> int:
    """The nearest multiple of 2^-bits to m * 2^e, in units of 2^-bits,
    halves rounded up."""
    k = -bits - e
    if k <= 0:
        return m << -k
    return (m + (1 << (k - 1))) >> k


def _ball(re: int, im: int, rad: int, exp: int) -> "ComplexBall":
    b = object.__new__(ComplexBall)
    b._re, b._im, b._rad, b._exp = re, im, rad, exp
    return b


def _as_ball(x) -> "ComplexBall":
    if isinstance(x, ComplexBall):
        return x
    return _ball(x, 0, 0, 0) if isinstance(x, int) else ComplexBall(x, 0, 0)


class ComplexBall:
    """Closed disk in midpoint-radius dyadic form: integer mantissas for
    the real and imaginary parts of the center and for the radius, over
    one shared exponent, so the disk is (re + i im, rad) * 2^exp.

    ``re``, ``im`` and ``rad`` read as exact Fractions.  Built from
    rationals that are not all dyadic, the disk is rounded outward onto a
    grid _GUARD_BITS bits finer than its radius (for a point, than its
    largest coordinate).  Disk tests are exact integer comparisons; +, -
    and * are exact on dyadic input; ``invert`` rounds outward.
    """

    __slots__ = ("_re", "_im", "_rad", "_exp")

    def __init__(self, re, im, rad):
        re, im, rad = (x if isinstance(x, (int, Fraction)) else Fraction(x) for x in (re, im, rad))
        if rad < 0:
            raise InputError("negative radius")
        dens = (re.denominator, im.denominator, rad.denominator)
        if all(d & (d - 1) == 0 for d in dens):
            k = max(d.bit_length() for d in dens) - 1
            self._re, self._im, self._rad = (
                x.numerator << (k + 1 - d.bit_length()) for x, d in zip((re, im, rad), dens)
            )
            self._exp = -k
            return
        # round the center to nearest and the radius up on the grid 2^g,
        # then widen by one unit if the center moved
        size = rad or max(abs(re), abs(im))
        g = size.numerator.bit_length() - size.denominator.bit_length() - 1 - _GUARD_BITS
        (qr, rr, dr), (qi, ri, di), (qd, rd, _d) = (_scaled_divmod(x, g) for x in (re, im, rad))
        self._re, self._im = qr + (2 * rr >= dr), qi + (2 * ri >= di)
        self._rad = qd + (rd != 0) + (rr != 0 or ri != 0)
        self._exp = g

    @staticmethod
    def exact(re, im=0) -> "ComplexBall":
        return ComplexBall(re, im, 0)

    @property
    def re(self) -> Fraction:
        return _frac(self._re, self._exp)

    @property
    def im(self) -> Fraction:
        return _frac(self._im, self._exp)

    @property
    def rad(self) -> Fraction:
        return _frac(self._rad, self._exp)

    def __repr__(self):
        return f"ComplexBall(re={self.re!r}, im={self.im!r}, rad={self.rad!r})"

    def __eq__(self, other):
        if not isinstance(other, ComplexBall):
            return NotImplemented
        a, b, e = self, other, self._exp - other._exp
        if e < 0:
            a, b, e = b, a, -e
        return (a._re << e, a._im << e, a._rad << e) == (b._re, b._im, b._rad)

    def __hash__(self):
        return hash((self.re, self.im, self.rad))

    # exact predicates

    def center_abs_sq(self) -> Fraction:
        return _frac(self._re * self._re + self._im * self._im, 2 * self._exp)

    def is_disjoint(self, other: "ComplexBall") -> bool:
        k = self._exp - other._exp
        if k >= 0:
            dx = (self._re << k) - other._re
            dy = (self._im << k) - other._im
            s = (self._rad << k) + other._rad
        else:
            k = -k
            dx = self._re - (other._re << k)
            dy = self._im - (other._im << k)
            s = self._rad + (other._rad << k)
        return dx * dx + dy * dy > s * s

    def contains_ball(self, other: "ComplexBall") -> bool:
        k = self._exp - other._exp
        if k >= 0:
            dx = (self._re << k) - other._re
            dy = (self._im << k) - other._im
            slack = (self._rad << k) - other._rad
        else:
            k = -k
            dx = self._re - (other._re << k)
            dy = self._im - (other._im << k)
            slack = self._rad - (other._rad << k)
        return slack >= 0 and dx * dx + dy * dy <= slack * slack

    def contains_point(self, re, im=0) -> bool:
        """Whether the rational point re + i im lies in the disk, decided by
        integer cross-multiplication."""
        pr, qr = re.numerator, re.denominator
        pi, qi = im.numerator, im.denominator
        q = qr * qi
        x, y, r, e = pr * qi, pi * qr, self._rad * q, self._exp
        if e >= 0:
            dx = x - ((self._re * q) << e)
            dy = y - ((self._im * q) << e)
            r <<= e
        else:
            dx = (x << -e) - self._re * q
            dy = (y << -e) - self._im * q
        return dx * dx + dy * dy <= r * r

    def excludes_zero(self) -> bool:
        return self._re * self._re + self._im * self._im > self._rad * self._rad

    def modulus_interval(self):
        """Exact rational [lo, hi] containing |z| for every z in the disk.

        Bound resolution beats the radius and, for exact points, the
        denominator of the squared modulus, so shrinking the disk (or
        having an exact center) always tightens the answer."""
        e, r = self._exp, self._rad
        n, k = _modsq(self._re, self._im, e)  # |center|^2 = n / 2^k
        bits = 17 + k
        if r:
            bits = max(bits, 16 + _checked_level(max(4, 1 - e - r.bit_length())))
        # sqrt(n / 2^k) to within 2^-(k + bits), below and above
        m = n << (k + 2 * bits)
        lo = math.isqrt(m)
        hi = lo if lo * lo == m else lo + 1
        f = -(k + bits)
        if e >= f:
            r <<= e - f
        else:
            lo <<= f - e
            hi <<= f - e
            f = e
        lo -= r
        return (_frac(lo, f) if lo > 0 else Fraction(0), _frac(hi + r, f))

    # ball arithmetic, exact on dyadic input

    def conjugate(self) -> "ComplexBall":
        return _ball(self._re, -self._im, self._rad, self._exp)

    def __neg__(self):
        return _ball(-self._re, -self._im, self._rad, self._exp)

    def __add__(self, other):
        other = _as_ball(other)
        k = self._exp - other._exp
        if k >= 0:
            return _ball(
                (self._re << k) + other._re,
                (self._im << k) + other._im,
                (self._rad << k) + other._rad,
                other._exp,
            )
        k = -k
        return _ball(
            self._re + (other._re << k),
            self._im + (other._im << k),
            self._rad + (other._rad << k),
            self._exp,
        )

    def __sub__(self, other):
        other = _as_ball(other)
        return self + (-other)

    def __mul__(self, other):
        """The product disk: the exact product of the centers, with radius
        |c1| r2 + |c2| r1 + r1 r2, each |c| rounded up by _abs_upper."""
        other = _as_ball(other)
        a, b, r, e = self._re, self._im, self._rad, self._exp
        c, d, s, f = other._re, other._im, other._rad, other._exp
        x = e + f
        re, im = a * c - b * d, a * d + b * c
        if not (r or s):
            return _ball(re, im, 0, x)
        # radius terms as (mantissa, exponent)
        terms = [(r * s, x)]
        if s:
            u, k = _abs_upper(a, b, e)
            terms.append((u * s, f - k))
        if r:
            u, k = _abs_upper(c, d, f)
            terms.append((u * r, e - k))
        g = min(x, *(t for _m, t in terms))
        rad = sum(m << (t - g) for m, t in terms)
        return _ball(re << (x - g), im << (x - g), rad, g)

    __rmul__ = __mul__

    def invert(self) -> "ComplexBall":
        """Disk containing 1/z for every z in this one; requires 0 outside
        the disk.

        The exact image disk has center conj(c) / den and radius r / den,
        den = |c|^2 - r^2.  It is rounded outward onto a grid _GUARD_BITS
        bits finer than its radius; for an exact point, _GUARD_BITS bits
        finer than 2^-exp / den, den taken on the mantissas."""
        a, b, r, e = self._re, self._im, self._rad, self._exp
        den = a * a + b * b - r * r  # times 2^(2e)
        if den <= 0:
            raise InputError("inversion of a disk containing zero")
        if r:
            s = max(0, den.bit_length() - r.bit_length() + 1 + _GUARD_BITS)
        else:
            s = den.bit_length() + _GUARD_BITS
        # centre and radius in units of 2^(-e-s)
        qr, rr = divmod(a << s, den)
        qi, ri = divmod(-b << s, den)
        rad = -(-(r << s) // den) + (rr != 0 or ri != 0)
        return _ball(qr + (2 * rr >= den), qi + (2 * ri >= den), rad, -e - s)


def evaluate_poly_on_ball(p: IntPoly, b: ComplexBall) -> ComplexBall:
    """Ball guaranteed to contain p(z) for every z in b (Horner)."""
    acc = _ball(0, 0, 0, 0)
    for c in reversed(p.coeffs if p.coeffs else (0,)):
        acc = acc * b + c
    return acc


# ---------------------------------------------------------------------------
# isolation engine


def _scaled(x, shift: int) -> int:
    """x * 2^shift rounded to the nearest integer, halves to even, for a
    Python float or an mpmath mpf x."""
    if isinstance(x, float):
        n, d = x.as_integer_ratio()
        k = d.bit_length() - 1 - shift
    else:
        if not mpmath.isfinite(x):
            raise ArithmeticError("non-finite value in root iteration")
        sign, man, exp, _ = x._mpf_
        n, k = (-man if sign else man), -exp - shift
    if k <= 0:
        return n << -k
    q = n >> k
    r = n - (q << k)
    half = 1 << (k - 1)
    return q + (r > half or (r == half and q & 1))


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
    # centers are integers over 2^shift, radii are rounded up to 2^-(prec+8)
    shift = prec + 16
    pts = [(_scaled(z.real, shift), _scaled(z.imag, shift)) for z in zs]
    if len(set(pts)) != n:
        return None
    coeffs = p.coeffs
    balls = []
    for i, (a, b) in enumerate(pts):
        # p(z_i) by Horner in scaled integers: after k steps the value is
        # (va + vb*i) * 2^(-shift*k)
        va, vb = 0, 0
        for k, c in enumerate(reversed(coeffs)):
            if k == 0:
                va, vb = c, 0
                continue
            va, vb = va * a - vb * b, va * b + vb * a
            va += c << (k * shift)
        num_sq = va * va + vb * vb  # |p(z_i)|^2 = num_sq * 2^(-2*shift*n)
        den = 1
        for j, (c, d) in enumerate(pts):
            if j != i:
                dx = a - c
                dy = b - d
                den *= dx * dx + dy * dy  # each factor carries 2^(-2*shift)
        # |w_i|^2 = num_sq * 2^(-2*shift) / (lc^2 * den), so the radius
        # n |w_i| in units of 2^-(prec+8) is ceil(sqrt(x)) with
        # x = n^2 num_sq / (lc^2 den 2^16)
        x = -(-n * n * num_sq // ((lc * lc * den) << 16))
        rad = math.isqrt(x - 1) + 1 if x else 0
        balls.append(_ball(a, b, rad << 8, -shift))
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
            if b._im - b._rad > 0:
                signs[i] = 1
            elif b._im + b._rad < 0:
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


def _checked_level(m: int) -> int:
    if m > _MAX_PREC:
        raise PrecisionExhausted(f"{m} bits asked for, beyond {_MAX_PREC}")
    return m


def _eps_level(eps: Fraction) -> int:
    """Smallest m >= 4 with 2^-m <= eps: 2^m must reach ceil(1 / eps)."""
    num, den = eps.numerator, eps.denominator
    return _checked_level(max(4, (-(-den // num) - 1).bit_length()))


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
        re = _round_half_up(b._re, b._exp, grid)
        im = _round_half_up(b._im, b._exp, grid)
        snapped.append(_ball(re, im, 8, -grid))  # radius 2^-m
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
