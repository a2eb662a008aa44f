"""Certified complex root isolation.

Approximations start from simultaneous (Aberth) sweeps in hardware floats,
which are certified as they are.  The sweeps start from Bini's points:
one circle per edge of the Newton polygon of the coefficients' moduli,
holding as many points as the edge is long, since that many root moduli
cluster near it; a degree-12 factor then converges in about 9 sweeps.
Finer disks come from Newton steps on each root in fixed point: integer
pairs over 2^(prec + 16), with prec doubling when the disks do not
certify or are too coarse.  When the float seeds fail, or Newton meets a
zero derivative, does not converge or sends two roots to one point, the
same Aberth sweeps run on those integers, from a circle start of rational
points if need be.  Every guarantee is restored exactly: Weierstrass
correction terms are evaluated in exact dyadic integer arithmetic and
yield disks that provably contain the roots (a connected union of k such
disks holds exactly k roots, so pairwise disjoint disks isolate).  All
downstream decisions, conjugate pairing, reciprocal pairing, modulus
classes and ties, matching derived values to resolvent factors, are made
with midpoint-radius dyadic balls: integer mantissas over a shared
power-of-two exponent, compared exactly, with the only inexact operation
(inversion) rounded outward.  A derived value is matched without
isolating the resolvent's factors: every factor but its own is proven
zero-free on the value's disk.  Floats never decide anything.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from functools import cmp_to_key
from fractions import Fraction

from .exceptions import (
    Ambiguous,
    InputError,
    NotSquarefree,
    PrecisionExhausted,
    VerificationFailed,
)
from .intpoly import (
    FactorList,
    IntPoly,
    _hvalue,
    cauchy_bound,
    exterior_resolvent,
    factor_over_z,
    gcd as poly_gcd,
    is_squarefree,
    square_value_poly,
)

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


def _scaled(x: float, shift: int) -> int:
    """x * 2^shift rounded to the nearest integer, halves to even, for a
    finite Python float x."""
    n, d = x.as_integer_ratio()
    k = d.bit_length() - 1 - shift
    if k <= 0:
        return n << -k
    q = n >> k
    r = n - (q << k)
    half = 1 << (k - 1)
    return q + (r > half or (r == half and q & 1))


class _Fixed:
    """The complex number (re + i im) 2^-s with integer re and im, the
    arithmetic of the fixed-point Aberth sweeps.  Ints mix in exactly;
    products, quotients and abs are truncated to the 2^-s grid, and < and
    > compare real parts, as the sweeps compare moduli and tolerances."""

    __slots__ = ("re", "im", "s")

    def __init__(self, re: int, im: int, s: int):
        self.re, self.im, self.s = re, im, s

    def _lift(self, x) -> "_Fixed":
        return x if isinstance(x, _Fixed) else _Fixed(x << self.s, 0, self.s)

    def __add__(self, other):
        other = self._lift(other)
        return _Fixed(self.re + other.re, self.im + other.im, self.s)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return _Fixed(self.re - other.re, self.im - other.im, self.s)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return _Fixed(self.re * other, self.im * other, self.s)
        a, b, c, d = self.re, self.im, other.re, other.im
        return _Fixed((a * c - b * d) >> self.s, (a * d + b * c) >> self.s, self.s)

    def __truediv__(self, other):
        other = self._lift(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        den = c * c + d * d
        nr, ni = a * c + b * d, b * c - a * d
        # the quotients have about q = bits(n) + s - bits(den) bits; den
        # keeps max(q, 0) + 64 of its bits, and n loses as many as den
        q = max(abs(nr), abs(ni)).bit_length() + self.s - den.bit_length()
        k = den.bit_length() - 64 - max(q, 0)
        if k <= 0:
            return _Fixed((nr << self.s) // den, (ni << self.s) // den, self.s)
        den >>= k
        g = self.s - k
        if g >= 0:
            return _Fixed((nr << g) // den, (ni << g) // den, self.s)
        return _Fixed((nr >> -g) // den, (ni >> -g) // den, self.s)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __abs__(self):
        return _Fixed(math.isqrt(self.re * self.re + self.im * self.im), 0, self.s)

    def __lt__(self, other):
        return self.re < self._lift(other).re

    def __gt__(self, other):
        return self.re > self._lift(other).re

    def __eq__(self, other):
        other = self._lift(other)
        return self.re == other.re and self.im == other.im


def _aberth(p, dp, zs, tol, nudge, sweeps):
    """Aberth sweeps in the arithmetic of zs, tol and the coefficients:
    Python complex and float, or _Fixed.  p and dp are the coefficients
    of the polynomial and of its derivative, highest degree first.

    A sweep converges once every correction is below tol * max(1, |z|).
    A zero derivative or two coincident approximations move the point to
    nudge(z) when nudge is given.  Returns (zs, converged) after at most
    the given number of sweeps.
    """
    n = len(zs)
    for _ in range(sweeps):
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
                if nudge is None:
                    return zs, False
                new[i] = nudge(z)
                converged = False
                continue
            w = pv / dv
            s = 0
            for j in range(n):
                if j != i:
                    d = z - zs[j]
                    if d == 0:
                        if nudge is None:
                            return zs, False
                        d = nudge(z) - z
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


def _fixed_coeffs(desc, ddesc, s):
    """The coefficients of p and p', highest degree first, over 2^s after
    both are divided by the power of two at or below |lc p|: the quotient
    p/p' is unchanged, and the numbers in an iteration keep the size of
    the roots, not of the leading coefficient."""
    e = abs(desc[0]).bit_length() - 1
    return [(c << s) >> e for c in desc], [(c << s) >> e for c in ddesc]


def _fixed_aberth(desc, ddesc, pts, prec, sweeps):
    """At most the given number of Aberth sweeps on fixed-point integers
    over 2^(prec + 16), from the pairs pts, converging on corrections below
    2^-(prec - 10) max(1, |z|); a zero derivative or coincident points
    move by about 2^-(prec - 8) (1 + |z|)."""
    s = prec + 16
    cs, ds = ([_Fixed(c, 0, s) for c in f] for f in _fixed_coeffs(desc, ddesc, s))
    tol = _Fixed(1 << (s - prec + 10), 0, s)

    def nudge(z):
        e = max(1, ((1 << s) + math.isqrt(z.re * z.re + z.im * z.im)) >> (prec - 8))
        return _Fixed(z.re + e, z.im + e, s)

    zs, _ = _aberth(cs, ds, [_Fixed(a, b, s) for a, b in pts], tol, nudge, sweeps)
    return [(z.re, z.im) for z in zs]


# Newton steps allowed per root and refinement before the Aberth fallback
_NEWTON_STEPS = 8
# Aberth sweeps from the circle start, and from approximations that did
# not certify
_START_SWEEPS = 140
_RESWEEPS = 8


def _newton(desc, ddesc, pts, prec):
    """Newton steps z <- z - p(z)/p'(z) on each fixed-point pair over
    2^(prec + 16), until the correction is below 2^-(prec - 10)
    max(1, |z|).  None when a derivative vanishes, a root does not
    converge within _NEWTON_STEPS steps, or two roots land on one point."""
    s = prec + 16
    cs, ds = _fixed_coeffs(desc, ddesc, s)
    out = []
    for a, b in pts:
        for _ in range(_NEWTON_STEPS):
            pr, pi = cs[0], 0
            for c in cs[1:]:
                pr, pi = ((pr * a - pi * b) >> s) + c, (pr * b + pi * a) >> s
            dr, di = ds[0], 0
            for c in ds[1:]:
                dr, di = ((dr * a - di * b) >> s) + c, (dr * b + di * a) >> s
            den = dr * dr + di * di
            if den == 0:
                return None
            wr = ((pr * dr + pi * di) << s) // den
            wi = ((pi * dr - pr * di) << s) // den
            # |w| < 2^-(prec - 10) max(1, |z|), squared
            done = (wr * wr + wi * wi) << (2 * prec - 20) < max(1 << (2 * s), a * a + b * b)
            a, b = a - wr, b - wi
            if done:
                break
        else:
            return None
        out.append((a, b))
    if len(set(out)) != len(out):
        return None
    return out


def _polygon_start(p: IntPoly):
    """Bini's start for Aberth sweeps in floats (D. A. Bini, Numer.
    Algorithms 13, 1996): a point at 0 for each root there, and for each
    edge (i, j) of the upper convex hull of the points (k, log|a_k|),
    j - i points on a circle about which the moduli of j - i roots
    cluster, of radius (|a_i| / |a_j|)^(1 / (j - i)).  The circles'
    angles are offset by 2 pi / n per edge and by 0.7, so no point is
    real.  Every radius is taken 0.9 times: a self-reciprocal
    polynomial's middle edge gives the unit circle, and from points on it
    the sweeps of a Salem polynomial such as x^4 - x^3 - x^2 - x + 1 need
    38, against 7 from inside it.  OverflowError when a radius does not
    fit a float."""
    n = p.degree
    pts = [(k, math.log(abs(c))) for k, c in enumerate(p.coeffs) if c]
    hull = []
    for q in pts:
        # drop the last vertex while it lies on or below the chord to q
        while len(hull) > 1 and (
            (hull[-1][0] - hull[-2][0]) * (q[1] - hull[-2][1])
            >= (hull[-1][1] - hull[-2][1]) * (q[0] - hull[-2][0])
        ):
            hull.pop()
        hull.append(q)
    start = [0j] * pts[0][0]
    for e, ((i, a), (j, b)) in enumerate(zip(hull, hull[1:])):
        r, m = 0.9 * math.exp((a - b) / (j - i)), j - i
        start += [r * cmath.exp(2j * math.pi * (k / m + e / n) + 0.7j) for k in range(m)]
    return start


def _float_seed(p: IntPoly):
    """Approximate roots from Aberth sweeps in hardware floats, started
    from _polygon_start(p), Bini's points on the Newton-polygon circles;
    None on overflow, a non-finite value, a zero derivative, coincident
    approximations or no convergence, and the fixed-point sweeps from
    _circle_start take over."""
    n = p.degree
    desc = [p.coeffs[-1 - i] for i in range(n + 1)]
    try:
        fp = [float(c) for c in desc]
        fdp = [float(c * (n - i)) for i, c in enumerate(desc[:-1])]
        zs, converged = _aberth(fp, fdp, _polygon_start(p), 1e-13, None, _START_SWEEPS)
    except OverflowError:
        return None
    if not converged or not all(cmath.isfinite(z) for z in zs):
        return None
    return zs


def _circle_start(p: IntPoly, s: int):
    """n start points of modulus 0.7 cauchy_bound(p), as fixed-point pairs
    over 2^s: the odd powers u^(2k+1) of u = (3 + 4i)/5, whose argument is
    no rational multiple of pi, so no two points coincide and none is
    real."""
    r = Fraction(7, 10) * cauchy_bound(p)
    num, den = r.numerator << s, r.denominator
    pts = []
    x, y = 3, 4  # (3 + 4i)^(2k+1) = x + iy over 5^(2k+1)
    for k in range(p.degree):
        d = den * 5 ** (2 * k + 1)
        pts.append((x * num // d, y * num // d))
        x, y = (x * -7 - y * 24, x * 24 + y * -7)  # times (3 + 4i)^2 = -7 + 24i
    return pts


def _certified_balls(p: IntPoly, pts, prec):
    """Exact Weierstrass disks around the approximations, integer pairs
    over 2^(prec + 16).

    Root i lies within n*|p(z_i) / (lc * prod_{j!=i}(z_i - z_j))| of z_i,
    and pairwise disjoint disks each hold exactly one root.  Returns the
    disks, or None when disjointness fails at this precision.
    """
    n = p.degree
    lc = p.lc
    # centers are integers over 2^shift, radii are rounded up to 2^-(prec+8)
    shift = prec + 16
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


def _radii_within(balls, eps: Fraction) -> bool:
    """Whether every disk has radius at most eps, compared on integers."""
    n, d = eps.numerator, eps.denominator
    return all(
        (b._rad << max(b._exp, 0)) * d <= n << max(-b._exp, 0) for b in balls
    )


class _Isolation:
    """Adaptive-precision isolation state for one squarefree polynomial.

    Approximations are integer pairs over 2^(prec + 16).  Each refinement
    runs Newton from the current ones.  Aberth sweeps on the same integers
    run from the circle start when the float seeds or Newton fail, and
    from the current approximations, briefly, when these did not
    certify at the last precision.  Ball order is fixed forever by the
    first successful certification; later refinements are matched back
    onto it, so an index names one true root for the lifetime of the
    state.
    """

    def __init__(self, p: IntPoly):
        self.p = p
        self.prec = 128
        seed = _float_seed(p)
        shift = self.prec + 16
        if seed is None:
            self.zs = _circle_start(p, shift)
        else:
            self.zs = [(_scaled(z.real, shift), _scaled(z.imag, shift)) for z in seed]
        # float seeds are certified as they are before any refinement
        self._sweep = seed is None
        # Aberth sweeps the next refinement runs; 0 runs Newton
        self._aberth = _START_SWEEPS if seed is None else 0
        self.balls = None
        n = p.degree
        self._desc = tuple(p.coeffs[-1 - i] for i in range(n + 1))
        self._ddesc = tuple(c * (n - i) for i, c in enumerate(self._desc[:-1]))

    def _refine(self):
        desc, ddesc, prec = self._desc, self._ddesc, self.prec
        if self._aberth:
            zs = _fixed_aberth(desc, ddesc, self.zs, prec, self._aberth)
        else:
            zs = _newton(desc, ddesc, self.zs, prec)
            if zs is None:
                start = _circle_start(self.p, prec + 16)
                zs = _fixed_aberth(desc, ddesc, start, prec, _START_SWEEPS)
        self._aberth = 0
        self.zs = zs

    def ensure(self, eps: Fraction):
        eps = Fraction(eps)
        while True:
            if self.balls is not None and _radii_within(self.balls, eps):
                return self.balls
            if self._sweep:
                self._refine()
            cand = _certified_balls(self.p, self.zs, self.prec)
            if cand is not None and _radii_within(cand, eps):
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
                # the seeds did not certify: refine before doubling
                self._sweep = True
                continue
            # approximations that do not certify go to Aberth sweeps
            self._aberth = _RESWEEPS if cand is None else 0
            if self.prec >= _MAX_PREC:
                p = self.p
                height = max(abs(c) for c in p.coeffs).bit_length()
                raise PrecisionExhausted(
                    f"isolation undecided at {self.prec} bits, the cap, for a degree-{p.degree}"
                    f" polynomial with coefficients of up to {height} bits"
                )
            self.zs = [(a << self.prec, b << self.prec) for a, b in self.zs]
            self.prec *= 2

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
# exact modulus ties


def _modsq_resolvent(p: IntPoly, real: bool) -> IntPoly:
    """A polynomial with lc(p)^2 |z|^2 among its roots for every real root
    z of p (real=True) or every nonreal one: the roots of the monic
    q(x) = lc^(n-1) p(x / lc) are lc z, and |lc z|^2 is the square of a
    real one or the product of a nonreal one with its conjugate."""
    n, lc = p.degree, p.lc
    q = IntPoly(tuple(c * lc ** (n - 1 - i) for i, c in enumerate(p.coeffs[:-1])) + (1,))
    return square_value_poly(q) if real else exterior_resolvent(q, 2)


def _modsq_radical(parts) -> IntPoly:
    """The squarefree part of the product of the _modsq_resolvent of each
    (polynomial, real) part, up to a constant factor.  Each modulus
    square of a tie is a repeated root of that product, so no mod-p
    squarefree witness is tried."""
    r = IntPoly.constant(1)
    for p, real in parts:
        r = r * _modsq_resolvent(p, real)
    return r.div_exact(poly_gcd(r, r.derivative()))


def _same_root(s: IntPoly, intervals, refine, stage: str) -> bool:
    """Whether two real values, each a root of the squarefree s, are equal.
    intervals() gives a rational [lo, hi] around each; refine() narrows
    them.

    Disjoint intervals answer False.  Where s changes sign across the hull
    [m - h, m + h] of both and |s'(m)| > h max|s''| on the hull, s is
    monotone there with one root, which both values are: True."""
    ds = s.derivative()
    d2 = [abs(c) for c in ds.derivative().coeffs]

    def decide():
        (a, b), (c, d) = intervals()
        if b < c or d < a:
            return False
        lo, hi = min(a, c), max(b, d)
        if lo == hi:
            return True
        # widen the hull onto a grid of about 2^-8 of its width
        w = hi - lo
        unit = _frac(1, w.numerator.bit_length() - w.denominator.bit_length() - 8)
        lo, hi = unit * math.floor(lo / unit), unit * math.ceil(hi / unit)
        ends = [_hvalue(s.coeffs, x.numerator, x.denominator) for x in (lo, hi)]
        if ends[0] * ends[1] >= 0:
            return None
        m, h = (lo + hi) / 2, (hi - lo) / 2
        # |s'(m)| den^deg s' against h * (an integer bound on |s''| for |x| <= r)
        x = max(-lo, hi)
        r = max(1, -(-x.numerator // x.denominator))
        bound = sum(c * r**k for k, c in enumerate(d2))
        slope = _hvalue(ds.coeffs, m.numerator, m.denominator)
        if abs(slope) * h.denominator > h.numerator * bound * m.denominator ** ds.degree:
            return True
        return None

    return refine_until(decide, refine, stage)


def _compare_moduli(intervals, radical, refine, scale=1, narrow=None) -> int:
    """-1 / 0 / +1 comparing two moduli, exact.  intervals() gives a
    rational [lo, hi] around each modulus; refine() may narrow them, on a
    schedule of its own.  Moduli still overlapping after six rounds may be
    equal: they are when both scale * |z|^2 are one root of the squarefree
    radical(), which the tie test decides, calling narrow() (by default
    refine()) between its rounds.  narrow() must narrow the intervals on
    every call, or the tie test spends its rounds on no-ops."""
    rounds = itertools.count()

    def decide():
        (lo_a, hi_a), (lo_b, hi_b) = intervals()
        if hi_a < lo_b:
            return -1
        if hi_b < lo_a:
            return 1
        if next(rounds) == 6 and _same_root(
            radical(),
            lambda: [(scale * lo * lo, scale * hi * hi) for lo, hi in intervals()],
            narrow or refine,
            "modulus order",
        ):
            return 0
        return None

    return refine_until(decide, refine, "modulus order")


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
        ones.
        """
        eps = self.eps / 16 if eps is None else Fraction(eps)
        if eps < self.eps:
            self.roots = _presentation(self._state, self._order, eps)
            self.eps = eps


class RootStore(dict):
    """One RootSystem per squarefree polynomial, isolated at 2^-24 on first
    request and refined in place by every reader, and one factorization
    per polynomial, made on first request; an analysis owns one."""

    def __init__(self, systems=(), factored=()):
        super().__init__(systems)
        self._factored = dict(factored)

    def __missing__(self, p: IntPoly) -> RootSystem:
        rs = self[p] = isolate_roots(p, Fraction(1, 1 << 24))
        return rs

    def factors(self, p: IntPoly) -> FactorList:
        """factor_over_z(p), made once per store."""
        if p not in self._factored:
            self._factored[p] = factor_over_z(p)
        return self._factored[p]


def _checked_level(m: int) -> int:
    if m > _MAX_PREC:
        raise PrecisionExhausted(f"{m} bits asked for, beyond {_MAX_PREC}")
    return m


def _eps_level(eps: Fraction) -> int:
    """Smallest m >= 4 with 2^-m <= eps: 2^m must reach ceil(1 / eps)."""
    num, den = eps.numerator, eps.denominator
    return _checked_level(max(4, (-(-den // num) - 1).bit_length()))


def _presentation(state: _Isolation, order, eps: Fraction):
    """Public disks: radius 2^-m with centers snapped to the 2^-(m+3)
    grid, m the level of eps or, for roots too close to be told apart
    there, the first finer level at which the snapped disks are disjoint.
    The disks then do not depend on how the approximations were found,
    and halving eps shrinks each disk inside its predecessor."""
    m = _eps_level(eps)
    while True:
        balls = state.ensure(Fraction(1, 1 << (m + 5)))
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
        if good:
            return tuple(snapped[o] for o in order)
        m = _checked_level(m + 1)


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


_CLASS_RANK = {"lt1": 0, "eq1": 1, "gt1": 2}


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
    return sorted(range(n), key=cmp_to_key(_root_comparison(p, state, conj, classes))), (
        "modulus-then-conjugate"
    )


def _root_comparison(p, state, conj, classes):
    """The exact order of roots by (modulus class, modulus, real part),
    positive imaginary part first within a conjugate pair.

    Two roots of one pair share modulus and real part, and a pair's disks
    lie off the real axis, so their centers' imaginary signs are
    certified.  Distinct pairs and real roots are compared on disks of
    radius at most 2^-(24 + k) in round k; moduli still overlapping after
    six rounds may be equal, and are then decided in the resolvent whose
    roots include lc^2 |z|^2.  Equal moduli go by the real part, which
    differs for distinct roots that are not conjugate."""
    level = 24
    decided = {}
    radicals = {}
    intervals = {}

    def refine():
        nonlocal level
        level += 1
        state.ensure(Fraction(1, 1 << level))

    def narrow():
        # one bit below the widest disk: refine() does nothing while the
        # disks are finer than 2^-level, and raising level on every round
        # would double the precision on every comparison
        state.ensure(max(b.rad for b in state.balls) / 2)

    def modulus(i):
        b = state.balls[i]
        if intervals.get(i, (None,))[0] is not b:
            intervals[i] = (b, b.modulus_interval())
        return intervals[i][1]

    def by_modulus(i, j):
        kinds = frozenset(conj[k] == k for k in (i, j))

        def radical():
            if kinds not in radicals:
                radicals[kinds] = _modsq_radical((p, real) for real in sorted(kinds))
            return radicals[kinds]

        return _compare_moduli(
            lambda: (modulus(i), modulus(j)), radical, refine, p.lc * p.lc, narrow
        )

    def by_real_part(i, j):
        def decide():
            b, c = state.balls[i], state.balls[j]
            if b.re + b.rad < c.re - c.rad:
                return -1
            if c.re + c.rad < b.re - b.rad:
                return 1
            return None

        return refine_until(decide, refine, "real-part order")

    def compare(i, j):
        if i == j:
            return 0
        if conj[i] == j:
            return -1 if state.balls[i]._im > 0 else 1
        # pairs share modulus and real part: compare one member of each
        key = (min(i, conj[i]), min(j, conj[j]))
        if key not in decided:
            c = _CLASS_RANK[classes[i]] - _CLASS_RANK[classes[j]]
            if c == 0 and classes[i] != "eq1":
                c = by_modulus(*key)
            c = c or by_real_part(*key)
            decided[key], decided[key[::-1]] = c, -c
        return decided[key]

    return compare


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


def _zero_free(g: IntPoly, ball: ComplexBall) -> bool:
    """Whether g certainly has no zero in the disk, by the mean value
    inequality: |g(z) - g(c)| <= r max|g'| on a disk (c, r), and
    |g'| <= sum k |a_k| (|c| + r)^(k - 1) there, so
    |g(c)| > r sum k |a_k| (|c| + r)^(k - 1) leaves no zero.

    The disk is (C, R) 2^e on integers (e raised to 0 when positive), and
    both sides times D^n, D = 2^-e, n = deg g, are integers: D^n g(c) by
    homogeneous Horner over the Gaussian integers, and the right side with
    |C| + R bounded by ceil|C| + R.  Their squares are compared."""
    x, y, r, e = ball._re, ball._im, ball._rad, ball._exp
    if e > 0:
        x, y, r, e = x << e, y << e, r << e, 0
    d = 1 << -e
    cs = g.coeffs
    n = len(cs) - 1
    s = x * x + y * y
    m = math.isqrt(s)
    m += (m * m != s) + r  # at least |C| + R
    vr, vi, w, dk = cs[n], 0, n * abs(cs[n]), 1
    for k in range(n - 1, -1, -1):
        dk *= d  # D^(n - k)
        vr, vi = vr * x - vi * y + cs[k] * dk, vr * y + vi * x
        if k:
            w = w * m + k * abs(cs[k]) * dk
    return vr * vr + vi * vi > (r * w) ** 2


def _owner(value: CertValue, factors: FactorList) -> int:
    """The index of the irreducible factor that has value, a root of the
    factored polynomial, as a root: the one factor left when every other
    is certified zero-free on the value's disk (_zero_free).

    Each round quarters a target radius and shrinks the value to it; a
    factor zero-free on one disk of the value stays excluded.  Distinct
    irreducible factors share no root, so one factor is left in the end.
    Raises VerificationFailed when every factor is zero-free on the disk,
    Ambiguous when the value cannot shrink, PrecisionExhausted when the
    rounds run out.
    """
    target = Fraction(1, 1 << 24)
    left = list(enumerate(f for f, _m in factors))

    def decide():
        left[:] = [(fi, f) for fi, f in left if not _zero_free(f, value.ball)]
        if not left:
            raise VerificationFailed("a value is a root of no factor")
        return left[0][0] if len(left) == 1 else None

    def refine():
        nonlocal target
        target = target / 4
        if not value.shrink(target):
            raise Ambiguous("values cannot be separated further")

    return refine_until(decide, refine, "value location")


def certify_value_match(values, factors: FactorList):
    """The owner of each value: the index of the irreducible factor of a
    factored polynomial that has it as a root (_owner).

    values: CertValue or plain ComplexBall items whose true values form,
    with multiplicity, the root multiset of the factorization.
    factors: FactorList; a factor of degree d and multiplicity k must own
    d k of the values.  Raises VerificationFailed when the counts do not
    hold or a value provably is a root of no factor, Ambiguous or
    PrecisionExhausted when separation stalls.
    """
    total = sum(f.degree * m for f, m in factors)
    if total != len(values):
        raise VerificationFailed(
            f"value count {len(values)} does not match total root count {total}"
        )
    owners = [_owner(v if isinstance(v, CertValue) else CertValue(v), factors) for v in values]
    loads = Counter(owners)
    for fi, (f, mult) in enumerate(factors):
        if loads[fi] != f.degree * mult:
            raise VerificationFailed(
                f"a factor of degree {f.degree} and multiplicity {mult} owns"
                f" {loads[fi]} values, expected {f.degree * mult}"
            )
    return owners
