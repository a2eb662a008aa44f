"""Exact univariate polynomial arithmetic over ZZ and QQ.

Coefficients are stored ascending by degree (index 0 = constant term),
the canonical form has no trailing zero, and the zero polynomial is the
empty tuple.  Everything here is pure and exact; floats never appear.
"""

from __future__ import annotations

import itertools
import math
import random
import struct
from dataclasses import dataclass
from fractions import Fraction

from .exceptions import (
    BadRank,
    ConstantPolynomial,
    EndpointIsRoot,
    InputError,
    NotCoprime,
    NotMonic,
    NotReciprocal,
    OddDegree,
    VerificationFailed,
)


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, coefficients ascending.

    >>> IntPoly((1, 3, 1)).degree
    2
    >>> IntPoly.parse("1,3,5,5,5,3,1").is_reciprocal()
    True
    """

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))
        if any(not isinstance(c, int) for c in self.coeffs):
            raise InputError("integer coefficients required")

    # ---- construction / rendering ----

    @staticmethod
    def parse(text: str) -> "IntPoly":
        text = text.replace("−", "-").strip()
        if not text:
            raise InputError("empty polynomial string")
        try:
            return IntPoly(tuple(int(part.strip()) for part in text.split(",")))
        except ValueError as exc:
            raise InputError(f"bad polynomial literal: {text!r}") from exc

    def format(self) -> str:
        if self.is_zero():
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    def __str__(self):
        return self.format()

    @staticmethod
    def x_power(k: int) -> "IntPoly":
        return IntPoly((0,) * k + (1,))

    @staticmethod
    def constant(c: int) -> "IntPoly":
        return IntPoly((c,))

    # ---- basic queries ----

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if self.is_zero():
            return 0
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return self.lc == 1

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # ---- arithmetic ----

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(tuple(self[i] + other[i] for i in range(n)))

    def __sub__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(tuple(self[i] - other[i] for i in range(n)))

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise InputError(f"negative exponent {e}: integer polynomials are not inverted")
        result = IntPoly((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def evaluate(self, x):
        """Horner evaluation; exact for int and Fraction arguments."""
        acc = 0 if isinstance(x, int) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def negate_variable(self) -> "IntPoly":
        """p(-t)."""
        return IntPoly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)))

    def reverse(self) -> "IntPoly":
        """t^deg * p(1/t); requires nonzero constant term to preserve degree."""
        return IntPoly(tuple(reversed(self.coeffs)))

    def is_reciprocal(self) -> bool:
        if self.is_zero():
            return False
        return self.coeffs == tuple(reversed(self.coeffs))

    def content(self) -> int:
        return math.gcd(*[abs(c) for c in self.coeffs]) if self.coeffs else 0

    def primitive(self) -> "IntPoly":
        c = self.content()
        if c in (0, 1):
            return self
        return IntPoly(tuple(v // c for v in self.coeffs))

    def divmod_exact(self, other: "IntPoly"):
        """Long division in ZZ[t]; ArithmeticError unless the quotient and
        remainder over QQ are integral."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        qr = _zdivmod(self.coeffs, other.coeffs)
        if qr is None:
            raise ArithmeticError("non-integer coefficients")
        return IntPoly(tuple(qr[0])), IntPoly(tuple(qr[1]))

    def div_exact(self, other: "IntPoly") -> "IntPoly":
        q, r = self.divmod_exact(other)
        if not r.is_zero():
            raise ArithmeticError(f"inexact division of {self} by {other}")
        return q

    def divides(self, other: "IntPoly") -> bool:
        if self.is_zero():
            return other.is_zero()
        qr = _zdivmod(other.coeffs, self.coeffs)
        return qr is not None and not qr[1]

    # ---- reciprocal / trace transforms ----

    def trace_polynomial(self) -> "IntPoly":
        """The monic q of degree k with p(t) = t^k q(t + 1/t)."""
        if not self.is_monic():
            raise NotMonic(str(self))
        if self.degree % 2 != 0 or self.degree <= 0:
            raise OddDegree(str(self))
        if not self.is_reciprocal():
            raise NotReciprocal(str(self))
        k = self.degree // 2
        a = self.coeffs
        # P_j(s) = t^j + t^-j obeys P_0 = 2, P_1 = s, P_j = s P_{j-1} - P_{j-2};
        # p / t^k = a_k + sum_{j>=1} a_{k+j} P_j(s).
        p_prev = IntPoly((2,))
        p_cur = IntPoly((0, 1))
        q = IntPoly((a[k],))
        for j in range(1, k + 1):
            q = q + a[k + j] * p_cur
            if j < k:
                p_prev, p_cur = p_cur, IntPoly((0, 1)) * p_cur - p_prev
        return q

    @staticmethod
    def from_trace(q: "IntPoly") -> "IntPoly":
        """t^k q(t + 1/t) for monic q of degree k; inverse of trace_polynomial."""
        if not q.is_monic():
            raise NotMonic(str(q))
        k = q.degree
        if k < 1:
            raise ConstantPolynomial(str(q))
        t2p1 = IntPoly((1, 0, 1))
        out = IntPoly(())
        for j, c in enumerate(q.coeffs):
            if c:
                out = out + c * (IntPoly.x_power(k - j) * t2p1 ** j)
        return out


def _coerce(v) -> IntPoly:
    if isinstance(v, IntPoly):
        return v
    if isinstance(v, int):
        return IntPoly((v,))
    raise TypeError(type(v))


# ---------------------------------------------------------------------------
# integer kernels (coefficient lists, ascending, trimmed)


def _zdivmod(a, b):
    """Long division over ZZ by nonzero trimmed b: (q, r) with a = q*b + r
    and deg r < deg b, or None as soon as lc(b) does not divide a leading
    term, which is exactly when the quotient over QQ is not integral."""
    r = list(a)
    nb = len(b) - 1
    lc = b[-1]
    q = [0] * max(0, len(r) - nb)
    for d in range(len(r) - nb - 1, -1, -1):
        c = r.pop()
        if c:
            c, rem = divmod(c, lc)
            if rem:
                return None
            q[d] = c
            for i in range(nb):
                r[d + i] -= c * b[i]
    return q, _mtrim(r)


def _pdivmod(a, b):
    """Pseudo-division over ZZ of a by nonzero b, deg a >= deg b: (q, r)
    with lc(b)^(deg a - deg b + 1) * a = q*b + r and deg r < deg b.  The
    pseudo-remainder r is that power of lc(b) times the remainder over QQ."""
    r = list(a)
    nb = len(b) - 1
    lc = b[-1]
    q = [0] * (len(r) - nb)
    for d in range(len(r) - nb - 1, -1, -1):
        c = r.pop()
        for i in range(d + 1, len(q)):
            q[i] *= lc
        q[d] = c
        for i in range(d):
            r[i] *= lc
        for i in range(nb):
            r[d + i] = r[d + i] * lc - c * b[i]
    return q, _mtrim(r)


def _primitive_part(a):
    """a divided by its (positive) content."""
    c = math.gcd(*a)
    return a if c == 1 else [x // c for x in a]


def _hvalue(a, num: int, den: int) -> int:
    """den^deg(a) * a(num/den) for den > 0: an integer with the sign of
    a(num/den)."""
    v = 0
    w = 1
    for c in reversed(a):
        v = v * num + c * w
        w *= den
    return v


def _xi_digits(v: int, xi: int):
    """The polynomial whose value at xi is v, with coefficients the
    symmetric xi-adic digits of v, in (-xi/2, xi/2]."""
    out = []
    while v:
        d = v % xi
        if 2 * d > xi:
            d -= xi
        out.append(d)
        v = (v - d) // xi
    return out


_HEU_TRIES = 6


def _gcd_primitive(f, g):
    """gcd of nonzero primitive f, g: primitive, positive leading coefficient.

    GCDHEU (B. W. Char, K. O. Geddes, G. H. Gonnet, J. Symbolic Comput.
    7(1), 1989): the candidate h is the primitive part of the symmetric
    xi-adic digits of gcd(f(xi), g(xi)).  Once h divides f and g over ZZ
    it is the gcd: the cofactors then have gcd(cf(xi), cg(xi)) =
    content(digits) <= xi/2, while a nonconstant common factor k of theirs
    has roots of modulus below B = 1 + |f|_inf/|lc f| (Cauchy) and so
    |k(xi)| > (xi - B)^deg k >= xi/2 once xi >= 2B, which the start
    xi = 2 floor(|f|_inf/|lc f|) + 4 (or the same for g) and every later
    xi satisfy.  After _HEU_TRIES failed xi, a primitive pseudo-remainder
    sequence decides."""
    if len(f) == 1 or len(g) == 1:
        return [1]
    xi = 2 * min(max(map(abs, f)) // abs(f[-1]), max(map(abs, g)) // abs(g[-1])) + 4
    for _ in range(_HEU_TRIES):
        h = _primitive_part(_xi_digits(math.gcd(_hvalue(f, xi, 1), _hvalue(g, xi, 1)), xi))
        if h[-1] < 0:
            h = [-c for c in h]
        fq = _zdivmod(f, h)
        if fq is not None and not fq[1]:
            gq = _zdivmod(g, h)
            if gq is not None and not gq[1]:
                return h
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return _prs_gcd(f, g)


def _prs_gcd(f, g):
    """gcd of nonzero primitive f, g by the primitive pseudo-remainder
    sequence (W. S. Brown, J. ACM 18(4), 1971)."""
    a, b = (f, g) if len(f) >= len(g) else (g, f)
    while True:
        _, r = _pdivmod(a, b)
        if not r:
            break
        a, b = b, _primitive_part(r)
    b = _primitive_part(b)
    return b if b[-1] > 0 else [-c for c in b]


def gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd in ZZ[t], positive leading coefficient, times the gcd
    of the contents of two nonzero inputs."""
    if p.is_zero():
        return _pos_lc(q.primitive())
    if q.is_zero():
        return _pos_lc(p.primitive())
    result = IntPoly(tuple(_gcd_primitive(list(p.primitive().coeffs), list(q.primitive().coeffs))))
    cont = math.gcd(p.content(), q.content())
    return result * cont if cont > 1 else result


def _pos_lc(p: IntPoly) -> IntPoly:
    return -p if p.lc < 0 else p


# ---------------------------------------------------------------------------
# resultants, discriminants, Sturm counting


def resultant(p: IntPoly, q: IntPoly) -> int:
    """Resultant by the subresultant pseudo-remainder sequence over ZZ
    (G. E. Collins, J. ACM 14(1), 1967; W. S. Brown, J. F. Traub, J. ACM
    18(4), 1971): each pseudo-remainder divides exactly by g h^delta, g the
    leading coefficient of the previous divisor and h its subresultant
    one, so every coefficient stays an integer."""
    if p.is_zero() or q.is_zero():
        return 0
    if p.degree < q.degree:
        return (-1) ** (p.degree * q.degree) * resultant(q, p)
    a, b = list(p.coeffs), list(q.coeffs)
    sign = g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:  # both degrees odd
            sign = -sign
        _, r = _pdivmod(a, b)
        if not r:
            return 0
        div = g * h**delta
        a, b = b, [c // div for c in r]
        g = a[-1]
        h = g**delta // h ** (delta - 1) if delta else h
    d = len(a) - 1
    return sign * b[0] ** d // h ** max(d - 1, 0)


def discriminant(p: IntPoly) -> int:
    if p.degree < 1:
        raise ConstantPolynomial(str(p))
    d = p.degree
    sign = (-1) ** (d * (d - 1) // 2)
    return sign * resultant(p, p.derivative()) // p.lc


def _squarefree_mod(coeffs, ell: int) -> bool:
    """Whether a polynomial whose leading coefficient ell does not divide
    stays squarefree mod ell: coprime there to its derivative."""
    a = [c % ell for c in coeffs]
    return len(_mgcd(a, [i * c % ell for i, c in enumerate(a) if i], ell)) == 1


# A polynomial squarefree over QQ stays squarefree mod ell unless ell
# divides its discriminant, so one prime of this size settles nearly every
# squarefree input; one with a repeated factor fails at every prime, and
# the exact gcd then decides.
_WITNESS_PRIMES = (1009, 1013)


def _squarefree_mod_witness(p: IntPoly) -> bool:
    """True only with proof: p is squarefree because its image mod the
    first witness prime not dividing lc(p) is (a repeated factor h^2 of p
    would survive there, as lc(h) is prime to ell).  False means
    undecided."""
    for ell in _WITNESS_PRIMES:
        if p.lc % ell:
            return _squarefree_mod(p.coeffs, ell)
    return False


def squarefree_part(p: IntPoly) -> IntPoly:
    if p.degree < 1:
        return _pos_lc(p.primitive()) if not p.is_zero() else p
    if _squarefree_mod_witness(p):
        return _pos_lc(p.primitive())
    g = gcd(p, p.derivative())
    if g.degree == 0:
        return _pos_lc(p.primitive())
    return _pos_lc(p.div_exact(g).primitive())


def is_squarefree(p: IntPoly) -> bool:
    if p.degree < 1:
        return True
    if _squarefree_mod_witness(p):
        return True
    return gcd(p, p.derivative()).degree == 0


def yun_decomposition(p: IntPoly):
    """Squarefree decomposition: list of (factor, multiplicity), primitive,
    positive lc; product of factor^mult times the returned unit equals p."""
    if p.is_zero():
        return Fraction(0), []
    prim = _pos_lc(p.primitive())
    unit = Fraction(p.lc, prim.lc)
    out = []
    f = prim
    if f.degree < 1:
        return unit, out
    if _squarefree_mod_witness(f):
        return unit, [(f, 1)]
    a = gcd(f, f.derivative())
    if a.degree == 0:
        return unit, [(f, 1)]
    b = f.div_exact(a)
    c = f.derivative().div_exact(a)
    d = c - b.derivative()
    i = 1
    while True:
        a_i = gcd(b, d)
        if a_i.degree > 0:
            out.append((_pos_lc(a_i), i))
        b_next = b.div_exact(a_i)
        if b_next.degree == 0:
            break
        c_next = d.div_exact(a_i)
        b = b_next
        d = c_next - b.derivative()
        i += 1
    return unit, out


def cauchy_bound(p: IntPoly) -> Fraction:
    """1 + max |a_i / lc|; every root has modulus below this."""
    if p.degree < 1:
        raise ConstantPolynomial(str(p))
    lc = abs(p.lc)
    return 1 + max(Fraction(abs(c), lc) for c in p.coeffs[:-1])


def _sturm_chain(p: IntPoly):
    """Sturm sequence of p as primitive integer polynomials, each a positive
    multiple of p, p', -rem(p, p'), ...: a pseudo-remainder is lc^delta
    times the remainder over QQ, so its sign is flipped unless that power
    is negative, and only positive contents are divided out."""
    chain = [_primitive_part(list(p.coeffs)), _primitive_part(list(p.derivative().coeffs))]
    while True:
        a, b = chain[-2], chain[-1]
        _, r = _pdivmod(a, b)
        if not r:
            return chain
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = [-c for c in r]
        chain.append(_primitive_part(r))


def _sign_variations(chain, num: int, den: int) -> int:
    """Sign changes of the chain at num/den, den > 0, zeros skipped."""
    signs = [v > 0 for v in (_hvalue(c, num, den) for c in chain) if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(p: IntPoly, lo, hi) -> int:
    """Exact number of distinct real roots in the open interval (lo, hi)."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise InputError("need lo < hi")
    sf = squarefree_part(p)
    if sf.degree < 1:
        return 0
    ends = ((lo.numerator, lo.denominator), (hi.numerator, hi.denominator))
    if any(_hvalue(sf.coeffs, *e) == 0 for e in ends):
        raise EndpointIsRoot(f"{p} at ({lo}, {hi})")
    chain = _sturm_chain(sf)
    return _sign_variations(chain, *ends[0]) - _sign_variations(chain, *ends[1])


def count_real_roots(p: IntPoly) -> int:
    b = cauchy_bound(p) + 1
    return sturm_count(p, -b, b)


def real_root_enclosure(p: IntPoly, lo, hi, eps) -> tuple:
    """Shrink an isolating interval with a sign change to width <= eps.

    The interval must contain exactly one root of the squarefree part and
    neither endpoint may be a root.  The endpoints are held as integers
    a/den, b/den over one denominator, which each bisection doubles.
    """
    sf = squarefree_part(p).coeffs
    lo, hi, eps = Fraction(lo), Fraction(hi), Fraction(eps)
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    flo = _hvalue(sf, a, den)
    fhi = _hvalue(sf, b, den)
    if flo == 0 or fhi == 0:
        raise EndpointIsRoot(f"{p} at ({lo}, {hi})")
    if (flo > 0) == (fhi > 0):
        raise InputError("no sign change on the interval")
    while (b - a) * eps.denominator > eps.numerator * den:
        mid = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        fm = _hvalue(sf, mid, den)
        if fm == 0:
            root = Fraction(mid, den)
            return (root, root)
        if (fm > 0) == (flo > 0):
            a = mid
        else:
            b = mid
    return (Fraction(a, den), Fraction(b, den))


# ---------------------------------------------------------------------------
# composed products from power sums
#
# A polynomial whose roots are products of roots of monic integer
# polynomials has power sums read off theirs, and Newton's identities turn
# power sums back into coefficients with exact integer divisions (Bostan,
# Flajolet, Salvy, Schost, "Fast computation of special resultants",
# J. Symbolic Comput. 41, 2006).  They give the characteristic polynomials
# of wedge powers and Kronecker products of companion matrices without
# forming the matrices.


def power_sums(p: IntPoly, m: int) -> tuple:
    """(P_1, ..., P_m): P_j is the sum of the j-th powers of the roots of
    monic p, counted with multiplicity."""
    if not p.is_monic():
        raise NotMonic(str(p))
    n = p.degree
    c = p.coeffs
    s = [n]
    for k in range(1, m + 1):
        # Newton: P_k + sum_{i>=1} c_{n-i} P_{k-i} = 0, with k c_{n-k}
        # in place of c_{n-k} P_0 while k <= n
        acc = k * c[n - k] if k <= n else 0
        for i in range(1, min(k - 1, n) + 1):
            acc += c[n - i] * s[k - i]
        s.append(-acc)
    return tuple(s[1:])


def from_power_sums(s) -> IntPoly:
    """The monic polynomial of degree len(s) whose roots have the power
    sums s = (P_1, ..., P_N).  Each Newton step divides by k; a remainder
    means s are not the power sums of algebraic integers."""
    n = len(s)
    c = [0] * n + [1]
    for k in range(1, n + 1):
        acc = s[k - 1] + sum(c[n - i] * s[k - 1 - i] for i in range(1, k))
        q, r = divmod(acc, k)
        if r:
            raise VerificationFailed(f"Newton step {k} of {n} is not an exact division")
        c[n - k] = -q
    return IntPoly(tuple(c))


def taylor_shift(p: IntPoly, c: int) -> IntPoly:
    """p(t + c), by repeated synthetic division."""
    a = list(p.coeffs)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += c * a[j + 1]
    return IntPoly(tuple(a))


def exterior_resolvent(p: IntPoly, k: int) -> IntPoly:
    """The monic polynomial whose roots are the products of the k-subsets
    of the roots of monic p, the char poly of the k-th exterior power of
    its companion.  Its j-th power sum is e_k of the j-th powers of the
    roots, which Newton gives from P_j, P_2j, ..., P_kj; for k = 2 that is
    (P_j^2 - P_2j) / 2."""
    if not p.is_monic():
        raise NotMonic(str(p))
    n = p.degree
    if k < 1 or k > n:
        raise BadRank(f"exterior power {k} of a degree-{n} polynomial")
    size = math.comb(n, k)
    ps = power_sums(p, k * size)
    if k == 2:
        return from_power_sums([(ps[j - 1] ** 2 - ps[2 * j - 1]) // 2 for j in range(1, size + 1)])
    sign = (-1) ** k
    return from_power_sums(
        [sign * from_power_sums(ps[j - 1 : k * j : j]).coeffs[0] for j in range(1, size + 1)]
    )


def shifted_pair_resolvent(p: IntPoly, c: int) -> IntPoly:
    """The monic polynomial whose roots are a_i a_j + c (a_i + a_j), i < j,
    over the roots of monic p.  These are (a_i + c)(a_j + c) - c^2, so it
    is the exterior square of p(t - c) moved by c^2."""
    return taylor_shift(exterior_resolvent(taylor_shift(p, -c), 2), c * c)


def composed_product(f: IntPoly, g: IntPoly) -> IntPoly:
    """The monic polynomial whose roots are the products of a root of
    monic f and a root of monic g, the char poly of the Kronecker product
    of their companions; its power sums are P_j(f) P_j(g)."""
    n = f.degree * g.degree
    return from_power_sums([a * b for a, b in zip(power_sums(f, n), power_sums(g, n))])


def square_value_poly(f: IntPoly) -> IntPoly:
    """W with W(x^2) = +-f(x)f(-x); the roots of W are the squares of the
    roots of f."""
    h = f * f.negate_variable()
    for i in range(1, len(h.coeffs), 2):
        if h.coeffs[i] != 0:
            raise VerificationFailed("square resolvent is not even")
    w = IntPoly(tuple(h.coeffs[0::2]))
    if w.lc < 0:
        w = -w
    return w


# ---------------------------------------------------------------------------
# factorization over ZZ (Zassenhaus)


@dataclass(frozen=True)
class FactorList:
    """unit * prod(factor^mult) == the input, factors irreducible primitive
    with positive leading coefficient, sorted by (degree, coefficients)."""

    unit: Fraction
    factors: tuple  # of (IntPoly, int)

    def expand(self) -> IntPoly:
        acc = IntPoly((1,))
        for f, m in self.factors:
            acc = acc * f ** m
        num = acc * self.unit.numerator
        if self.unit.denominator != 1:
            raise ArithmeticError("cannot expand fractional unit to IntPoly")
        return num

    def degrees(self):
        return sorted(f.degree for f, m in self.factors for _ in range(m))

    def __iter__(self):
        return iter(self.factors)


def _odd_primes_below(n):
    sieve = bytearray([1]) * n
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(sieve[i * i :: i]))
    return tuple(i for i in range(3, n) if sieve[i])


_SMALL_PRIMES = _odd_primes_below(2000)


def _mtrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _mmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _mtrim(out)


def _mdivmod(a, b, p):
    a = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _mtrim(a):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * inv % p
        d = len(a) - len(b)
        q[d] = c
        for i in range(len(b)):
            a[d + i] = (a[d + i] - c * b[i]) % p
        a = _mtrim(a)
    return _mtrim(q), _mtrim(a)


def _mgcd(a, b, p):
    """Monic gcd in F_p[x]."""
    a, b = _mtrim(list(a)), _mtrim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        nb = len(b)
        while len(a) >= nb:
            c = a[-1] * inv % p
            d = len(a) - nb
            for i in range(nb):
                a[d + i] = (a[d + i] - c * b[i]) % p
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _msub(a, b, p):
    n = max(len(a), len(b))
    out = [( (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) ) % p for i in range(n)]
    return _mtrim(out)


_SLOT = 64  # bits per coefficient of a packed F_p[x] element


def _pack(coeffs) -> int:
    return int.from_bytes(struct.pack(f"<{len(coeffs)}Q", *coeffs), "little")


def _unpack(v: int, n: int):
    return struct.unpack(f"<{n}Q", v.to_bytes(8 * n, "little"))


class _ModRing:
    """F_p[x]/(f) for monic f of degree n >= 1.  An element is one integer
    holding its n coefficients in 64-bit slots (Kronecker substitution;
    J. von zur Gathen, J. Gerhard, Modern Computer Algebra, 8.4).  A
    product of two elements has slots at most n (p - 1)^2 < 2^64, so one
    big-integer multiply forms it with no carry between slots; its slots
    n + k, reduced mod p, are folded back through the packed rows
    x^(n + k) mod f, which keeps every slot under the same bound."""

    def __init__(self, f, p):
        n = len(f) - 1
        assert n * (p - 1) ** 2 < 1 << _SLOT, "F_p[x] products overflow a slot"
        self.n, self.p = n, p
        self.rows = []
        row = [-c % p for c in f[:-1]]  # x^n mod f
        for _ in range(n - 1):
            self.rows.append(_pack(row))
            top = row[-1]
            row = [0] + row[:-1]
            if top:
                row = [(x - top * c) % p for x, c in zip(row, f)]

    def coeffs(self, v):
        return _mtrim([c % self.p for c in _unpack(v, self.n)])

    def mulmod(self, u, v):
        n, p = self.n, self.p
        prod = [c % p for c in _unpack(u * v, 2 * n - 1)]
        acc = _pack(prod[:n])
        for c, row in zip(prod[n:], self.rows):
            if c:
                acc += c * row
        return _pack(self.coeffs(acc))

    def powmod(self, u, e):
        """u^e for e >= 1, by left-to-right square and multiply."""
        r = u
        for bit in bin(e)[3:]:
            r = self.mulmod(r, r)
            if bit == "1":
                r = self.mulmod(r, u)
        return r


def _ddf(f, p):
    """Distinct-degree factorization of monic squarefree f mod p:
    list of (d, product of the irreducible factors of degree d).
    h = x^(p^d) stays reduced mod f; each gcd is taken against the
    shrinking cofactor f*, which divides f."""
    out = []
    ring = _ModRing(f, p)
    fstar = list(f)
    h = _pack([0, 1])
    d = 0
    while len(fstar) - 1 >= 2 * (d + 1):
        d += 1
        h = ring.powmod(h, p)
        g = _mgcd(_msub(ring.coeffs(h), [0, 1], p), fstar, p)
        if len(g) - 1 > 0:
            out.append((d, g))
            fstar, _ = _mdivmod(fstar, g, p)
    if len(fstar) - 1 > 0:
        out.append((len(fstar) - 1, fstar))
    return out


def _edf(g, d, p, rng):
    """Cantor-Zassenhaus split of g (product of degree-d irreducibles)."""
    n = len(g) - 1
    if n == d:
        return [g]
    ring = _ModRing(g, p)
    exponent = (p ** d - 1) // 2
    while True:
        r = [rng.randrange(p) for _ in range(n)]
        r = _mtrim(r)
        if len(r) - 1 < 1:
            continue
        h = _msub(ring.coeffs(ring.powmod(_pack(r), exponent)), [1], p)
        w = _mgcd(h, g, p)
        if 0 < len(w) - 1 < n:
            rest, _ = _mdivmod(g, w, p)
            return _edf(w, d, p, rng) + _edf(rest, d, p, rng)


def _factor_mod_p(ddf, p, rng):
    """Sorted monic irreducible factors mod p of the polynomial whose
    distinct-degree factorization is ddf."""
    out = []
    for d, g in ddf:
        out.extend(_edf(g, d, p, rng))
    return sorted(out, key=lambda h: (len(h), h))


def _modinv(a, m):
    return pow(a % m, -1, m)


def _zmul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    return _mtrim(out)


def _zadd(a, b, m):
    n = max(len(a), len(b))
    return _mtrim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % m for i in range(n)])


def _zsub(a, b, m):
    n = max(len(a), len(b))
    return _mtrim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % m for i in range(n)])


def _zdivmod_monic(a, b, m):
    """Division by monic b in (Z/m)[x]."""
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _mtrim(list(a)):
        if a[-1] % m == 0:
            a.pop()
            continue
        c = a[-1] % m
        d = len(a) - len(b)
        q[d] = c
        for i in range(len(b)):
            a[d + i] = (a[d + i] - c * b[i]) % m
        while a and a[-1] % m == 0:
            a.pop()
    return _mtrim(q), _mtrim(a)


def _hensel_step(f, g, h, s, t, m):
    """One quadratic Hensel step: inputs valid mod m, outputs valid mod m^2.

    Requires f = g*h (mod m), s*g + t*h = 1 (mod m), h monic,
    deg s < deg h, deg t < deg g.
    """
    M = m * m
    e = _zsub([c % M for c in f], _zmul(g, h, M), M)
    q, r = _zdivmod_monic(_zmul(s, e, M), h, M)
    g1 = _zadd(_zadd(g, _zmul(t, e, M), M), _zmul(q, g, M), M)
    h1 = _zadd(h, r, M)
    b = _zsub(_zadd(_zmul(s, g1, M), _zmul(t, h1, M), M), [1], M)
    c, d = _zdivmod_monic(_zmul(s, b, M), h1, M)
    s1 = _zsub(s, d, M)
    t1 = _zsub(_zsub(t, _zmul(t, b, M), M), _zmul(c, g1, M), M)
    return g1, h1, s1, t1


def _poly_bezout_mod_p(g, h, p):
    """s, t with s*g + t*h = 1 mod p for coprime g, h."""
    r0, r1 = [c % p for c in g], [c % p for c in h]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while _mtrim(list(r1)):
        q, r = _mdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _msub(s0, _mmul(q, s1, p), p)
        t0, t1 = t1, _msub(t0, _mmul(q, t1, p), p)
    inv = _modinv(r0[0], p)
    s = [c * inv % p for c in s0]
    t = [c * inv % p for c in t0]
    return s, t


def _hensel_lift_pair(f, g0, h0, p, target):
    """Lift f = g0*h0 (mod p), h0 monic, to modulus m >= target (m = p^{2^j})."""
    s, t = _poly_bezout_mod_p(g0, h0, p)
    g, h = [c % p for c in g0], [c % p for c in h0]
    m = p
    while m < target:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m = m * m
    return g, h, m


def _multifactor_hensel(f, factors, p, target):
    """f = lc(f) * prod(factors) mod p, factors monic mod p.

    Returns (lifted monic factors mod m, m) with m >= target.
    """
    if len(factors) == 1:
        m = p
        while m < target:
            m = m * m
        inv = _modinv(f[-1], m)
        return [[c * inv % m for c in f]], m
    mid = len(factors) // 2
    g0 = [f[-1] % p]
    for fac in factors[:mid]:
        g0 = _mmul(g0, fac, p)
    h0 = [1]
    for fac in factors[mid:]:
        h0 = _mmul(h0, fac, p)
    g, h, m = _hensel_lift_pair(f, g0, h0, p, target)
    left, _ = _multifactor_hensel(g, factors[:mid], p, m)
    right, _ = _multifactor_hensel(h, factors[mid:], p, m)
    return left + right, m


def _sym(x, m):
    x %= m
    return x - m if 2 * x > m else x


def _norm2_sq(p: IntPoly) -> int:
    return sum(c * c for c in p.coeffs)


def _subset_sums(degrees):
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def _usable_primes(f: IntPoly):
    for p in _SMALL_PRIMES:
        if f.lc % p and _squarefree_mod(f.coeffs, p):
            yield p


def _factor_squarefree_primitive(f: IntPoly):
    """Irreducible factors of a primitive squarefree f, deg >= 1."""
    if f.degree == 1:
        return [_pos_lc(f)]
    rng = random.Random("zassenhaus:" + f.format())
    trials = []
    allowed = None
    for p in itertools.islice(_usable_primes(f), 15):
        fp = [c % p for c in f.coeffs]
        inv = _modinv(fp[-1], p)
        ddf = _ddf([c * inv % p for c in fp], p)
        pattern = []
        for d, g in ddf:
            pattern.extend([d] * ((len(g) - 1) // d))
        trials.append((len(pattern), p, ddf))
        sums = _subset_sums(pattern)
        allowed = sums if allowed is None else (allowed & sums)
        if not any(0 < s < f.degree for s in allowed):
            return [_pos_lc(f)]  # degree patterns certify irreducibility
        if len(pattern) <= 3:
            break
    if not trials:
        raise RuntimeError("no usable prime for modular factorization")
    _, p, ddf = min(trials, key=lambda t: t[:2])
    modular = _factor_mod_p(ddf, p, rng)
    # Landau-Mignotte style bound on any factor's coefficients, times lc(f).
    bound = (1 << f.degree) * math.isqrt(_norm2_sq(f)) * abs(f.lc) + 1
    lifted, m = _multifactor_hensel([c for c in f.coeffs], modular, p, 2 * bound + 1)
    return _recombine(f, lifted, m, allowed)


def _recombine(f: IntPoly, lifted, m, allowed):
    found = []
    remaining = list(range(len(lifted)))
    cur = f
    tails = {i: lifted[i][0] % m for i in remaining}
    degs = {i: len(lifted[i]) - 1 for i in remaining}
    s = 1
    while 2 * s <= len(remaining):
        hit = False
        for combo in itertools.combinations(remaining, s):
            dsum = sum(degs[i] for i in combo)
            if allowed is not None and dsum not in allowed:
                continue
            lc = cur.lc % m
            tail = lc
            for i in combo:
                tail = tail * tails[i] % m
            tail = _sym(tail, m)
            if tail == 0 or (cur.lc * cur.constant_term()) % tail != 0:
                continue
            prod = [cur.lc % m]
            for i in combo:
                prod = _zmul(prod, lifted[i], m)
            cand = IntPoly(tuple(_sym(c, m) for c in prod)).primitive()
            cand = _pos_lc(cand)
            if cand.degree >= 1 and cand.divides(cur):
                found.append(cand)
                cur = cur.div_exact(cand).primitive()
                remaining = [i for i in remaining if i not in combo]
                hit = True
                break
        if not hit:
            s += 1
    if cur.degree >= 1:
        found.append(_pos_lc(cur.primitive()))
    return found


def factor_over_z(p: IntPoly) -> FactorList:
    """Complete irreducible factorization over ZZ, deterministic output."""
    if p.is_zero():
        return FactorList(Fraction(0), ())
    if p.degree == 0:
        return FactorList(Fraction(p.coeffs[0]), ())
    cont = p.content()
    sign = 1 if p.lc > 0 else -1
    work = IntPoly(tuple(sign * c // cont for c in p.coeffs))
    factors = {}
    # pull out powers of t first so the squarefree machinery never sees a
    # factor of t
    shift = 0
    while work.coeffs[0] == 0:
        shift += 1
        work = IntPoly(work.coeffs[1:])
    if shift:
        factors[IntPoly((0, 1))] = shift
    _, sqf = yun_decomposition(work)
    for part, mult in sqf:
        for irr in _factor_squarefree_primitive(part):
            factors[irr] = factors.get(irr, 0) + mult
    ordered = tuple(sorted(factors.items(), key=lambda kv: (kv[0].degree, kv[0].coeffs)))
    return FactorList(Fraction(sign * cont), ordered)


def is_irreducible(p: IntPoly) -> bool:
    if p.degree < 1:
        return False
    prim = _pos_lc(p.primitive())
    if prim.degree != p.degree:
        return False
    fl = factor_over_z(prim)
    return len(fl.factors) == 1 and fl.factors[0][1] == 1 and abs(p.content()) == 1


# ---------------------------------------------------------------------------
# extended gcd over the rationals with cleared denominators


def _cofactor_step(u, c, q, v):
    """u*c - q*v for coefficient lists u, v, q and an integer c, trimmed."""
    out = [x * c for x in u] + [0] * (len(q) + len(v) - 1 - len(u))
    for i, x in enumerate(q):
        if x:
            for j, y in enumerate(v):
                out[i + j] -= x * y
    return _mtrim(out)


def ext_gcd_rational(f1: IntPoly, f2: IntPoly):
    """(h1, h2, N) with h1*f1 + h2*f2 = N, integer polynomials, N nonzero.

    The triple is the primitive integer multiple, by a positive factor, of
    the Bezout identity u*f1 + v*f2 = r given by the Euclidean remainder
    sequence over QQ from (f1, f2).  It is computed on integers: a
    primitive pseudo-remainder sequence (W. S. Brown, J. ACM 18(4), 1971)
    whose elements carry their integer cofactors, each triple divided by
    its content and negated where needed, as in ``_sturm_chain``, so that
    every element stays a positive multiple of the rational remainder.
    """
    if f1.is_zero() or f2.is_zero():
        raise NotCoprime("zero input")
    # (remainder, cofactor of f1, cofactor of f2)
    prev = (list(f1.coeffs), [1], [])
    cur = (list(f2.coeffs), [], [1])
    if f1.degree < f2.degree:
        # the first quotient over QQ is zero and its remainder is f1 itself
        prev, cur = cur, prev
    while True:
        a, b = prev[0], cur[0]
        q, r = _pdivmod(a, b)
        if not r:
            break
        scale = b[-1] ** (len(a) - len(b) + 1)
        rem = [r] + [_cofactor_step(prev[i], scale, q, cur[i]) for i in (1, 2)]
        g = math.gcd(*rem[0], *rem[1], *rem[2])
        if scale < 0:
            g = -g
        prev, cur = cur, tuple([x // g for x in part] for part in rem)
    if len(cur[0]) > 1:
        raise NotCoprime(f"common factor of degree {len(cur[0]) - 1}")
    (n,), h1, h2 = cur
    g = math.gcd(n, *h1, *h2)
    return IntPoly(tuple(x // g for x in h1)), IntPoly(tuple(x // g for x in h2)), n // g
