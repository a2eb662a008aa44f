"""Exact univariate polynomial arithmetic over ZZ and QQ.

Coefficients are stored ascending by degree (index 0 = constant term),
the canonical form has no trailing zero, and the zero polynomial is the
empty tuple.  Everything here is pure and exact; floats never appear.
"""

from __future__ import annotations

import itertools
import math
import random
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

Rat = Fraction


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
        """Division in QQ[t] with an integrality check on both outputs."""
        q, r = _qdivmod(_to_frac(self), _to_frac(other))
        return _from_frac_exact(q), _from_frac_exact(r)

    def div_exact(self, other: "IntPoly") -> "IntPoly":
        q, r = self.divmod_exact(other)
        if not r.is_zero():
            raise ArithmeticError(f"inexact division of {self} by {other}")
        return q

    def divides(self, other: "IntPoly") -> bool:
        if self.is_zero():
            return other.is_zero()
        q, r = _qdivmod(_to_frac(other), _to_frac(self))
        if any(c != 0 for c in r):
            return False
        return all(c.denominator == 1 for c in q)

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
# rational-coefficient helpers (lists of Fractions, ascending, trimmed)


def _to_frac(p: IntPoly):
    return [Fraction(c) for c in p.coeffs]


def _ftrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _from_frac_exact(a) -> IntPoly:
    if any(c.denominator != 1 for c in a):
        raise ArithmeticError("non-integer coefficients")
    return IntPoly(tuple(int(c) for c in a))


def _qdivmod(a, b):
    a = _ftrim(list(a))
    b = _ftrim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a
    inv = 1 / b[-1]
    while r and len(r) >= len(b):
        c = r[-1] * inv
        d = len(r) - len(b)
        q[d] = c
        for i in range(len(b)):
            r[d + i] -= c * b[i]
        r = _ftrim(r)
    return q, r


def _qgcd_monic(a, b):
    a = _ftrim(list(a))
    b = _ftrim(list(b))
    while b:
        _, r = _qdivmod(a, b)
        a, b = b, r
    if not a:
        return a
    inv = 1 / a[-1]
    return [c * inv for c in a]


def gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd in ZZ[t], positive leading coefficient."""
    if p.is_zero():
        return _pos_lc(q.primitive())
    if q.is_zero():
        return _pos_lc(p.primitive())
    g = _qgcd_monic(_to_frac(p), _to_frac(q))
    den = math.lcm(*[c.denominator for c in g])
    ints = IntPoly(tuple(int(c * den) for c in g)).primitive()
    result = _pos_lc(ints)
    cont = math.gcd(p.content(), q.content())
    return result * cont if cont > 1 else result


def _pos_lc(p: IntPoly) -> IntPoly:
    return -p if p.lc < 0 else p


# ---------------------------------------------------------------------------
# resultants, discriminants, Sturm counting


def resultant(p: IntPoly, q: IntPoly) -> int:
    """Resultant via the Euclidean remainder sequence over QQ; exact."""
    if p.is_zero() or q.is_zero():
        return 0
    a, b = _to_frac(p), _to_frac(q)
    res = Fraction(1)
    while True:
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            res *= b[0] ** da
            return _as_int(res)
        _, r = _qdivmod(a, b)
        if not r:
            return 0
        dr = len(r) - 1
        res *= Fraction((-1) ** (da * db)) * b[-1] ** (da - dr)
        a, b = b, r


def _as_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise ArithmeticError("resultant must be an integer")
    return int(x)


def discriminant(p: IntPoly) -> int:
    if p.degree < 1:
        raise ConstantPolynomial(str(p))
    d = p.degree
    r = resultant(p, p.derivative())
    sign = (-1) ** (d * (d - 1) // 2)
    return _as_int(Fraction(sign * r, p.lc))


_WITNESS_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _coprime_mod_witness(p: IntPoly, q: IntPoly) -> bool:
    """True only with proof: gcd(p, q) is constant because the images mod
    some prime not dividing lc(p) are coprime.  False means undecided."""
    for ell in _WITNESS_PRIMES:
        if p.lc % ell == 0:
            continue
        a = [c % ell for c in p.coeffs]
        b = [c % ell for c in q.coeffs]
        while b and b[-1] == 0:
            b.pop()
        while b:
            inv = pow(b[-1], -1, ell)
            while len(a) >= len(b):
                c = a[-1] * inv % ell
                d = len(a) - len(b)
                for i in range(len(b)):
                    a[d + i] = (a[d + i] - c * b[i]) % ell
                while a and a[-1] == 0:
                    a.pop()
                if not a:
                    break
            a, b = b, a
        if len(a) == 1:
            return True
    return False


def squarefree_part(p: IntPoly) -> IntPoly:
    if p.degree < 1:
        return _pos_lc(p.primitive()) if not p.is_zero() else p
    if _coprime_mod_witness(p, p.derivative()):
        return _pos_lc(p.primitive())
    g = gcd(p, p.derivative())
    if g.degree == 0:
        return _pos_lc(p.primitive())
    return _pos_lc(p.div_exact(g).primitive())


def is_squarefree(p: IntPoly) -> bool:
    if p.degree < 1:
        return True
    if _coprime_mod_witness(p, p.derivative()):
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
    if _coprime_mod_witness(f, f.derivative()):
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
    chain = [_to_frac(p), _to_frac(p.derivative())]
    while _ftrim(list(chain[-1])):
        _, r = _qdivmod(chain[-2], chain[-1])
        r = [-c for c in r]
        if not _ftrim(list(r)):
            break
        chain.append(r)
    return chain


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for c in chain:
        v = Fraction(0)
        for coef in reversed(c):
            v = v * x + coef
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(p: IntPoly, lo, hi) -> int:
    """Exact number of distinct real roots in the open interval (lo, hi)."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise InputError("need lo < hi")
    sf = squarefree_part(p)
    if sf.degree < 1:
        return 0
    if sf.evaluate(lo) == 0 or sf.evaluate(hi) == 0:
        raise EndpointIsRoot(f"{p} at ({lo}, {hi})")
    chain = _sturm_chain(sf)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def count_real_roots(p: IntPoly) -> int:
    b = cauchy_bound(p) + 1
    return sturm_count(p, -b, b)


def real_root_enclosure(p: IntPoly, lo, hi, eps) -> tuple:
    """Shrink an isolating interval with a sign change to width <= eps.

    The interval must contain exactly one root of the squarefree part and
    neither endpoint may be a root.
    """
    sf = squarefree_part(p)
    lo, hi, eps = Fraction(lo), Fraction(hi), Fraction(eps)
    flo = sf.evaluate(lo)
    fhi = sf.evaluate(hi)
    if flo == 0 or fhi == 0:
        raise EndpointIsRoot(f"{p} at ({lo}, {hi})")
    if (flo > 0) == (fhi > 0):
        raise InputError("no sign change on the interval")
    while hi - lo > eps:
        mid = (lo + hi) / 2
        fm = sf.evaluate(mid)
        if fm == 0:
            return (mid, mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return (lo, hi)


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
    roots, which Newton gives from P_j, P_2j, ..., P_kj."""
    if not p.is_monic():
        raise NotMonic(str(p))
    n = p.degree
    if k < 1 or k > n:
        raise BadRank(f"exterior power {k} of a degree-{n} polynomial")
    size = math.comb(n, k)
    ps = power_sums(p, k * size)
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
    a, b = _mtrim(list(a)), _mtrim(list(b))
    while b:
        _, r = _mdivmod(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _mpowmod(base, e, mod, p):
    result = [1]
    base = _mdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _mdivmod(_mmul(result, base, p), mod, p)[1]
        base = _mdivmod(_mmul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _msub(a, b, p):
    n = max(len(a), len(b))
    out = [( (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) ) % p for i in range(n)]
    return _mtrim(out)


def _ddf(f, p):
    """Distinct-degree factorization of monic squarefree f mod p:
    list of (d, product of the irreducible factors of degree d)."""
    out = []
    fstar = list(f)
    h = [0, 1]
    d = 0
    while len(fstar) - 1 >= 2 * (d + 1):
        d += 1
        h = _mpowmod(h, p, fstar, p)
        g = _mgcd(_msub(h, [0, 1], p), fstar, p)
        if len(g) - 1 > 0:
            out.append((d, g))
            fstar, _ = _mdivmod(fstar, g, p)
            _, h = _mdivmod(h, fstar, p)
    if len(fstar) - 1 > 0:
        out.append((len(fstar) - 1, fstar))
    return out


def _edf(g, d, p, rng):
    """Cantor-Zassenhaus split of g (product of degree-d irreducibles)."""
    n = len(g) - 1
    if n == d:
        return [g]
    exponent = (p ** d - 1) // 2
    while True:
        r = [rng.randrange(p) for _ in range(n)]
        r = _mtrim(r)
        if len(r) - 1 < 1:
            continue
        h = _mpowmod(r, exponent, g, p)
        h = _msub(h, [1], p)
        w = _mgcd(h, g, p)
        if 0 < len(w) - 1 < n:
            rest, _ = _mdivmod(g, w, p)
            return _edf(w, d, p, rng) + _edf(rest, d, p, rng)


def _factor_mod_p(f, p, rng):
    """Monic squarefree f mod p -> sorted list of monic irreducible factors."""
    out = []
    for d, g in _ddf(f, p):
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
        if f.lc % p == 0:
            continue
        fp = _mtrim([c % p for c in f.coeffs])
        dfp = _mtrim([(i * c) % p for i, c in enumerate(f.coeffs) if i])
        if len(_mgcd(fp, dfp, p)) - 1 == 0:
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
        fp = [c * inv % p for c in fp]
        pattern = []
        for d, g in _ddf(fp, p):
            pattern.extend([d] * ((len(g) - 1) // d))
        trials.append((len(pattern), p, sorted(pattern)))
        sums = _subset_sums(pattern)
        allowed = sums if allowed is None else (allowed & sums)
        if not any(0 < s < f.degree for s in allowed):
            return [_pos_lc(f)]  # degree patterns certify irreducibility
        if len(pattern) <= 3:
            break
    if not trials:
        raise RuntimeError("no usable prime for modular factorization")
    trials.sort()
    _, p, _ = trials[0]
    fp = [c % p for c in f.coeffs]
    inv = _modinv(fp[-1], p)
    modular = _factor_mod_p([c * inv % p for c in fp], p, rng)
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


def ext_gcd_rational(f1: IntPoly, f2: IntPoly):
    """(h1, h2, N) with h1*f1 + h2*f2 = N, integer polynomials, N nonzero.

    Denominators of the rational Bezout identity are cleared by their lcm and
    the triple divided by its integer content; signs are as produced by the
    Euclidean remainder sequence.
    """
    a, b = _to_frac(f1), _to_frac(f2)
    if not _ftrim(list(a)) or not _ftrim(list(b)):
        raise NotCoprime("zero input")
    r0, r1 = a, b
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while True:
        q, r = _qdivmod(r0, r1)
        if not r:
            break
        r0, r1 = r1, r
        s0, s1 = s1, _fsub(s0, _fmul(q, s1))
        t0, t1 = t1, _fsub(t0, _fmul(q, t1))
    if len(r1) - 1 > 0:
        raise NotCoprime(f"common factor of degree {len(r1) - 1}")
    const = r1[0]
    u, v = s1, t1
    dens = [c.denominator for c in u] + [c.denominator for c in v] + [const.denominator]
    L = math.lcm(*dens)
    h1 = IntPoly(tuple(int(c * L) for c in u))
    h2 = IntPoly(tuple(int(c * L) for c in v))
    n = int(const * L)
    g = math.gcd(math.gcd(h1.content(), h2.content()), abs(n))
    if g > 1:
        h1 = IntPoly(tuple(c // g for c in h1.coeffs))
        h2 = IntPoly(tuple(c // g for c in h2.coeffs))
        n //= g
    return h1, h2, n


def _fmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ftrim(out)


def _fsub(a, b):
    n = max(len(a), len(b))
    out = [
        (a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    ]
    return _ftrim(out)
