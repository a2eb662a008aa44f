"""Complex 3-torus models built from special sextics.

A special sextic p is the characteristic polynomial of a lattice
automorphism with three pairs of complex-conjugate eigenvalues.  Picking
one eigenvalue from each conjugate pair fixes a complex structure on
(ZZ^6) tensor RR, giving a 3-torus whose automorphism has that linear
part.  Everything downstream is decided exactly from the label
combinatorics and the Galois orbit data:

  * a wedge class e_i ^ e_j has Hodge type (1,1), (2,0), or (0,2)
    according to how many of i, j are chosen holomorphic directions;
  * the Neron-Severi rank is the total size of the Galois pair-orbits
    whose classes are all of type (1,1), because Galois descent turns
    exactly those orbits into rational subspaces of H^{1,1};
  * projectivity is equivalent to the maximal rank 9;
  * an equivariant holomorphic fibration exists iff the sextic is
    reducible, and for a general unimodular lattice action the invariant
    sublattices are produced explicitly from a coprime splitting of the
    minimal polynomial (or the kernel of its repeated factor).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .exactlin import (
    IntMatrix,
    Lattice,
    char_poly,
    companion,
    det,
    kernel_basis,
    matrix_poly_eval,
    minimal_polynomial,
    restricted_matrix,
    saturate,
)
from .exceptions import (
    InadmissibleTriple,
    InputError,
    NoDecomposition,
    NotUnimodular,
    VerificationFailed,
)
from .galois import ALL_PAIRS, pair_orbit_partition
from .intpoly import IntPoly, ext_gcd_rational, factor_over_z, is_irreducible
from .salem import (
    SalemCertificate,
    SexticAnalysis,
    dynamical_degrees,
    gross_mcmullen,
    is_salem,
)

# canonical root labels: 0,1 the unit-circle pair, 2 and 5 the large pair,
# 3 and 4 the small pair; conjugation swaps each of these
CONJUGATION_PAIRS = ((0, 1), (2, 5), (3, 4))


@dataclass(frozen=True)
class TorusModel:
    poly: IntPoly
    action: IntMatrix
    triple: tuple
    ap_flag: bool
    analysis: SexticAnalysis = field(repr=False, compare=False)


@dataclass(frozen=True)
class PicardReport:
    rho: int
    ns_orbits: tuple
    hodge_types: dict
    projective: bool


@dataclass(frozen=True)
class FibrationComponent:
    lattice: Lattice
    rank: int
    induced_char_poly: IntPoly
    base_dimension: int


@dataclass(frozen=True)
class FibrationReport:
    exists: bool
    submodules: tuple
    bezout: tuple | None
    route: str


@dataclass(frozen=True)
class ProductTorusModel:
    poly: IntPoly
    action: IntMatrix
    complex_dim: int
    min_poly: IntPoly
    salem: SalemCertificate


def admissible_triples(p):
    """All 8 choices of one root index per conjugate pair, each tagged
    with whether its root product is certified to be 1.

    A choice containing a reciprocal pair multiplies to the remaining
    root, never 1 for an irreducible sextic, so only choices that also
    pick one root per reciprocal pair can carry the tag.
    """
    sx = SexticAnalysis.of(p)
    sx.require_special()
    ap = sx.product_one_triples
    out = [
        (tuple(sorted(sel)), tuple(sorted(sel)) in ap)
        for sel in itertools.product(*CONJUGATION_PAIRS)
    ]
    return tuple(sorted(out))


def _check_admissible(triple):
    t = tuple(sorted(triple))
    if len(t) != 3 or any(i not in range(6) for i in t):
        raise InadmissibleTriple(f"{triple} is not three root indices")
    for a, b in CONJUGATION_PAIRS:
        if (a in t) == (b in t):
            raise InadmissibleTriple(
                f"{triple} does not pick exactly one of the conjugate pair ({a},{b})"
            )
    return t


def standard_construction(p, triple) -> TorusModel:
    """The torus model with lattice ZZ^6, action the companion matrix of
    p, and complex structure selecting the triple's roots as holomorphic
    eigenvalues.  The model keeps the sextic's analysis, so
    ``picard_number`` on it reuses the work done here."""
    sx = SexticAnalysis.of(p)
    sx.require_special()
    t = _check_admissible(triple)
    return TorusModel(
        poly=sx.poly,
        action=companion(sx.poly),
        triple=t,
        ap_flag=t in sx.product_one_triples,
        analysis=sx,
    )


def hodge_type(pair, triple):
    """Type of the wedge class e_i ^ e_j: both indices holomorphic gives
    (2,0), neither gives (0,2), one of each gives (1,1)."""
    t = _check_admissible(triple)
    count = sum(1 for i in pair if i in t)
    return {2: (2, 0), 1: (1, 1), 0: (0, 2)}[count]


def _picard_from_partition(partition, triple) -> PicardReport:
    types = {pr: hodge_type(pr, triple) for pr in ALL_PAIRS}
    ns = tuple(
        o for o in partition if all(types[pr] == (1, 1) for pr in o)
    )
    rho = sum(len(o) for o in ns)
    return PicardReport(rho=rho, ns_orbits=ns, hodge_types=types, projective=rho == 9)


def picard_number(model: TorusModel, c_max: int = 100) -> PicardReport:
    """Neron-Severi rank of the model.

    A Galois orbit of wedge classes spans a rational subspace; it lies
    in H^{1,1} exactly when every class in the orbit has type (1,1), and
    the Neron-Severi group is the sum of those orbits.  This covers the
    eigenvalue-1 classes correctly: the three reciprocal pairs form one
    orbit, contributing 3 when all three are (1,1) and 0 otherwise.
    """
    partition = pair_orbit_partition(model.analysis, c_max)
    return _picard_from_partition(partition, model.triple)


def picard_table(p, c_max: int = 100):
    """Picard reports for all 8 admissible triples, sharing one orbit
    computation.  Returns ((triple, ap_flag, PicardReport), ...)."""
    sx = SexticAnalysis.of(p)
    partition = pair_orbit_partition(sx, c_max)
    return tuple(
        (t, flag, _picard_from_partition(partition, t))
        for t, flag in admissible_triples(sx)
    )


def fibration_exists(p: IntPoly) -> bool:
    """Whether the torus automorphism with characteristic polynomial p
    admits an equivariant holomorphic fibration: equivalent to p being
    reducible over the integers."""
    return not is_irreducible(p)


def _restriction_char(action: IntMatrix, lat: Lattice) -> IntPoly:
    try:
        return char_poly(restricted_matrix(action, lat.basis))
    except ArithmeticError as exc:
        raise VerificationFailed(f"sublattice is not stable: {exc}") from exc


def build_fibrations(action: IntMatrix) -> FibrationReport:
    """Invariant sublattices realizing equivariant fibrations.

    With m the minimal polynomial: a coprime split m = m1*m2 yields two
    complementary primitive stable sublattices via the Bezout identity
    h1*m1 + h2*m2 = N; a repeated single factor m = q^k yields the
    saturated kernel of q(action).  An irreducible m decides nothing
    (the criterion is one-sided), which is reported as an error.
    """
    if not action.is_square():
        raise InputError("square matrix required")
    n2 = action.nrows
    if abs(det(action)) != 1:
        raise NotUnimodular(f"determinant {det(action)}")
    m = minimal_polynomial(action)
    mfl = factor_over_z(m).factors

    if len(mfl) == 1 and mfl[0][1] == 1:
        raise NoDecomposition(
            "minimal polynomial is irreducible; the splitting criterion is "
            "one-sided and existence is undetermined"
        )

    if len(mfl) == 1:
        q, _k = mfl[0]
        lat = Lattice.from_columns(n2, kernel_basis(matrix_poly_eval(q, action)))
        if not 0 < lat.rank < n2:
            raise VerificationFailed("kernel of the repeated factor is not proper")
        induced = _restriction_char(action, lat)
        comp = FibrationComponent(
            lattice=lat,
            rank=lat.rank,
            induced_char_poly=induced,
            base_dimension=lat.rank // 2,
        )
        return FibrationReport(exists=True, submodules=(comp,), bezout=None, route="kernel_of_power")

    # m divides phi and both are monic, so equal degrees make them equal
    phi = m if m.degree == n2 else char_poly(action)
    q1, k1 = mfl[0]
    m1 = q1**k1
    m2 = m.div_exact(m1)
    # f1 is the full power of q1 dividing phi, f2 its cofactor
    f1, f2 = IntPoly((1,)), phi
    while True:
        q, r = f2.divmod_exact(q1)
        if not r.is_zero():
            break
        f1, f2 = f1 * q1, q
    h1, h2, n = ext_gcd_rational(m1, m2)
    check = h1 * m1 + h2 * m2
    if check.degree != 0 or check.constant_term() != n:
        raise VerificationFailed("Bezout identity failed to re-expand")

    subs = []
    for f_own, f_other, h_other in ((f1, f2, h2), (f2, f1, h1)):
        # m(action) = 0, so this is f_other(action) * h_other(action)
        gen = matrix_poly_eval((f_other * h_other).divmod_exact(m)[1], action)
        lat = saturate(Lattice.from_columns(n2, gen.columns()))
        induced = _restriction_char(action, lat)
        if induced != f_own:
            raise VerificationFailed(
                f"restricted action has {induced.format()}, expected {f_own.format()}"
            )
        subs.append(
            FibrationComponent(
                lattice=lat,
                rank=lat.rank,
                induced_char_poly=induced,
                base_dimension=lat.rank // 2,
            )
        )
    if subs[0].rank + subs[1].rank != n2:
        raise VerificationFailed("ranks of the complementary sublattices do not sum")
    if f1 * f2 != phi:
        raise VerificationFailed("characteristic polynomial did not split")
    return FibrationReport(
        exists=True, submodules=tuple(subs), bezout=(h1, h2, n), route="coprime_factors"
    )


def product_torus_example(two_k: int):
    """Power of an elliptic curve with an automorphism whose middle
    dynamical degrees all coincide.

    The action is M tensor I2 on first homology, M the companion matrix
    of the degree two_k Salem generator; the doubled Salem root alpha
    contributes the eigenvalue alpha^2 to every intermediate wedge
    power, forcing lambda_1 = ... = lambda_{2k-1} = alpha^2.
    """
    if two_k % 2 or two_k < 4:
        raise InputError("even complex dimension at least 4 required")
    g = gross_mcmullen(two_k)
    cert = is_salem(g)
    if not cert.is_salem:
        raise VerificationFailed("generator did not certify as Salem")
    action = companion(g).kron(IntMatrix.identity(2))
    report = dynamical_degrees(action, two_k)
    for i in range(1, two_k):
        for j in range(i + 1, two_k):
            if (i, j) not in report.exact_equalities:
                raise VerificationFailed(f"lambda_{i} and lambda_{j} not certified equal")
    mp = minimal_polynomial(action)
    if mp != g or not is_irreducible(mp):
        raise VerificationFailed("minimal polynomial is not the irreducible generator")
    # irreducible minimal polynomial of full degree two_k: the 2k
    # holomorphic eigenvalues (one per elliptic factor) are distinct
    lo, hi = cert.lambda_
    l1lo, l1hi = report.lambdas[1]
    if l1hi < lo * lo or hi * hi < l1lo:
        raise VerificationFailed("lambda_1 enclosure does not meet alpha^2")
    model = ProductTorusModel(
        poly=g, action=action, complex_dim=two_k, min_poly=mp, salem=cert
    )
    return model, report
