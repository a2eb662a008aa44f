"""Galois class of a special sextic from exact resolvent data.

The roots of a special sextic fall into three reciprocal pairs, so the
Galois group embeds in the order-48 group W of permutations of the six
root labels preserving that pairing.  Under the canonical labeling the
group always contains complex conjugation, and the quotient action on
the pairs is the full S3 (the trace cubic is irreducible with exactly
one real root, never a cyclic cubic).  Five subgroup classes of W are
candidates; the four that contain conjugation are told apart by two
exact invariants:

  * the partition of the 15 pair products into Galois orbits, read off
    the factorization of the exterior-square characteristic polynomial
    (shifted by c*(sum of the pair) when product values collide);
  * a perfect-square test on disc(p) disc(q).  W has exactly three
    index-2 subgroups, kernels of the linear characters sign6, sign3,
    and sign6*sign3 (sign6 on the six roots, sign3 on the three pairs),
    and membership of G in each kernel is equivalent to the
    corresponding product of discriminants being a rational square.

The sextic's discriminant is never computed.  With y = z + 1/z, a
reciprocal pair {z, 1/z} contributes (z - 1/z)^2 = y^2 - 4 to disc(p),
and the four differences between two pairs multiply to (y_k - y_l)^2, so
disc(p) = disc(q)^2 q(2) q(-2) for the monic trace cubic q.  As q is
irreducible, disc(q) is nonzero: disc(p) is a square exactly when
q(2) q(-2) is, and disc(p) disc(q) exactly when disc(q) q(2) q(-2) is.

All resolvents are certified: a value's factor is the one factor left
when every other is proven zero-free on the value's disk, never a
floating-point guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .exceptions import NoCandidateMatches, VerificationFailed
from .intpoly import discriminant
from .salem import ALL_PAIRS, OCTET_TRIPLES, SexticAnalysis

# root labels: (0,1) unit pair, (2,3) and (4,5) the off-circle pairs
PAIRS = ((0, 1), (2, 3), (4, 5))
_PAIR_OF = (0, 0, 1, 1, 2, 2)
IDENTITY = (0, 1, 2, 3, 4, 5)
CONJUGATION = (1, 0, 5, 4, 3, 2)

RECIPROCAL_BLOCK = frozenset(PAIRS)


def _compose(a, b):
    return tuple(a[b[i]] for i in range(6))


def _inverse(a):
    out = [0] * 6
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def _closure(gens):
    seen = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _compose(g, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def _orbits(elements, points, act):
    left = set(points)
    out = []
    while left:
        seed = min(left)
        orb = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for x in frontier:
                for w in elements:
                    y = act(w, x)
                    if y not in orb:
                        orb.add(y)
                        nxt.append(y)
            frontier = nxt
        left -= orb
        out.append(frozenset(orb))
    return tuple(sorted(out, key=lambda o: (len(o), min(o))))


def _act_pair(w, pr):
    a, b = w[pr[0]], w[pr[1]]
    return (a, b) if a < b else (b, a)


def _act_triple(w, t):
    return tuple(sorted(w[i] for i in t))


def _sigma(w):
    return tuple(_PAIR_OF[w[2 * k]] for k in range(3))


def _sign3(s):
    return -1 if sum(1 for i in range(3) for j in range(i + 1, 3) if s[i] > s[j]) % 2 else 1


def _sign6(w):
    # equals the product of the signs in the signed-permutation picture
    out = 1
    for k in range(3):
        if w[2 * k] % 2:
            out = -out
    return out


def wreath_group():
    """All 48 permutations of the six labels preserving the pairing."""
    return _closure(((1, 0, 2, 3, 4, 5), (2, 3, 0, 1, 4, 5), (2, 3, 4, 5, 0, 1)))


def _minimal_generators(elements):
    gens = []
    sub = frozenset((IDENTITY,))
    for g in sorted(elements):
        if g not in sub:
            gens.append(g)
            sub = _closure(gens)
            if sub == elements:
                break
    return tuple(gens)


@dataclass(frozen=True)
class CandidateGroup:
    label: str
    generators: tuple
    order: int
    elements: frozenset
    pair_orbit_sizes: tuple  # predicted orbit sizes on the 15 pairs
    octet_orbit_sizes: tuple  # predicted orbit sizes on the 8 one-per-pair triples
    contains_conjugation: bool
    sign_product_square: bool  # group lies in ker(sign6 * sign3)


def _predicted(label, elements):
    return CandidateGroup(
        label=label,
        generators=_minimal_generators(elements),
        order=len(elements),
        elements=elements,
        pair_orbit_sizes=tuple(
            sorted(len(o) for o in _orbits(elements, ALL_PAIRS, _act_pair))
        ),
        octet_orbit_sizes=tuple(
            sorted(len(o) for o in _orbits(elements, OCTET_TRIPLES, _act_triple))
        ),
        contains_conjugation=CONJUGATION in elements,
        sign_product_square=all(
            _sign6(w) * _sign3(_sigma(w)) == 1 for w in elements
        ),
    )


def _index_two_subgroups(w_elements):
    """Kernels of the three surjections W -> C2, found from the derived
    subgroup rather than hard-coded."""
    derived = set()
    elems = sorted(w_elements)
    for a in elems:
        ai = _inverse(a)
        for b in elems:
            derived.add(_compose(_compose(a, b), _compose(ai, _inverse(b))))
    d = _closure(_minimal_generators(frozenset(derived)) or (IDENTITY,))
    # quotient W/D is elementary abelian of order 4: three index-2 kernels
    cosets = {}
    for g in elems:
        key = min(_compose(g, h) for h in d)
        cosets.setdefault(key, []).append(g)
    keys = sorted(cosets)
    out = []
    for k in keys:
        if k == min(cosets[keys[0]]) and IDENTITY in cosets[k]:
            continue
        candidate = frozenset(cosets[keys[0]]) | frozenset(cosets[k])
        if len(candidate) == len(w_elements) // 2:
            g2 = _closure(_minimal_generators(candidate))
            if g2 == candidate:
                out.append(candidate)
    return out


_CANDIDATES = None


def candidate_groups():
    """The five possible Galois classes inside the pairing-preserving
    group W, with predicted orbit data.

    H6 and G12 come from explicit generators.  The order-24 classes are
    derived by search: W has exactly three index-2 subgroups; one fails
    to surject onto S3 and is discarded, and the remaining two are told
    apart by whether they contain complex conjugation (H24 does, G24
    does not, so G24 never occurs for an actual special sextic).  The
    four candidates containing conjugation must have distinct pair-orbit
    sizes or square classes, since galois_class decides from those two.
    """
    global _CANDIDATES
    if _CANDIDATES is not None:
        return _CANDIDATES
    w = wreath_group()
    if len(w) != 48:
        raise VerificationFailed("pairing-preserving group has wrong order")

    three_cycle = (2, 3, 4, 5, 0, 1)  # both off-circle pairs rotated onto the next
    straight_swap = (2, 3, 0, 1, 4, 5)
    full_flip = (1, 0, 3, 2, 5, 4)
    h6 = _closure((three_cycle, CONJUGATION))
    g12 = _closure((three_cycle, straight_swap, full_flip))

    order24 = [h for h in _index_two_subgroups(w) if len(h) == 24]
    if len(order24) != 3:
        raise VerificationFailed("expected exactly three index-2 subgroups")
    onto = [
        h for h in order24 if len({_sigma(x) for x in h}) == 6
    ]
    if len(onto) != 2:
        raise VerificationFailed("expected two order-24 classes surjecting onto S3")
    with_conj = [h for h in onto if CONJUGATION in h]
    without = [h for h in onto if CONJUGATION not in h]
    if len(with_conj) != 1 or len(without) != 1:
        raise VerificationFailed("conjugation does not separate the order-24 classes")

    groups = (
        _predicted("H6", h6),
        _predicted("G12", g12),
        _predicted("G24", without[0]),
        _predicted("H24", with_conj[0]),
        _predicted("G48", w),
    )
    for g in groups:
        orbit0 = {w_[0] for w_ in g.elements}
        if len(orbit0) != 6:
            raise VerificationFailed(f"candidate {g.label} is not transitive")
    keys = [
        (g.pair_orbit_sizes, g.sign_product_square)
        for g in groups
        if g.contains_conjugation
    ]
    if len(set(keys)) != len(keys):
        raise VerificationFailed(
            "pair orbits and the square class do not separate the candidates"
        )
    _CANDIDATES = groups
    return groups


@dataclass(frozen=True)
class GaloisReport:
    class_label: str
    order: int
    pair_orbits: tuple  # frozensets of index pairs, sorted by (size, min)
    evidence: tuple  # ((resolvent name, data), ...)


def _perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def pair_orbit_partition(p, c_max: int = 100):
    """Galois orbit partition of the 15 unordered root-index pairs."""
    partition, _route = SexticAnalysis.of(p).pair_orbits(c_max)
    return partition


def octet_data(p):
    """(T8, triples, owners): the degree-8 resolvent of one-per-pair
    triple products, the 8 triples, and the irreducible factor owning
    each triple's product.  A triple owns (t-1) exactly when its
    product is certified to be 1."""
    sx = SexticAnalysis.of(p)
    sx.require_special()
    t8, _factors, owners = sx.octet
    return t8, OCTET_TRIPLES, owners


def galois_class(p, c_max: int = 100) -> GaloisReport:
    """Galois class of a special sextic among the five candidates.

    The group contains complex conjugation, and among the candidates that
    do, the pair-orbit sizes and the square class of disc(p) disc(q), read
    off the trace cubic, pick exactly one (``candidate_groups`` checks that
    they separate them); its order is |G|.  The product-one octet triples are checked against
    the chosen candidate's octet orbits.
    """
    sx = SexticAnalysis.of(p)
    cls = sx.require_special()
    partition, pair_used = sx.pair_orbits(c_max)
    orbit_sizes = tuple(sorted(len(o) for o in partition))
    if sum(orbit_sizes) != 15 or RECIPROCAL_BLOCK not in partition:
        raise VerificationFailed("pair orbits do not contain the reciprocal block")

    q = cls.trace_poly
    disc_q, edges = discriminant(q), q.evaluate(2) * q.evaluate(-2)
    in_mixed_kernel = _perfect_square(disc_q * edges)
    square_classes = (
        ("disc(p)", _perfect_square(edges)),
        ("disc(q)", _perfect_square(disc_q)),
        ("disc(p)disc(q)", in_mixed_kernel),
    )
    if square_classes[0][1] or square_classes[1][1]:
        # sign6 rejects: p has three nonreal pairs so disc(p) < 0; sign3
        # rejects: the trace cubic is irreducible with one real root
        raise NoCandidateMatches("discriminant square class contradicts (A)")

    matches = [
        g
        for g in candidate_groups()
        if g.contains_conjugation
        and g.pair_orbit_sizes == orbit_sizes
        and g.sign_product_square == in_mixed_kernel
    ]
    if not matches:
        raise NoCandidateMatches(
            f"pair orbits {orbit_sizes}, square class {in_mixed_kernel} fits no candidate"
        )
    (group,) = matches
    # the product-one triples are a union of octet orbits, so a candidate
    # transitive on the octet admits none
    if sx.product_one_triples and len(group.octet_orbit_sizes) == 1:
        raise NoCandidateMatches(
            f"{group.label} is transitive on the octet, but a triple product is 1"
        )

    evidence = (
        ("wedge-square", tuple(sorted(sx.wedge2_factors.degrees()))),
        ("triple-product-octet", tuple(sorted(sx.octet[1].degrees()))),
        ("pair-orbit route", pair_used),
        ("square classes", square_classes),
        (
            "order-24 separation",
            "complex conjugation lies in H24 only; decided by the "
            "disc(p)disc(q) square test",
        ),
    )
    return GaloisReport(
        class_label=group.label,
        order=group.order,
        pair_orbits=partition,
        evidence=evidence,
    )
