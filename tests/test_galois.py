"""Tests for Galois classification of special sextics.

Oracles used here are independent of the module under test: group facts
are recomputed by direct search over S6 with test-local code, orbit
tables are frozen from hand-checked enumeration, and field-theoretic
orders are cross-checked against sympy's galois_group.
"""

import itertools
from collections import Counter

import pytest

from salemtori import galois
from salemtori.exceptions import NotSpecial
from salemtori.galois import (
    ALL_PAIRS,
    CONJUGATION,
    OCTET_TRIPLES,
    PAIRS,
    RECIPROCAL_BLOCK,
    candidate_groups,
    galois_class,
    octet_data,
    pair_orbit_partition,
    wreath_group,
)
from salemtori.intpoly import IntPoly

P1 = IntPoly.parse("1,3,5,5,5,3,1")
P2 = IntPoly.parse("1,-5,13,-11,13,-5,1")
P3 = IntPoly.parse("1,1,3,1,3,1,1")
P24 = IntPoly.parse("1,-2,5,-6,5,-2,1")

EXPECTED = {
    "1,3,5,5,5,3,1": ("H6", 6, (3, 3, 3, 6)),
    "1,-5,13,-11,13,-5,1": ("G12", 12, (3, 6, 6)),
    "1,1,3,1,3,1,1": ("G48", 48, (3, 12)),
    "1,-2,5,-6,5,-2,1": ("H24", 24, (3, 12)),
}


def _compose(a, b):
    return tuple(a[b[i]] for i in range(6))


def _act_pair(w, pr):
    a, b = w[pr[0]], w[pr[1]]
    return (a, b) if a < b else (b, a)


def _orbit_sizes(elements, points, act):
    left = set(points)
    sizes = []
    while left:
        seed = next(iter(left))
        orb = {seed}
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            for w in elements:
                y = act(w, x)
                if y not in orb:
                    orb.add(y)
                    frontier.append(y)
        left -= orb
        sizes.append(len(orb))
    return tuple(sorted(sizes))


@pytest.fixture(scope="module")
def reports():
    return {s: galois_class(IntPoly.parse(s)) for s in EXPECTED}


def test_wreath_group_matches_brute_force_filter():
    pair_sets = tuple(frozenset(pr) for pr in PAIRS)
    brute = frozenset(
        w
        for w in itertools.permutations(range(6))
        if all(frozenset((w[a], w[b])) in pair_sets for a, b in PAIRS)
    )
    assert wreath_group() == brute
    assert len(brute) == 48


def test_candidate_census():
    groups = candidate_groups()
    facts = tuple(
        (g.label, g.order, g.contains_conjugation, g.sign_product_square)
        for g in groups
    )
    assert facts == (
        ("H6", 6, True, True),
        ("G12", 12, True, False),
        ("G24", 24, False, False),
        ("H24", 24, True, True),
        ("G48", 48, True, False),
    )
    # exactly one order-24 class can occur for a real sextic, and the
    # square test agrees with conjugation membership on it
    realizable24 = [g for g in groups if g.order == 24 and g.contains_conjugation]
    assert [g.label for g in realizable24] == ["H24"]


def test_candidate_orbit_tables():
    frozen = {
        "H6": ((3, 3, 3, 6), (2, 6)),
        "G12": ((3, 6, 6), (2, 6)),
        "G24": ((3, 12), (4, 4)),
        "H24": ((3, 12), (8,)),
        "G48": ((3, 12), (8,)),
    }

    def act_triple(w, t):
        return tuple(sorted(w[i] for i in t))

    for g in candidate_groups():
        want = frozen[g.label]
        assert g.pair_orbit_sizes == want[0]
        assert g.octet_orbit_sizes == want[1]
        # recompute with test-local orbit code
        assert _orbit_sizes(g.elements, ALL_PAIRS, _act_pair) == want[0]
        assert _orbit_sizes(g.elements, OCTET_TRIPLES, act_triple) == want[1]


def test_subgroup_lattice():
    by_label = {g.label: g for g in candidate_groups()}
    w = by_label["G48"].elements
    for g in candidate_groups():
        assert g.elements <= w
        assert len(g.elements) == g.order
        for a in g.generators:
            for b in g.generators:
                assert _compose(a, b) in g.elements
    assert by_label["H6"].elements <= by_label["G12"].elements
    assert by_label["H6"].elements <= by_label["H24"].elements
    for label in ("G24", "H24"):
        assert not by_label["G12"].elements <= by_label[label].elements
    assert CONJUGATION not in by_label["G24"].elements


def test_examples_classify(reports):
    for s, (label, order, sizes) in EXPECTED.items():
        rep = reports[s]
        assert rep.class_label == label
        assert rep.order == order
        assert tuple(sorted(len(o) for o in rep.pair_orbits)) == sizes
        assert RECIPROCAL_BLOCK in rep.pair_orbits
        covered = sorted(pr for o in rep.pair_orbits for pr in o)
        assert covered == sorted(ALL_PAIRS)


def test_examples_evidence(reports):
    ev = {s: dict(reports[s].evidence) for s in EXPECTED}
    # disc(p) < 0 and the trace cubic is never cyclic, so only the
    # product can be a square, and it is exactly for H6 and H24
    for s in EXPECTED:
        classes = dict(ev[s]["square classes"])
        assert classes["disc(p)"] is False
        assert classes["disc(q)"] is False
        want = EXPECTED[s][0] in ("H6", "H24")
        assert classes["disc(p)disc(q)"] is want


def _sign(perm):
    inversions = sum(
        1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def test_candidates_cover_every_possible_group():
    # every subgroup of W containing conjugation, grown from <conj> by one
    # element at a time with test-local closure code
    w = wreath_group()

    def closure(gens):
        seen = {tuple(range(6))}
        frontier = list(seen)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = _compose(g, x)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    start = closure([CONJUGATION])
    subgroups = {start}
    frontier = [start]
    while frontier:
        h = frontier.pop()
        for g in w - h:
            k = closure(list(h) + [g])
            if k not in subgroups:
                subgroups.add(k)
                frontier.append(k)

    def on_pairs(x):
        return tuple(x[2 * k] // 2 for k in range(3))

    # a Galois group of a special sextic is transitive on the roots and
    # maps onto S3, the group of the trace cubic
    possible = [
        h
        for h in subgroups
        if {x[0] for x in h} == set(range(6)) and len({on_pairs(x) for x in h}) == 6
    ]
    assert sorted(len(h) for h in possible) == [6, 6, 12, 12, 24, 48]

    candidates = [g for g in candidate_groups() if g.contains_conjugation]
    for h in possible:
        sizes = _orbit_sizes(h, ALL_PAIRS, _act_pair)
        square = all(_sign(x) * _sign(on_pairs(x)) == 1 for x in h)
        # galois_class reads these two invariants and reports the order of
        # the one candidate that has them
        hits = [
            g
            for g in candidates
            if g.pair_orbit_sizes == sizes and g.sign_product_square == square
        ]
        assert len(hits) == 1
        assert hits[0].order == len(h)


def test_sympy_order_oracle():
    from sympy import Poly, symbols
    from sympy.polys.numberfields.galoisgroups import galois_group

    from salemtori.salem import enumerate_special

    x = symbols("x")

    def sympy_order(p):
        group, _alt = galois_group(Poly(list(reversed(p.coeffs)), x))
        return group.order()

    for s, (_label, order, _sizes) in EXPECTED.items():
        assert sympy_order(IntPoly.parse(s)) == order
    # the class decision on every special sextic of trace bound 2
    labels = {6: "H6", 12: "G12", 24: "H24", 48: "G48"}
    census = Counter()
    for _q, p, _cls in enumerate_special(2):
        rep = galois_class(p)
        assert rep.order == sympy_order(p)
        assert rep.class_label == labels[rep.order]
        census[rep.class_label] += 1
    assert census == {"H6": 2, "G12": 4, "H24": 4, "G48": 40}


def test_galois_class_reads_one_discriminant_of_the_trace_cubic(monkeypatch):
    seen = []
    discriminant = galois.discriminant

    def counting(p):
        seen.append(p)
        return discriminant(p)

    monkeypatch.setattr(galois, "discriminant", counting)
    for p in (P1, P2, P3, P24):
        seen.clear()
        galois_class(p)
        assert seen == [p.trace_polynomial()], str(p)


def test_pair_orbit_partition_direct():
    part = pair_orbit_partition(P1)
    assert tuple(sorted(len(o) for o in part)) == (3, 3, 3, 6)
    assert RECIPROCAL_BLOCK in part
    assert tuple(sorted(len(o) for o in pair_orbit_partition(P2))) == (3, 6, 6)
    assert tuple(sorted(len(o) for o in pair_orbit_partition(P3))) == (3, 12)


def test_octet_data_counts():
    t8, triples, owners = octet_data(P1)
    assert t8.degree == 8
    assert triples == OCTET_TRIPLES
    one = IntPoly.parse("-1,1")
    assert sum(1 for f in owners if f == one) == 2
    _t8, _triples, owners3 = octet_data(P3)
    assert all(f != one for f in owners3)


def test_rejects_non_special():
    with pytest.raises(NotSpecial):
        galois_class(IntPoly.parse("-2,0,0,0,0,0,1"))
    with pytest.raises(NotSpecial):
        pair_orbit_partition(IntPoly.parse("-2,0,0,0,0,0,1"))
    with pytest.raises(NotSpecial):
        octet_data(IntPoly.parse("-2,0,0,0,0,0,1"))


def test_corpus_orbit_invariants():
    from salemtori.salem import enumerate_special

    seen = set()
    for _q, p, _cls in enumerate_special(1):
        key = p.format()
        if key in seen:
            continue
        seen.add(key)
        part = pair_orbit_partition(p)
        sizes = sorted(len(o) for o in part)
        assert sum(sizes) == 15
        assert RECIPROCAL_BLOCK in part
        pts = sorted(pr for o in part for pr in o)
        assert pts == sorted(ALL_PAIRS)
    assert len(seen) == 12


def test_corpus_class_properties():
    from salemtori.salem import enumerate_special

    labels = set()
    for _q, p, _cls in itertools.islice(enumerate_special(1), 4):
        rep = galois_class(p)
        assert rep.order % 6 == 0 and 48 % rep.order == 0
        assert all(rep.order % len(o) == 0 for o in rep.pair_orbits)
        labels.add(rep.class_label)
    assert labels <= {"H6", "G12", "H24", "G48"}
