"""Sharing through the per-sextic analysis.

Each public question on a special sextic classifies it once and isolates
its roots once, and one analysis passed to several questions does both
only once in total.  A sweep row isolates the sextic and nothing else:
values are located among resolvent factors by zero exclusion, which
isolates no factor; nor does it factor any polynomial twice.  None of
the questions builds a
matrix characteristic polynomial: the pair and triple resolvents come
from power sums.
"""

import argparse
from collections import Counter
from fractions import Fraction

import pytest

from salemtori import certroots, cli, exactlin, galois, intpoly, salem, torus
from salemtori.exceptions import NotSpecial
from salemtori.intpoly import FactorList, IntPoly
from salemtori.salem import SexticAnalysis, classify_special

from isolation_route import isolation_owner

P1 = IntPoly.parse("1,3,5,5,5,3,1")
P2 = IntPoly.parse("1,-5,13,-11,13,-5,1")
P3 = IntPoly.parse("1,1,3,1,3,1,1")
P24 = IntPoly.parse("1,-2,5,-6,5,-2,1")


@pytest.fixture
def counts(monkeypatch):
    seen = {"classify": 0, "isolate": 0}
    classify = salem.classify_special
    isolate = certroots.isolate_roots

    def counting_classify(p):
        if p == P1:
            seen["classify"] += 1
        return classify(p)

    def counting_isolate(p, eps):
        if p == P1:
            seen["isolate"] += 1
        return isolate(p, eps)

    monkeypatch.setattr(salem, "classify_special", counting_classify)
    # certroots' own name is left alone: value matching isolates the
    # factors of its resolvents there, and T8 of P1 has P1 as a factor
    for module in (salem, galois, torus):
        monkeypatch.setattr(module, "isolate_roots", counting_isolate, raising=False)
    return seen


@pytest.mark.parametrize(
    "question",
    [torus.picard_table, galois.galois_class, salem.first_dynamical_degree_salem],
    ids=["picard_table", "galois_class", "first_dynamical_degree_salem"],
)
def test_each_question_classifies_and_isolates_once(counts, question):
    question(P1)
    assert counts == {"classify": 1, "isolate": 1}


@pytest.fixture
def matrix_counts(monkeypatch):
    seen = {"char_poly": 0}
    for name in seen:

        def counting(*args, _name=name, _real=getattr(exactlin, name)):
            seen[_name] += 1
            return _real(*args)

        for module in (exactlin, salem, galois, torus):
            monkeypatch.setattr(module, name, counting, raising=False)
    return seen


@pytest.mark.parametrize(
    "question",
    [torus.picard_table, galois.galois_class, salem.first_dynamical_degree_salem],
    ids=["picard_table", "galois_class", "first_dynamical_degree_salem"],
)
def test_questions_build_no_matrix_char_poly(matrix_counts, question):
    # exterior powers come from power sums; the library has no minor matrices
    assert not hasattr(exactlin, "wedge_power")
    question(P1)
    assert matrix_counts == {"char_poly": 0}
    # the counter sees the lattice map's own char poly
    salem.dynamical_degrees(exactlin.companion(P1), 3)
    assert matrix_counts == {"char_poly": 1}


def test_one_analysis_shared_by_all_questions(counts):
    sx = SexticAnalysis(P1)
    rep = galois.galois_class(sx)
    table = torus.picard_table(sx)
    assert salem.first_dynamical_degree_salem(sx) is False
    model = torus.standard_construction(sx, (0, 2, 4))
    pic = torus.picard_number(model)
    assert counts == {"classify": 1, "isolate": 1}
    # the shared answers equal fresh ones
    assert rep == galois.galois_class(P1)
    assert table == torus.picard_table(P1)
    assert pic == torus.picard_number(torus.standard_construction(P1, (0, 2, 4)))


def test_given_classification_is_reused(counts):
    cls = classify_special(P1)
    counts["classify"] = counts["isolate"] = 0
    torus.picard_table(SexticAnalysis(P1, cls))
    assert counts == {"classify": 0, "isolate": 0}


def test_sweep_row_isolates_no_polynomial_twice(monkeypatch):
    # values are located among resolvent factors without isolating them,
    # so a row isolates the sextic alone and builds no modulus-tie radical
    seen = Counter()
    radicals = []
    isolate = certroots.isolate_roots
    radical = certroots._modsq_radical

    def counting_isolate(p, eps):
        seen[p] += 1
        return isolate(p, eps)

    def counting_radical(parts):
        radicals.append(parts)
        return radical(parts)

    for module in (certroots, salem, galois, torus):
        monkeypatch.setattr(module, "isolate_roots", counting_isolate, raising=False)
    for module in (certroots, salem):
        monkeypatch.setattr(module, "_modsq_radical", counting_radical)
    args = argparse.Namespace(c_max=100)
    rows = 0
    # counting starts with the classification enumerate_special hands over
    for q, p, cls in salem.enumerate_special(2):
        cli._sweep_row(q, SexticAnalysis(p, cls), args)
        assert seen == {p: 1}, str(p)
        seen.clear()
        rows += 1
    assert rows == 50
    assert radicals == []


def test_sweep_row_factors_no_polynomial_twice(monkeypatch):
    seen = Counter()
    factor = intpoly.factor_over_z

    def counting_factor(p):
        seen[p] += 1
        return factor(p)

    for module in (intpoly, certroots, salem, galois, torus):
        monkeypatch.setattr(module, "factor_over_z", counting_factor, raising=False)
    args = argparse.Namespace(c_max=100)
    rows = 0
    # the classification enumerate_special hands over has factored the
    # sextic once; the row reads its verdict and factors it no more
    for q, p, cls in salem.enumerate_special(1):
        seen.clear()
        cli._sweep_row(q, SexticAnalysis(p, cls), args)
        assert seen[p] == 0, str(p)
        assert max(seen.values()) == 1, str(p)
        rows += 1
    assert rows == 12


def test_roots_refine_monotonically():
    sx = SexticAnalysis(P1)
    assert sx.roots.eps == Fraction(1, 1 << 24)
    sx.roots.refine(Fraction(1, 1 << 128))
    fine = sx.roots.roots
    assert sx.roots.eps == Fraction(1, 1 << 128)
    sx.roots.refine(Fraction(1, 1 << 64))  # coarser request: the finer roots stay
    assert sx.roots.roots is fine
    assert sx.roots.eps == Fraction(1, 1 << 128)
    assert sx.roots.labeling == "special-canonical"


def test_plain_pair_route_needs_no_shift():
    # a conclusive exterior square (the only repeat is (t-1)^3) is read
    # directly, so no shift c is searched and c_max = 0 suffices
    sx = SexticAnalysis(P1)
    partition, route = sx.pair_orbits(c_max=0)
    assert route == ("pair-products", 0)
    assert galois.pair_orbit_partition(sx, c_max=0) == partition


@pytest.mark.parametrize("poly", [P1, P2, P3, P24], ids=["P1", "P2", "P3", "P24"])
def test_shifted_pair_route_matches_plain_route(poly):
    # no corpus sextic has a non-conclusive exterior square, so one is
    # imposed: every pair product is then read as a root of (t-1)^15, and
    # the orbits must be found with a shift c >= 1
    plain, route = SexticAnalysis(poly).pair_orbits()
    assert route == ("pair-products", 0)
    sx = SexticAnalysis(poly)
    sx.wedge2_factors = FactorList(Fraction(1), ((IntPoly.parse("-1,1"), 15),))
    shifted, (name, c) = sx.pair_orbits()
    assert name == "shifted pair-products"
    assert c >= 1
    assert shifted == plain
    # the shifted values' owners, against the isolation route
    fl = intpoly.factor_over_z(intpoly.shifted_pair_resolvent(poly, c))
    values = [sx.pair_value(i, j, c) for i, j in salem.ALL_PAIRS]
    owners = certroots.certify_value_match(values, fl)
    assert owners == [isolation_owner(v, fl) for v in values]
    assert salem._partition_from_match(owners) == shifted


def test_non_special_analysis_raises():
    sx = SexticAnalysis(IntPoly.parse("-2,0,0,0,0,0,1"))
    assert not sx.classification.is_special
    with pytest.raises(NotSpecial):
        sx.roots
    with pytest.raises(NotSpecial):
        galois.octet_data(sx)
