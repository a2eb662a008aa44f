"""Tests for torus models, Picard numbers, and fibration lattices.

Lattice facts are cross-checked with independent routes: quotient
characteristic polynomials via unimodular completion, stability by
direct membership of mapped basis vectors, and Bezout identities by
re-expansion.
"""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from salemtori import intpoly, salem, torus
from salemtori.exactlin import (
    IntMatrix,
    char_poly,
    companion,
    det,
    minimal_polynomial,
    restricted_matrix,
    saturate,
    solve_columns_exact,
)
from salemtori.exceptions import (
    InadmissibleTriple,
    InputError,
    NoDecomposition,
    NotSpecial,
    NotUnimodular,
)
from salemtori.galois import ALL_PAIRS, CONJUGATION, RECIPROCAL_BLOCK
from salemtori.intpoly import IntPoly, is_irreducible
from salemtori.salem import SexticAnalysis
from salemtori.torus import (
    CONJUGATION_PAIRS,
    admissible_triples,
    build_fibrations,
    fibration_exists,
    hodge_type,
    picard_number,
    product_torus_example,
    standard_construction,
)
from unimodular import unimodular_completion

P1 = IntPoly.parse("1,3,5,5,5,3,1")
P2 = IntPoly.parse("1,-5,13,-11,13,-5,1")
P3 = IntPoly.parse("1,1,3,1,3,1,1")
SALEM2 = IntPoly.parse("1,-3,1")
PHI5 = IntPoly.parse("1,1,1,1,1")


def _conj_triple(t):
    return tuple(sorted(CONJUGATION[i] for i in t))


def _inverse_unimodular(u):
    sols = solve_columns_exact(
        u, [tuple(col) for col in IntMatrix.identity(u.nrows).columns()]
    )
    assert sols is not None
    assert all(c.denominator == 1 for col in sols for c in col)
    return IntMatrix.from_columns([tuple(int(c) for c in col) for col in sols])


def test_admissible_triples_counts():
    for p, ap_count in ((P1, 2), (P2, 2), (P3, 0)):
        trips = admissible_triples(p)
        assert len(trips) == 8
        assert sum(1 for _t, flag in trips if flag) == ap_count
    with pytest.raises(NotSpecial):
        admissible_triples(IntPoly.parse("1,0,0,1,0,0,1"))


def test_admissible_triples_structure():
    trips = admissible_triples(P1)
    assert trips == tuple(sorted(trips))
    for t, flag in trips:
        for a, b in CONJUGATION_PAIRS:
            assert (a in t) != (b in t)
        if flag:
            # a certified product-1 triple never contains a reciprocal pair
            for a, b in ((0, 1), (2, 3), (4, 5)):
                assert (a in t) != (b in t)
    assert {t for t, flag in trips if flag} == {(0, 2, 4), (1, 3, 5)}
    assert {t for t, flag in admissible_triples(P2) if flag} == {(0, 3, 5), (1, 2, 4)}


def test_standard_construction_fields():
    model = standard_construction(P1, (0, 2, 4))
    assert model.action == companion(P1)
    assert char_poly(model.action) == P1
    assert abs(det(model.action)) == 1
    assert model.triple == (0, 2, 4)
    assert model.ap_flag is True
    assert standard_construction(P1, (0, 2, 3)).ap_flag is False
    assert standard_construction(P3, (5, 0, 3)).triple == (0, 3, 5)


def test_standard_construction_errors():
    with pytest.raises(NotSpecial):
        standard_construction(IntPoly.parse("-2,0,0,0,0,0,1"), (0, 2, 4))
    with pytest.raises(InadmissibleTriple):
        standard_construction(P1, (0, 1, 2))  # contains the conjugate pair 0,1
    with pytest.raises(InadmissibleTriple):
        standard_construction(P1, (2, 3, 4))  # nothing from the unit pair
    with pytest.raises(InadmissibleTriple):
        standard_construction(P1, (0, 2, 2))


def test_hodge_type_table():
    t = (0, 2, 4)
    assert hodge_type((0, 1), t) == (1, 1)
    assert hodge_type((2, 4), t) == (2, 0)
    assert hodge_type((3, 5), t) == (0, 2)
    # the three value-1 classes are all (1,1) for a one-per-reciprocal choice
    for pr in ((0, 1), (2, 3), (4, 5)):
        assert hodge_type(pr, t) == (1, 1)
    counts = {}
    for pr in ALL_PAIRS:
        counts[hodge_type(pr, t)] = counts.get(hodge_type(pr, t), 0) + 1
    assert counts == {(1, 1): 9, (2, 0): 3, (0, 2): 3}
    with pytest.raises(InadmissibleTriple):
        hodge_type((0, 1), (0, 1, 2))


def _rho_table(p):
    out = {}
    for t, _flag in admissible_triples(p):
        rep = picard_number(standard_construction(p, t))
        assert rep.rho == sum(len(o) for o in rep.ns_orbits)
        assert rep.projective is (rep.rho == 9)
        assert len(rep.hodge_types) == 15
        out[t] = rep.rho
    return out


def test_picard_order_six_example():
    rhos = _rho_table(P1)
    for t, flag in admissible_triples(P1):
        assert rhos[t] == (9 if flag else 3)
    rep = picard_number(standard_construction(P1, (0, 2, 4)))
    assert RECIPROCAL_BLOCK in rep.ns_orbits
    assert tuple(sorted(len(o) for o in rep.ns_orbits)) == (3, 3, 3)


def test_picard_order_twelve_example():
    rhos = _rho_table(P2)
    for t, flag in admissible_triples(P2):
        if flag:
            assert rhos[t] == 9
    assert sorted(rhos.values()) == [0, 0, 0, 0, 3, 3, 9, 9]
    rep = picard_number(standard_construction(P2, (0, 3, 5)))
    assert tuple(sorted(len(o) for o in rep.ns_orbits)) == (3, 6)


def test_picard_order_fortyeight_example():
    rhos = _rho_table(P3)
    assert set(rhos.values()) == {0, 3}
    # the arrangement with a reciprocal pair among the holomorphic
    # directions realizes Picard number 0
    assert rhos[(0, 2, 3)] == 0
    rep = picard_number(standard_construction(P3, (0, 2, 3)))
    assert rep.ns_orbits == ()
    assert rep.projective is False


def test_picard_conjugation_invariance():
    # the conjugate complex structure has the same Neron-Severi rank, on
    # the worked sextics and on every special sextic at trace bound 2
    corpus = [SexticAnalysis(p, cls) for _q, p, cls in salem.enumerate_special(2)]
    assert len(corpus) == 50
    for p in (P1, P2, P3, *corpus):
        rhos = _rho_table(p)
        for t, rho in rhos.items():
            assert rhos[_conj_triple(t)] == rho, (SexticAnalysis.of(p).poly, t)


def test_picard_numbers_0_3_9_all_occur_at_bound_2():
    # the paper: Picard numbers 0, 3 and 9 are all realized
    counts = Counter(
        rep.rho for _q, p, _cls in salem.enumerate_special(2) for _t, _f, rep in torus.picard_table(p)
    )
    assert counts == {0: 192, 3: 196, 9: 12}


def test_fibration_exists_matches_reducibility():
    for p in (P1, P2, P3):
        assert fibration_exists(p) is False
    assert fibration_exists(SALEM2 * PHI5) is True
    for p in (P1, SALEM2 * PHI5, IntPoly.parse("1,0,0,1,0,0,1")):
        assert fibration_exists(p) == (not is_irreducible(p))


def test_build_fibrations_coprime_route():
    a = companion(SALEM2).direct_sum(companion(PHI5))
    rep = build_fibrations(a)
    assert rep.exists is True and rep.route == "coprime_factors"
    assert [c.rank for c in rep.submodules] == [2, 4]
    assert [c.base_dimension for c in rep.submodules] == [1, 2]
    assert rep.submodules[0].induced_char_poly == SALEM2
    assert rep.submodules[1].induced_char_poly == PHI5
    assert sum(c.rank for c in rep.submodules) == 6

    h1, h2, n = rep.bezout
    check = h1 * SALEM2 + h2 * PHI5
    assert check.degree == 0 and check.constant_term() == n and n != 0

    phi = char_poly(a)
    for comp in rep.submodules:
        lat = comp.lattice
        assert saturate(lat) == lat
        for col in lat.basis.columns():
            assert lat.contains(a.apply(col))
        assert char_poly(restricted_matrix(a, lat.basis)) == comp.induced_char_poly
        # full conjugation by a completed basis gives the quotient block
        u = unimodular_completion(lat.basis)
        conj = _inverse_unimodular(u) * a * u
        r = lat.rank
        assert all(
            conj.rows[i][j] == 0 for i in range(r, 6) for j in range(r)
        )
        quot = IntMatrix(tuple(tuple(row[r:]) for row in conj.rows[r:]))
        assert char_poly(quot) * comp.induced_char_poly == phi


def test_build_fibrations_conjugated_lattice():
    a = companion(SALEM2).direct_sum(companion(PHI5))
    upper = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    upper[0][3] = 2
    upper[1][4] = 1
    upper[2][5] = 3
    lower = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    lower[3][0] = 1
    lower[4][2] = 2
    u = IntMatrix(tuple(tuple(r) for r in upper)) * IntMatrix(
        tuple(tuple(r) for r in lower)
    )
    assert abs(det(u)) == 1
    b = u * a * _inverse_unimodular(u)
    assert char_poly(b) == char_poly(a)
    rep = build_fibrations(b)
    assert sorted(c.rank for c in rep.submodules) == [2, 4]
    assert {c.induced_char_poly.format() for c in rep.submodules} == {
        SALEM2.format(),
        PHI5.format(),
    }
    for comp in rep.submodules:
        for col in comp.lattice.basis.columns():
            assert comp.lattice.contains(b.apply(col))


def test_build_fibrations_factors_only_the_minimal_polynomial(monkeypatch):
    seen = Counter()
    real = intpoly.factor_over_z

    def counting(p):
        seen[p] += 1
        return real(p)

    for module in (intpoly, salem, torus):
        monkeypatch.setattr(module, "factor_over_z", counting)
    # char poly (x^2-3x+1)^2 (x^2+x+1): the power of the first factor of m
    # in phi comes from exact division, not from factoring phi
    a = companion(SALEM2).direct_sum(companion(SALEM2)).direct_sum(
        companion(IntPoly.parse("1,1,1"))
    )
    m = minimal_polynomial(a)
    rep = build_fibrations(a)
    assert seen == Counter({m: 1})
    assert [c.induced_char_poly for c in rep.submodules] == [
        SALEM2 * SALEM2,
        IntPoly.parse("1,1,1"),
    ]


def test_build_fibrations_char_poly_only_for_derogatory_actions(monkeypatch):
    seen = []
    real = torus.char_poly

    def counting(a):
        seen.append(a)
        return real(a)

    monkeypatch.setattr(torus, "char_poly", counting)
    # cyclic: m = phi has degree 6, so phi is not computed from the action
    u = IntMatrix(
        (
            (1, 0, 0, 2, 0, 0),
            (0, 1, 0, 0, 1, 0),
            (0, 0, 1, 0, 0, 3),
            (1, 0, 0, 3, 0, 0),
            (0, 0, 2, 0, 1, 6),
            (0, 0, 0, 0, 0, 1),
        )
    )
    assert abs(det(u)) == 1
    b = u * companion(SALEM2).direct_sum(companion(PHI5)) * _inverse_unimodular(u)
    assert minimal_polynomial(b).degree == 6
    rep = build_fibrations(b)
    assert b not in seen
    assert len(seen) == 2  # the two restrictions
    assert rep.bezout[2] != 0
    # derogatory: m = (x^2-3x+1)(x^2+x+1) has degree 4 < 6
    seen.clear()
    a = companion(SALEM2).direct_sum(companion(SALEM2)).direct_sum(
        companion(IntPoly.parse("1,1,1"))
    )
    build_fibrations(a)
    assert seen.count(a) == 1


def test_build_fibrations_char_poly_only_on_the_coprime_route(monkeypatch):
    seen = []
    real = torus.char_poly

    def counting(a):
        seen.append(a)
        return real(a)

    monkeypatch.setattr(torus, "char_poly", counting)
    # kernel route: m = (x^2-3x+1)^2 has degree 4 < 6, and phi is not read
    a = companion(SALEM2 * SALEM2).direct_sum(companion(SALEM2))
    assert build_fibrations(a).route == "kernel_of_power"
    assert a not in seen
    assert len(seen) == 1  # the restriction
    # irreducible m = x^2-3x+1 of degree 2 < 4: no decomposition
    seen.clear()
    with pytest.raises(NoDecomposition):
        build_fibrations(companion(SALEM2).direct_sum(companion(SALEM2)))
    assert seen == []


def test_build_fibrations_kernel_route():
    c = companion(IntPoly.parse("1,0,1"))
    b = IntMatrix(
        (
            (c.rows[0][0], c.rows[0][1], 1, 0),
            (c.rows[1][0], c.rows[1][1], 0, 1),
            (0, 0, c.rows[0][0], c.rows[0][1]),
            (0, 0, c.rows[1][0], c.rows[1][1]),
        )
    )
    assert minimal_polynomial(b).degree == 4
    rep = build_fibrations(b)
    assert rep.route == "kernel_of_power" and rep.bezout is None
    (comp,) = rep.submodules
    assert comp.rank == 2 and comp.base_dimension == 1
    assert comp.induced_char_poly == IntPoly.parse("1,0,1")
    assert tuple(comp.lattice.basis.columns()) == ((1, 0, 0, 0), (0, 1, 0, 0))


def test_build_fibrations_errors():
    with pytest.raises(NoDecomposition):
        build_fibrations(IntMatrix.identity(6) * -1)
    with pytest.raises(NotUnimodular):
        build_fibrations(IntMatrix(((2, 0), (0, 1))))
    with pytest.raises(InputError):
        build_fibrations(IntMatrix(((1, 0, 0), (0, 1, 0))))


def test_product_torus_four():
    model, deg = product_torus_example(4)
    assert model.poly == IntPoly.parse("1,-5,7,-5,1")
    assert model.min_poly == model.poly
    assert model.complex_dim == 4
    assert model.action.nrows == 8
    assert char_poly(model.action) == model.poly * model.poly
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert pair in deg.exact_equalities
    lo, hi = deg.lambdas[1]
    w = IntPoly.parse("1,-11,1,-11,1")  # roots are the squared generator roots
    wlo = sum(c * Fraction(lo) ** k for k, c in enumerate(w.coeffs))
    whi = sum(c * Fraction(hi) ** k for k, c in enumerate(w.coeffs))
    assert wlo * whi < 0
    assert abs(float(lo) - 10.99925469285987) < 1e-10
    assert deg.lambdas[0] == (1, 1) and deg.lambdas[4] == (1, 1)


def test_product_torus_six_structural():
    model, deg = product_torus_example(6)
    for i in range(1, 6):
        for j in range(i + 1, 6):
            assert (i, j) in deg.exact_equalities
    assert deg.lambdas[0] == (1, 1) and deg.lambdas[6] == (1, 1)
    assert is_irreducible(model.min_poly) and model.min_poly.degree == 6


def test_product_torus_input_errors():
    with pytest.raises(InputError):
        product_torus_example(5)
    with pytest.raises(InputError):
        product_torus_example(2)


def test_special_corpus_has_no_fibration():
    from salemtori.salem import enumerate_special

    for _q, p, _cls in itertools.islice(enumerate_special(1), 12):
        assert fibration_exists(p) is False
