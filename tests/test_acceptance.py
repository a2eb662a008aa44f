"""Acceptance gate.

One test per stated criterion, each asserting both the mathematical claim
and its wall-clock budget.  Run `pytest -v tests/test_acceptance.py` for
one pass/fail line per criterion.
"""

import json
import random
import sys
import time
from fractions import Fraction

from salemtori import (
    IntPoly,
    Lattice,
    ZeroLattice,
    char_poly,
    companion,
    dynamical_degrees,
    factor_over_z,
    fibration_exists,
    first_dynamical_degree_salem,
    gross_mcmullen,
    is_salem,
    is_squarefree,
    isolate_roots,
    pair_orbit_partition,
    product_torus_example,
    saturate,
)
from salemtori.cli import main
from salemtori.intpoly import cauchy_bound, ext_gcd_rational, gcd, square_value_poly, sturm_count

P1 = "1,3,5,5,5,3,1"
P2 = "1,-5,13,-11,13,-5,1"
P3 = "1,1,3,1,3,1,1"


class _Budget:
    """Context manager asserting the block finished inside its budget."""

    def __init__(self, seconds):
        self.budget = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.seconds = time.monotonic() - self.start
        if exc_type is None:
            assert self.seconds <= self.budget, (
                f"took {self.seconds:.1f}s, budget {self.budget}s"
            )
        return False


def _cli_json(argv):
    chunks = []

    class _Sink:
        def write(self, text):
            chunks.append(text)
            return len(text)

    previous = sys.stdout
    sys.stdout = _Sink()
    try:
        code = main(argv)
    finally:
        sys.stdout = previous
    return code, json.loads("".join(chunks))


def _rand_poly(rng, deg, coeff=9, monic=False):
    cs = [rng.randint(-coeff, coeff) for _ in range(deg)]
    cs.append(1 if monic else rng.choice([c for c in range(-coeff, coeff + 1) if c]))
    return IntPoly(tuple(cs))


def test_criterion_1_worked_example_table():
    with _Budget(120):
        code, doc = _cli_json(["verify-examples"])
    assert code == 0
    rows = doc["results"]["table"]
    assert doc["results"]["all_match"] is True
    assert [r["poly"] for r in rows] == [P1, P2, P3]
    assert all(r["match"] for r in rows)
    assert rows[0]["computed"] == {
        "class": "H6",
        "order": 6,
        "rho_product_one": [9],
        "projective_product_one": [True],
        "fibration_exists": False,
        "rho_other": [3],
        "projective_other": [False],
    }
    assert rows[1]["computed"]["class"] == "G12"
    assert rows[1]["computed"]["order"] == 12
    assert rows[1]["computed"]["rho_product_one"] == [9]
    assert rows[1]["computed"]["projective_product_one"] == [True]
    assert rows[2]["computed"]["class"] == "G48"
    assert rows[2]["computed"]["order"] == 48
    assert rows[2]["computed"]["rho"] == 0
    assert rows[2]["computed"]["projective"] is False
    assert rows[2]["computed"]["fibration_exists"] is False


def test_criterion_2_pair_orbit_sizes():
    for text, sizes in ((P1, (3, 3, 3, 6)), (P2, (3, 6, 6)), (P3, (3, 12))):
        with _Budget(10):
            partition = pair_orbit_partition(IntPoly.parse(text))
        assert tuple(sorted(len(o) for o in partition)) == sizes


def test_criterion_3_first_dynamical_degree():
    with _Budget(5):
        rep = dynamical_degrees(companion(IntPoly.parse(P1)), 3)
    # t^3 - 3t^2 + 2t - 1 has one real root, about 2.32472
    cubic = IntPoly.parse("-1,2,-3,1")
    for m in (1, 2):
        lo, hi = rep.lambdas[m]
        assert hi - lo <= Fraction(1, 10**9)
        assert cubic.evaluate(lo) * cubic.evaluate(hi) < 0
    assert (1, 2) in rep.exact_equalities
    assert rep.lambdas[0] == (1, 1)
    assert rep.lambdas[3] == (1, 1)


def test_criterion_4_salem_generator():
    with _Budget(60):
        for two_k in range(2, 17, 2):
            g = gross_mcmullen(two_k)
            assert g.degree == two_k
            assert is_salem(g).is_salem
        assert gross_mcmullen(4) == IntPoly.parse("1,-5,7,-5,1")


def test_criterion_5_product_torus():
    with _Budget(120):
        model, rep = product_torus_example(4)
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert pair in rep.exact_equalities
    assert rep.lambdas[0] == (1, 1)
    assert rep.lambdas[4] == (1, 1)
    lo, hi = rep.lambdas[1]
    assert hi - lo <= Fraction(1, 10**6)
    # the middle degree is alpha^2 for the degree-4 Salem alpha: it is a
    # root of the exact minimal polynomial of the squared roots
    squares = square_value_poly(model.poly)
    assert squares == IntPoly.parse("1,-11,1,-11,1")
    assert squares.evaluate(lo) * squares.evaluate(hi) < 0
    assert abs(float(lo) - 10.99925469285987) < 1e-6


def test_criterion_6_corpus_property_suite():
    with _Budget(1800):
        code, doc = _cli_json(["sweep", "--trace-coeff-bound", "5"])
        assert code == 0
        res = doc["results"]
        # (a) irreducible, no fibration; (b) first degree never Salem;
        # (c) rho in {0,3,9} with projective iff 9; (d) log-concavity and
        # lambda_1 = lambda_2: all checked per instance by the sweep
        assert res["violation_count"] == 0
        assert res["violations"] == []
        assert all(row["ok"] for row in res["rows"])
        assert res["special_count"] >= 100
        assert res["special_count"] == len(res["rows"])
        # (b) converse half: reducible Salem times cyclotomic corpus
        salem_factor = gross_mcmullen(2)
        for cyclotomic in ("1,1,1,1,1", "1,0,0,0,1", "1,-1,1,-1,1", "1,0,-1,0,1"):
            f = salem_factor * IntPoly.parse(cyclotomic)
            assert first_dynamical_degree_salem(f) is True
            assert fibration_exists(f) is True


def test_criterion_7_randomized_exactness():
    with _Budget(300):
        rng = random.Random(4242)

        # factorization round trip: 500 random products recombine exactly
        for _ in range(500):
            f = _rand_poly(rng, rng.randint(1, 8)) * _rand_poly(rng, rng.randint(1, 8))
            assert factor_over_z(f).expand() == f

        # char poly of companion: 200 random monic polynomials
        for _ in range(200):
            p = _rand_poly(rng, rng.randint(1, 8), monic=True)
            assert char_poly(companion(p)) == p

        # Sturm vs certified numeric isolation: 200 squarefree cubics and
        # quartics; a root is real exactly when it is its own conjugate
        done = 0
        while done < 200:
            p = _rand_poly(rng, rng.choice((3, 4)))
            if p.degree < 3 or not is_squarefree(p):
                continue
            system = isolate_roots(p, Fraction(1, 2**24))
            numeric = sum(1 for i in range(p.degree) if system.conj[i] == i)
            bound = cauchy_bound(p) + 1
            assert sturm_count(p, -bound, bound) == numeric
            done += 1

        # saturation idempotence on 100 random lattices
        done = 0
        while done < 100:
            n = rng.randint(2, 5)
            cols = [
                tuple(rng.randint(-6, 6) for _ in range(n))
                for _ in range(rng.randint(1, n))
            ]
            try:
                lat = Lattice.from_columns(n, cols)
            except ZeroLattice:
                continue
            sat = saturate(lat)
            assert saturate(sat) == sat
            assert sat.rank == lat.rank
            assert sat.contains_lattice(lat)
            done += 1

        # Bezout identity re-expansion on 100 coprime pairs
        done = 0
        while done < 100:
            f1 = _rand_poly(rng, rng.randint(1, 5))
            f2 = _rand_poly(rng, rng.randint(1, 5))
            if f1.degree < 1 or f2.degree < 1 or gcd(f1, f2).degree != 0:
                continue
            h1, h2, n = ext_gcd_rational(f1, f2)
            assert h1 * f1 + h2 * f2 == IntPoly.constant(n)
            done += 1
