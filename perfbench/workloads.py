"""The three workloads: what one instance calls, and how its answer is
checked against a reference that does not use the code under test.

Each workload offers
  generate(seed)   the seeded instance list, plain integer data;
  warmup()         fixed instances, outside every sample, run once per
                   set-up;
  run(instance)    the library calls of one instance, returning a
                   JSON-able result with exact values as strings;
  references(instances, results)
                   reference data needed by check() that is computed in
                   one batch, such as sympy's verdicts, from a child
                   process;
  check(instance, result, refs)
                   a list of problems, empty when the answer is right.

This module and the benchmark process import mpmath (which salemtori
needs anyway) but never sympy; everything sympy decides comes from
generate.in_child().

The library is reached through the `salemtori` package namespace at call
time, so timing wrappers installed there are seen.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath

import generate as gen
import salemtori as st


def _q(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _interval(pair) -> list:
    return [_q(Fraction(pair[0])), _q(Fraction(pair[1]))]


def _degrees(rep) -> dict:
    return {
        "lambdas": [_interval(pair) for pair in rep.lambdas],
        "equalities": sorted(list(e) for e in rep.exact_equalities),
        "salem_first": rep.salem_first,
    }


def _mpf(text: str):
    num, den = text.split("/")
    return mpmath.mpf(int(num)) / int(den)


@lru_cache(maxsize=None)
def _moduli(coeffs: tuple, dps: int) -> tuple:
    """Root moduli of an integer polynomial (constant term first), largest
    first, from mpmath at dps digits."""
    with mpmath.workdps(dps):
        roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=400, extraprec=4 * dps)
        return tuple(sorted((abs(r) for r in roots), reverse=True))


def _encloses(interval, value) -> bool:
    lo, hi = (_mpf(t) for t in interval)
    return lo <= value <= hi


def _check_lambdas(lambdas, moduli, dps: int, problems: list):
    """lambda_p is the product of the 2p largest eigenvalue moduli."""
    with mpmath.workdps(dps):
        tol = mpmath.mpf(10) ** (-(dps // 2))
        for p, interval in enumerate(lambdas):
            value = mpmath.fprod(moduli[: 2 * p])
            lo, hi = (_mpf(t) for t in interval)
            if not lo - tol <= value <= hi + tol:
                problems.append(f"lambda_{p} {interval} misses {mpmath.nstr(value, 20)}")


class Workload:
    def references(self, instances, results):
        return None


class CorpusSweep(Workload):
    """One `salemtori sweep` row per instance, on the bound-5 box."""

    name = "corpus-sweep"
    trace_items = 8

    def generate(self, seed: int) -> list:
        return gen.in_child("corpus_for_seed", seed)

    def warmup(self) -> list:
        return gen.warmup_sextics()

    def run(self, sextic) -> dict:
        p = st.IntPoly(sextic)
        cls = st.classify_special(p)
        deg = st.dynamical_degrees(st.companion(p), 3)
        table = st.picard_table(p)
        return {
            "special": cls.is_special,
            "degrees": _degrees(deg),
            "picard": [[list(t), flag, rep.rho, rep.projective] for t, flag, rep in table],
            "irreducible": st.is_irreducible(p),
            "fibration": st.fibration_exists(p),
            "first_salem": st.first_dynamical_degree_salem(p),
        }

    def check(self, sextic, result, _refs=None) -> list:
        problems = []
        expect = {"special": True, "irreducible": True, "fibration": False, "first_salem": False}
        for key, value in expect.items():
            if result[key] != value:
                problems.append(f"{key} is {result[key]}, expected {value}")
        deg = result["degrees"]
        if [1, 2] not in deg["equalities"]:
            problems.append("lambda_1 = lambda_2 not certified")
        lambdas = [tuple(Fraction(t) for t in pair) for pair in deg["lambdas"]]
        if len(lambdas) != 4 or lambdas[0] != (1, 1) or lambdas[3] != (1, 1):
            problems.append(f"outer degrees are not exactly 1: {deg['lambdas']}")
        else:
            for m in (1, 2):
                if lambdas[m][1] ** 2 < lambdas[m - 1][0] * lambdas[m + 1][0]:
                    problems.append(f"enclosures refute log-concavity at {m}")
            with mpmath.workdps(200):
                top = _moduli(sextic, 200)[0] ** 2
                for m in (1, 2):
                    if not _encloses(deg["lambdas"][m], top):
                        problems.append(f"lambda_{m} misses |alpha|^2")
        rows = result["picard"]
        if len(rows) != 8:
            problems.append(f"{len(rows)} Picard rows, expected 8")
        for triple, _flag, rho, projective in rows:
            if rho not in (0, 3, 9):
                problems.append(f"rho {rho} at {triple} is not 0, 3 or 9")
            if projective != (rho == 9):
                problems.append(f"projective {projective} with rho {rho} at {triple}")
        return problems


class GaloisCensus(Workload):
    """One galois_class call per sextic, equal shares of the four classes."""

    name = "galois-census"
    trace_items = 8

    def generate(self, seed: int) -> list:
        return gen.in_child("galois_for_seed", seed)

    def warmup(self) -> list:
        return [(s, None) for s in gen.warmup_sextics()]

    def run(self, instance) -> dict:
        rep = st.galois_class(st.IntPoly(instance[0]))
        return {
            "label": rep.class_label,
            "order": rep.order,
            "orbit_sizes": sorted(len(o) for o in rep.pair_orbits),
        }

    def check(self, instance, result, _refs=None) -> list:
        order = instance[1]
        expect = (gen.GALOIS_LABELS[order], order)
        got = (result["label"], result["order"])
        return [] if got == expect else [f"class {got}, sympy says {expect}"]


class LatticeMaps(Workload):
    """Many small instances on unimodular lattice maps, reducible sextics
    and Salem generators."""

    name = "lattice-maps"
    trace_items = 60  # two rounds

    def generate(self, seed: int) -> list:
        return gen.lattice_instances(seed)

    def warmup(self) -> list:
        blocks = (("phi3", 1), ("salem2a", 1))
        rows = tuple(map(tuple, gen.block_diagonal(blocks)))
        return [("matrix", blocks, rows), ("sextic", ("phi5", "salem2a")), ("salem", 4)]

    def run(self, instance) -> dict:
        kind = instance[0]
        if kind == "matrix":
            m = st.IntMatrix(instance[2])
            out = _degrees(st.dynamical_degrees(m, m.nrows // 2))
            try:
                rep = st.build_fibrations(m)
            except st.NoDecomposition:
                out["route"] = "none"
                return out
            out["route"] = rep.route
            out["components"] = sorted(
                [c.rank, list(c.induced_char_poly.coeffs)] for c in rep.submodules
            )
            return out
        if kind == "sextic":
            p = st.IntPoly(self.sextic(instance))
            return {"first_salem": st.first_dynamical_degree_salem(p)}
        g = st.gross_mcmullen(instance[1])
        cert = st.is_salem(g)
        return {
            "poly": list(g.coeffs),
            "is_salem": cert.is_salem,
            "lambda": None if cert.lambda_ is None else _interval(cert.lambda_),
        }

    @staticmethod
    def sextic(instance) -> tuple:
        a, b = instance[1]
        return gen.poly_mul(gen.FACTORS[a][0], gen.FACTORS[b][0])

    def references(self, instances, results) -> dict:
        """sympy's irreducibility verdict on every Salem generator output."""
        polys = sorted(
            {
                tuple(result["poly"])
                for instance, result in zip(instances, results)
                if instance[0] == "salem" and result is not None
            }
        )
        return gen.in_child("sympy_irreducible_many", polys) if polys else {}

    def check(self, instance, result, refs) -> list:
        kind = instance[0]
        if kind == "matrix":
            return self._check_matrix(instance[1], result)
        if kind == "sextic":
            expect = any(gen.FACTORS[n][1] == "salem" for n in instance[1])
            got = result["first_salem"]
            return [] if got == expect else [f"first degree Salem {got}, expected {expect}"]
        return self._check_salem(instance[1], result, refs)

    def _check_matrix(self, blocks, result) -> list:
        problems = []
        exponent = {}
        for name, power in blocks:
            exponent[name] = exponent.get(name, 0) + power
        chi = (1,)
        for name, e in sorted(exponent.items()):
            chi = gen.poly_mul(chi, gen.poly_pow(gen.FACTORS[name][0], e))
        rank = len(chi) - 1

        # the fibration route follows from the block multiset
        if len(exponent) >= 2:
            route = "coprime_factors"
        elif max(power for _n, power in blocks) >= 2:
            route = "kernel_of_power"
        else:
            route = "none"
        if result["route"] != route:
            problems.append(f"route {result['route']}, expected {route}")
        elif route == "coprime_factors":
            comps = sorted(tuple(c[1]) for c in result["components"])
            splits = []
            for name, e in exponent.items():
                own = gen.poly_pow(gen.FACTORS[name][0], e)
                rest = (1,)
                for other, e2 in exponent.items():
                    if other != name:
                        rest = gen.poly_mul(rest, gen.poly_pow(gen.FACTORS[other][0], e2))
                splits.append(sorted((own, rest)))
            if comps not in splits:
                problems.append(f"induced char polys {comps} split no factor off {chi}")
            if any(r != len(c) - 1 for r, c in result["components"]):
                problems.append("a component rank differs from its char poly degree")
        elif route == "kernel_of_power":
            (name,) = exponent
            f = gen.FACTORS[name][0]
            expect = [[(len(f) - 1) * len(blocks), list(gen.poly_pow(f, len(blocks)))]]
            if result["components"] != expect:
                problems.append(f"kernel component {result['components']}, expected {expect}")

        # dynamical degrees against mpmath moduli of the blocks
        moduli = []
        for name, power in blocks:
            moduli.extend(_moduli(gen.FACTORS[name][0], 60) * power)
        moduli.sort(reverse=True)
        if len(result["lambdas"]) != rank // 2 + 1:
            problems.append(f"{len(result['lambdas'])} degrees for rank {rank}")
            return problems
        _check_lambdas(result["lambdas"], moduli, 60, problems)
        with mpmath.workdps(60):
            values = [mpmath.fprod(moduli[: 2 * p]) for p in range(rank // 2 + 1)]
            equal = sorted(
                [p, q]
                for p in range(len(values))
                for q in range(p + 1, len(values))
                if abs(values[p] - values[q]) < mpmath.mpf(10) ** -30
            )
        if result["equalities"] != equal:
            problems.append(f"certified equalities {result['equalities']}, expected {equal}")
        return problems

    def _check_salem(self, two_k: int, result, refs) -> list:
        problems = []
        coeffs = tuple(result["poly"])
        if len(coeffs) - 1 != two_k or coeffs[-1] != 1 or coeffs != coeffs[::-1]:
            return [f"{coeffs} is not a monic reciprocal polynomial of degree {two_k}"]
        if not result["is_salem"]:
            problems.append("is_salem rejects the generator's output")
        salem_root = _salem_root(coeffs)
        if not refs[coeffs]:
            problems.append("sympy finds the generator's output reducible")
        if salem_root is None:
            problems.append("root moduli are not those of a Salem polynomial")
        elif result["lambda"] is None:
            problems.append("no lambda enclosure")
        else:
            with mpmath.workdps(60):
                if not _encloses(result["lambda"], salem_root):
                    problems.append("lambda enclosure misses the Salem root")
        return problems


@lru_cache(maxsize=None)
def _salem_root(coeffs: tuple):
    """The root > 1 when mpmath finds exactly one root off the unit circle
    on each side and the outer one is real, else None."""
    with mpmath.workdps(60):
        roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=400, extraprec=240)
        tol = mpmath.mpf(10) ** -30
        big = [r for r in roots if abs(r) > 1 + tol]
        small = [r for r in roots if abs(r) < 1 - tol]
        ok = len(big) == 1 and len(small) == 1 and abs(mpmath.im(big[0])) <= tol
        return mpmath.re(big[0]) if ok else None


WORKLOADS = {w.name: w for w in (CorpusSweep(), GaloisCensus(), LatticeMaps())}
