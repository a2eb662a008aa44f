"""Seeded inputs for the benchmark workloads.

The generators never ask the code under test what to generate.  Special
sextics come from the trace-cubic criterion in plain integer arithmetic
plus sympy's irreducibility test, Galois orders come from sympy, and the
lattice instances are assembled from a literal table of factors whose
answers follow from the construction.  Everything is returned as plain
integer tuples; workloads.py wraps them in the library's types.

sympy is imported only inside the functions that use it.  The benchmark
process calls those through in_child(), which runs this file as a child
process, so the measured process never holds sympy:

    echo "('corpus_for_seed', (1,))" | python3 perfbench/generate.py
"""

from __future__ import annotations

import ast
import random
import subprocess
import sys
from math import comb

BOX_BOUND = 5
BOX_SIZE = 364  # special sextics in the bound-5 box, as the acceptance sweep finds
GALOIS_LABELS = {6: "H6", 12: "G12", 24: "H24", 48: "G48"}
CORPUS_STRATA = 16
GALOIS_STRATA = 8  # sextics per Galois class
# (c2, c1, c0) of special sextics just outside the box, for warming up
WARMUP_TRACE_CUBICS = ((0, 1, 6), (0, 0, 6))
CHILD_TIMEOUT_S = 170


# ---------------------------------------------------------------------------
# special sextics from trace cubics


def trace_root_pattern(c2: int, c1: int, c0: int) -> bool:
    """Whether t^3 + c2 t^2 + c1 t + c0 has exactly one real root and it
    lies in (-2, 2): a negative discriminant, and a sign change of the
    cubic across the interval."""
    disc = (
        18 * c2 * c1 * c0
        - 4 * c2**3 * c0
        + c2 * c2 * c1 * c1
        - 4 * c1**3
        - 27 * c0 * c0
    )
    if disc >= 0:
        return False
    at_minus_two = -8 + 4 * c2 - 2 * c1 + c0
    at_two = 8 + 4 * c2 + 2 * c1 + c0
    return at_minus_two < 0 < at_two


def lift_trace_cubic(c2: int, c1: int, c0: int) -> tuple:
    """Coefficients, constant term first, of x^3 q(x + 1/x)."""
    out = [0] * 7
    for k, c in ((3, 1), (2, c2), (1, c1), (0, c0)):
        for j in range(k + 1):
            out[3 + k - 2 * j] += c * comb(k, j)
    return tuple(out)


def _sympy_poly(coeffs):
    import sympy

    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"))


def sympy_irreducible(coeffs) -> bool:
    return _sympy_poly(coeffs).is_irreducible


def sympy_galois_order(coeffs) -> int:
    import sympy

    group, _alt = sympy.galois_group(_sympy_poly(coeffs), by_name=False)
    return int(group.order())


def sympy_irreducible_many(polys) -> dict:
    return {coeffs: sympy_irreducible(coeffs) for coeffs in polys}


def special_box(bound: int = BOX_BOUND) -> list:
    """(trace cubic, sextic) coefficient pairs, constant term first, for
    every special sextic with |ci| <= bound, in lexicographic (c2, c1, c0)
    order."""
    box = []
    for c2 in range(-bound, bound + 1):
        for c1 in range(-bound, bound + 1):
            for c0 in range(-bound, bound + 1):
                if not trace_root_pattern(c2, c1, c0):
                    continue
                sextic = lift_trace_cubic(c2, c1, c0)
                if sympy_irreducible(sextic):
                    box.append(((c0, c1, c2, 1), sextic))
    return box


def warmup_sextics() -> list:
    """Fixed special sextics just outside the box (trace cubics t^3 + t + 6
    and t^3 + 6), so warming up touches no sampled input."""
    return [lift_trace_cubic(*cubic) for cubic in WARMUP_TRACE_CUBICS]


def mirror(sextic) -> tuple:
    """Coefficients of p(-x); it has the same splitting field as p(x)."""
    return tuple(c if i % 2 == 0 else -c for i, c in enumerate(sextic))


def galois_orders(box) -> dict:
    """sympy's Galois group order for every sextic of the box, one sympy
    call per mirror pair."""
    orders = {}
    for _trace, sextic in box:
        if sextic not in orders:
            orders[sextic] = orders[mirror(sextic)] = sympy_galois_order(sextic)
    return orders


def height(sextic) -> int:
    return max(abs(c) for c in sextic)


def _bit_reversed(k: int) -> list:
    """0 .. k-1, k a power of two, in bit-reversed order: every prefix of
    it spreads evenly over the range."""
    bits = k.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0 for i in range(k)]


def stratified_order(members: list, k: int, rng: random.Random) -> list:
    """members, sorted by expected cost, cut into k strata of equal size,
    each shuffled; then dealt one per stratum per round, strata in
    bit-reversed order.  Every prefix of the result spreads over the whole
    cost range, so runs of different seeds cost about the same."""
    n = len(members)
    strata = [members[i * n // k : (i + 1) * n // k] for i in range(k)]
    for stratum in strata:
        rng.shuffle(stratum)
    visit = _bit_reversed(k)
    rounds = max(len(stratum) for stratum in strata)
    return [strata[j][r] for r in range(rounds) for j in visit if r < len(strata[j])]


def corpus_sample(box, seed: int) -> list:
    """The whole box in a seeded, stratified order; a run takes a prefix.
    A sweep row costs less on the classes of smaller Galois order and on
    shorter sextics, so the box is sorted by (order, height) before it is
    cut into CORPUS_STRATA strata."""
    orders = galois_orders(box)
    members = sorted((s for _t, s in box), key=lambda s: (orders[s], height(s), s))
    return stratified_order(members, CORPUS_STRATA, random.Random(f"corpus-sweep:{seed}"))


def galois_sample(box, seed: int) -> list:
    """(sextic, sympy order) pairs with equal shares of each Galois class,
    interleaved H6, G12, H24, G48, H6, ...

    Within a class, galois_class costs more on taller sextics: the class
    is sorted by height and the sample takes the first GALOIS_STRATA of its
    stratified order, one sextic from each height stratum."""
    orders = galois_orders(box)
    rng = random.Random(f"galois-census:{seed}")
    picks = {}
    for order in GALOIS_LABELS:
        members = sorted((s for _t, s in box if orders[s] == order), key=lambda s: (height(s), s))
        if len(members) < GALOIS_STRATA:
            raise RuntimeError(f"the box holds too few sextics of {GALOIS_LABELS[order]}")
        picks[order] = stratified_order(members, GALOIS_STRATA, rng)[:GALOIS_STRATA]
    return [(picks[o][r], o) for r in range(GALOIS_STRATA) for o in GALOIS_LABELS]


def corpus_for_seed(seed: int) -> list:
    return corpus_sample(special_box(), seed)


def galois_for_seed(seed: int) -> list:
    return galois_sample(special_box(), seed)


# ---------------------------------------------------------------------------
# lattice instances

# name: (coefficients constant first, family)
FACTORS = {
    "phi3": ((1, 1, 1), "cyclotomic"),
    "phi4": ((1, 0, 1), "cyclotomic"),
    "phi6": ((1, -1, 1), "cyclotomic"),
    "phi5": ((1, 1, 1, 1, 1), "cyclotomic"),
    "phi8": ((1, 0, 0, 0, 1), "cyclotomic"),
    "phi10": ((1, -1, 1, -1, 1), "cyclotomic"),
    "phi12": ((1, 0, -1, 0, 1), "cyclotomic"),
    "salem2a": ((1, -3, 1), "salem"),
    "salem2b": ((1, -4, 1), "salem"),
    "salem2c": ((1, -5, 1), "salem"),
    "salem4a": ((1, -1, -1, -1, 1), "salem"),
    "salem4b": ((1, -2, 1, -2, 1), "salem"),
    "salem4c": ((1, -3, 3, -3, 1), "salem"),
    "salem4d": ((1, -5, 7, -5, 1), "salem"),
    "salem6": ((1, 0, -1, -1, -1, 0, 1), "salem"),
    "salem8": ((1, 0, 0, -1, -1, -1, 0, 0, 1), "salem"),
    "special1": ((1, 3, 5, 5, 5, 3, 1), "special"),
    "special2": ((1, -5, 13, -11, 13, -5, 1), "special"),
    "special3": ((1, 1, 3, 1, 3, 1, 1), "special"),
}

# a block is the companion matrix of factor**power
BLOCKS = tuple((name, 1) for name in FACTORS) + (("phi3", 2), ("phi4", 2), ("phi6", 2))

# one round of lattice-maps instances: (kind, ranks, block mix).  Every
# run cycles through rounds, so the mix of kinds, and with it the cost per
# instance, varies little between seeds.  A "light" mix holds at most one
# distinct Salem factor; a "special" mix holds a special sextic; a "pair"
# mix holds two distinct Salem factors, whose top eigenvalues are both real.
# A special matrix costs about twenty light ones and a pair about five, so
# each comes once a round: a run then gets through several hundred
# instances, and the median falls among the light matrices and reducible
# sextics rather than on the edge between two kinds.
_LIGHT_RUN = (
    ("matrix", (4,), "light"),
    ("matrix", (6,), "light"),
    ("matrix", (8,), "light"),
    ("sextic", (), None),
    ("matrix", (4,), "light"),
    ("salem", (), None),
    ("matrix", (6,), "light"),
)
LATTICE_ROUND = (
    _LIGHT_RUN * 2
    + (("matrix", (4, 6, 8), "pair"),)
    + _LIGHT_RUN * 2
    + (("matrix", (6, 8), "special"),)
)
LATTICE_ROUNDS = 150  # far more than a run gets through
SALEM_DEGREES = (2, 4, 6, 8, 10, 12, 14, 16)


def factor_degree(name: str) -> int:
    return len(FACTORS[name][0]) - 1


def block_degree(block) -> int:
    name, power = block
    return factor_degree(name) * power


def poly_mul(a, b) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_pow(a, k: int) -> tuple:
    out = (1,)
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def companion_rows(coeffs) -> list:
    """Companion matrix of a monic polynomial, as integer rows: ones on
    the subdiagonal and minus the low coefficients in the last column."""
    n = len(coeffs) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -coeffs[i]
    return rows


def _family(name: str) -> str:
    return FACTORS[name][1]


def _named(family: str, degree: int) -> list:
    return sorted(
        n for n, (c, f) in FACTORS.items() if f == family and len(c) - 1 == degree
    )


def _fill(rng: random.Random, blocks: list, rank: int, salem_ok: bool) -> tuple:
    """Add blocks until the degrees sum to rank: cyclotomic blocks, plus
    Salem blocks when salem_ok, keeping at most one distinct Salem factor."""
    remaining = rank - sum(block_degree(b) for b in blocks)
    salems = {n for n, _k in blocks if _family(n) == "salem"}
    while remaining:
        fits = [
            (n, k)
            for n, k in BLOCKS
            if block_degree((n, k)) <= remaining
            and (
                _family(n) == "cyclotomic"
                or (salem_ok and _family(n) == "salem" and salems <= {n})
            )
        ]
        block = rng.choice(fits)
        blocks.append(block)
        if _family(block[0]) == "salem":
            salems.add(block[0])
        remaining -= block_degree(block)
    return tuple(sorted(blocks))


def _draw_blocks(rng: random.Random, rank: int, mix: str) -> tuple:
    if mix == "light":
        return _fill(rng, [], rank, salem_ok=True)
    if mix == "special":
        return _fill(rng, [(rng.choice(_named("special", 6)), 1)], rank, salem_ok=False)
    salems = sorted(n for n in FACTORS if _family(n) == "salem")
    pairs = [
        (a, b)
        for a in salems
        for b in salems
        if a < b and factor_degree(a) + factor_degree(b) <= rank
    ]
    a, b = rng.choice(pairs)
    return _fill(rng, [(a, 1), (b, 1)], rank, salem_ok=False)


def _unimodular_pair(rng: random.Random, n: int, steps: int):
    """U and its inverse from `steps` elementary row operations."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [row[:] for row in u]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # U <- (I + c e_ij) U ; U^-1 <- U^-1 (I - c e_ij)
        for k in range(n):
            u[i][k] += c * u[j][k]
        for k in range(n):
            v[k][j] -= c * v[k][i]
    return u, v


def _matmul(a, b) -> list:
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)] for i in range(n)]


def block_diagonal(blocks) -> list:
    n = sum(block_degree(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for name, power in blocks:
        rows = companion_rows(poly_pow(FACTORS[name][0], power))
        d = len(rows)
        for i in range(d):
            out[at + i][at : at + d] = rows[i]
        at += d
    return out


def _sextic_instance(rng: random.Random):
    """A reducible unimodular sextic: Salem times cyclotomic (first degree
    Salem) three times in four, cyclotomic only (first degree 1) otherwise."""
    cyc2, cyc4 = _named("cyclotomic", 2), _named("cyclotomic", 4)
    if rng.random() < 0.75:
        if rng.random() < 0.5:
            parts = (rng.choice(_named("salem", 2)), rng.choice(cyc4))
        else:
            parts = (rng.choice(_named("salem", 4)), rng.choice(cyc2))
    else:
        parts = (rng.choice(cyc4), rng.choice(cyc2))
    return ("sextic", tuple(sorted(parts)))


def lattice_instances(seed: int, rounds: int = LATTICE_ROUNDS) -> list:
    """Seeded lattice-maps instances:
    ("matrix", blocks, rows) with rows = U * B * U^-1 for the block
    diagonal B; ("sextic", factor names); ("salem", degree)."""
    rng = random.Random(f"lattice-maps:{seed}")
    out = []
    for _ in range(rounds):
        for kind, ranks, mix in LATTICE_ROUND:
            if kind == "matrix":
                rank = rng.choice(ranks)
                blocks = _draw_blocks(rng, rank, mix)
                u, v = _unimodular_pair(rng, rank, 2 * rank)
                rows = _matmul(_matmul(u, block_diagonal(blocks)), v)
                out.append(("matrix", blocks, tuple(map(tuple, rows))))
            elif kind == "sextic":
                out.append(_sextic_instance(rng))
            else:
                out.append(("salem", rng.choice(SALEM_DEGREES)))
    return out


# ---------------------------------------------------------------------------
# child process


def in_child(name: str, *args):
    """name(*args) of this module, computed in a child Python process.

    Arguments and result travel as Python literals of plain data, so the
    caller imports nothing the child needs."""
    done = subprocess.run(
        [sys.executable, __file__],
        input=repr((name, args)),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"generate.py {name}{args} failed:\n{done.stderr}")
    return ast.literal_eval(done.stdout)


CHILD_CALLS = ("corpus_for_seed", "galois_for_seed", "sympy_irreducible_many")


def main() -> int:
    name, args = ast.literal_eval(sys.stdin.read())
    if name not in CHILD_CALLS:
        raise SystemExit(f"generate.py: {name!r} is not one of {CHILD_CALLS}")
    print(repr(globals()[name](*args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
