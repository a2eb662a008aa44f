"""Command line front end.

Every subcommand is a thin wrapper over the library: it parses the input,
calls the same functions a library user would, and prints a single
structured report on standard output.  The default rendering is JSON; with
``--format text`` the same tree is rendered as indented key/value lines.
Byte output is deterministic for a fixed input and settings.

Numbers in reports are exact integers or rationals.  Certified enclosures
appear as "center ± radius" strings whose two halves are exact
rationals, so nothing is rounded.

Exit codes: 0 success, 1 verification mismatch, 2 input error, 3 internal
invariant violation.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .exactlin import IntMatrix, companion
from .exceptions import (
    ClassificationRequired,
    ConstantPolynomial,
    InadmissibleTriple,
    InputError,
    NoDecomposition,
    NotMonic,
    NotReciprocal,
    NotSpecial,
    NotUnimodular,
    OddDegree,
    OddDegreeRequested,
    SalemtoriError,
    ScanExhausted,
    VerificationFailed,
)
from .galois import galois_class
from .intpoly import IntPoly, is_irreducible
from .salem import (
    SexticAnalysis,
    classify_special,
    dynamical_degrees,
    enumerate_special,
    gross_mcmullen,
    is_salem,
)
from .torus import (
    build_fibrations,
    fibration_exists,
    picard_number,
    picard_table,
    standard_construction,
)

_SCHEMA = "salemtori-report/3"

# errors caused by what the user passed in, as opposed to a failed internal
# certificate; they map to exit code 2
_INPUT_ERRORS = (
    InputError,
    ClassificationRequired,
    ConstantPolynomial,
    InadmissibleTriple,
    NotMonic,
    NotReciprocal,
    NotSpecial,
    NotUnimodular,
    OddDegree,
    OddDegreeRequested,
    ScanExhausted,
)


# ---------------------------------------------------------------------------
# report values


def _q(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _interval(pair) -> str:
    lo, hi = Fraction(pair[0]), Fraction(pair[1])
    center, radius = (lo + hi) / 2, (hi - lo) / 2
    return f"{_q(center)} ± {_q(radius)}"


def _jsonable(x):
    if isinstance(x, bool) or isinstance(x, (int, str)) or x is None:
        return x
    if isinstance(x, Fraction):
        return _q(x)
    if isinstance(x, (IntPoly, IntMatrix)):
        return x.format()
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, frozenset):
        return [_jsonable(v) for v in sorted(x)]
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    return str(x)


def _orbit_lists(partition):
    return [sorted(list(pr) for pr in orbit) for orbit in partition]


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (input echo, results, in-report error)


def _cmd_classify(args):
    p = IntPoly.parse(args.poly)
    cls = classify_special(p)
    results = {
        "is_special": cls.is_special,
        "conditions": {name: ok for name, ok in cls.reasons},
        "failed": cls.failed(),
        "trace_poly": None if cls.trace_poly is None else cls.trace_poly.format(),
        "real_trace_root": (
            None
            if cls.real_trace_root_interval is None
            else _interval(cls.real_trace_root_interval)
        ),
        "subcase": cls.subcase,
    }
    return {"poly": p.format()}, results, None


def _cmd_galois(args):
    p = IntPoly.parse(args.poly)
    rep = galois_class(p, c_max=args.c_max)
    results = {
        "class": rep.class_label,
        "order": rep.order,
        "pair_orbit_sizes": sorted(len(o) for o in rep.pair_orbits),
        "pair_orbits": _orbit_lists(rep.pair_orbits),
        "evidence": [[name, _jsonable(value)] for name, value in rep.evidence],
    }
    return {"poly": p.format()}, results, None


def _parse_triple(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"triple must be three comma-separated indices: {text!r}")
    try:
        return tuple(int(part.strip()) for part in parts)
    except ValueError as exc:
        raise InputError(f"bad triple literal: {text!r}") from exc


def _picard_row(triple, product_one, rep, detailed):
    row = {
        "triple": list(triple),
        "product_one": product_one,
        "rho": rep.rho,
        "projective": rep.projective,
        "ns_orbit_sizes": sorted(len(o) for o in rep.ns_orbits),
    }
    if detailed:
        row["ns_orbits"] = _orbit_lists(rep.ns_orbits)
        row["hodge_types"] = {
            ",".join(str(i) for i in pair): f"({a},{b})"
            for pair, (a, b) in sorted(rep.hodge_types.items())
        }
    return row


def _cmd_picard(args):
    p = IntPoly.parse(args.poly)
    if args.triple is not None:
        triple = _parse_triple(args.triple)
        model = standard_construction(p, triple)
        rep = picard_number(model, c_max=args.c_max)
        rows = [_picard_row(model.triple, model.ap_flag, rep, detailed=True)]
    else:
        rows = [
            _picard_row(triple, flag, rep, detailed=False)
            for triple, flag, rep in picard_table(p, c_max=args.c_max)
        ]
    return {"poly": p.format()}, {"triples": rows}, None


def _fibration_results(a: IntMatrix) -> dict:
    try:
        rep = build_fibrations(a)
    except NoDecomposition as exc:
        return {"route": "none", "exists": "undetermined", "note": str(exc)}
    return {
        "route": rep.route,
        "exists": rep.exists,
        "submodules": [
            {
                "rank": comp.rank,
                "base_dimension": comp.base_dimension,
                "induced_char_poly": comp.induced_char_poly.format(),
                "basis_columns": [list(col) for col in comp.lattice.basis.columns()],
            }
            for comp in rep.submodules
        ],
        "bezout": (
            None
            if rep.bezout is None
            else {
                "h1": rep.bezout[0].format(),
                "h2": rep.bezout[1].format(),
                "n": rep.bezout[2],
            }
        ),
    }


def _cmd_fibration(args):
    text = args.target
    if ";" in text:
        a = IntMatrix.parse(text)
        return {"matrix": a.format()}, _fibration_results(a), None
    p = IntPoly.parse(text)
    results = {"char_poly_irreducible": is_irreducible(p)}
    results["exists"] = fibration_exists(p)
    if results["exists"]:
        results.update(_fibration_results(companion(p)))
    return {"poly": p.format()}, results, None


def _cmd_degrees(args):
    a = IntMatrix.parse(args.matrix)
    rep = dynamical_degrees(a, args.dim)
    results = {
        "lambdas": [_interval(pair) for pair in rep.lambdas],
        "exact_equalities": [list(e) for e in sorted(rep.exact_equalities)],
        "salem_first": rep.salem_first,
    }
    return {"matrix": a.format(), "dim": args.dim}, results, None


def _cmd_salem_gen(args):
    g = gross_mcmullen(args.degree, a_max=args.a_max)
    cert = is_salem(g)
    results = {
        "poly": g.format(),
        "degree": g.degree,
        "is_salem": cert.is_salem,
        "trace_poly": None if cert.trace_poly is None else cert.trace_poly.format(),
        "lambda": None if cert.lambda_ is None else _interval(cert.lambda_),
    }
    return {"degree": args.degree}, results, None


def _log_concave(lambdas, equalities) -> bool:
    """lambda_m^2 >= lambda_{m-1} lambda_{m+1} for interior m, certified
    either by interval separation or by the exact equality flags."""
    top = len(lambdas) - 1
    for m in range(1, top):
        lo, _hi = lambdas[m]
        _plo, phi = lambdas[m - 1]
        _nlo, nhi = lambdas[m + 1]
        if lo * lo >= phi * nhi:
            continue
        left = (m - 1, m) in equalities
        right = (m, m + 1) in equalities
        if left and right:
            continue
        if left and lo >= nhi:
            continue
        if right and lo >= phi:
            continue
        return False
    return True


def _sweep_row(trace_poly, sx, args):
    failed = []
    deg = sx.degrees
    table = picard_table(sx, c_max=args.c_max)
    rho_values = sorted({rep.rho for _t, _f, rep in table})
    if "irreducible" in sx.classification.failed():  # then a fibration exists
        failed += ["irreducible", "no-fibration"]
    if deg.salem_first:
        failed.append("first-degree-not-salem")
    if (1, 2) not in deg.exact_equalities:
        failed.append("lambda1-equals-lambda2")
    if not _log_concave(deg.lambdas, deg.exact_equalities):
        failed.append("log-concavity")
    if not set(rho_values) <= {0, 3, 9}:
        failed.append("picard-in-0-3-9")
    if any(rep.projective != (rep.rho == 9) for _t, _f, rep in table):
        failed.append("projective-iff-rho-9")
    row = {
        "trace_poly": trace_poly.format(),
        "poly": sx.poly.format(),
        "lambda1": _interval(deg.lambdas[1]),
        "rho_values": rho_values,
        "ok": not failed,
    }
    if failed:
        row["failed"] = failed
    return row, failed


def _cmd_sweep(args):
    bound = args.trace_coeff_bound
    if bound < 0:
        raise InputError("trace coefficient bound must be nonnegative")
    rows = []
    violations = []
    for trace_poly, p, cls in enumerate_special(bound):
        row, failed = _sweep_row(trace_poly, SexticAnalysis(p, cls), args)
        rows.append(row)
        if failed:
            violations.append({"poly": p.format(), "failed": failed})
    results = {
        "trace_coeff_bound": bound,
        "special_count": len(rows),
        "violation_count": len(violations),
        "violations": violations,
        "rows": rows,
    }
    error = None
    if violations:
        error = {
            "type": "VerificationFailed",
            "message": f"{len(violations)} corpus instances fail the property suite",
        }
    return {"trace_coeff_bound": bound}, results, error


# the worked-example table: three sextics whose class, orbit structure,
# Picard numbers, and fibration verdicts are known exactly
_EXAMPLE_P1 = "1,3,5,5,5,3,1"
_EXAMPLE_P2 = "1,-5,13,-11,13,-5,1"
_EXAMPLE_P3 = "1,1,3,1,3,1,1"


def _verify_row_grouped(poly_text, expected, args):
    """Expected vs computed for a sextic whose product-one triples (and,
    when listed, the remaining ones) have a single known Picard value."""
    sx = SexticAnalysis(IntPoly.parse(poly_text))
    rep = galois_class(sx, c_max=args.c_max)
    table = picard_table(sx, c_max=args.c_max)
    computed = {
        "class": rep.class_label,
        "order": rep.order,
        "rho_product_one": sorted({r.rho for _t, f, r in table if f}),
        "projective_product_one": sorted({r.projective for _t, f, r in table if f}),
        "fibration_exists": fibration_exists(sx.poly),
    }
    if "rho_other" in expected:
        computed["rho_other"] = sorted({r.rho for _t, f, r in table if not f})
        computed["projective_other"] = sorted(
            {r.projective for _t, f, r in table if not f}
        )
    return sx.poly.format(), expected, computed


def _verify_row_triple(poly_text, triple, expected, args):
    """Expected vs computed for a sextic at one construction triple."""
    sx = SexticAnalysis(IntPoly.parse(poly_text))
    rep = galois_class(sx, c_max=args.c_max)
    table = picard_table(sx, c_max=args.c_max)
    by_triple = {t: r for t, _f, r in table}
    pic = by_triple[triple]
    computed = {
        "class": rep.class_label,
        "order": rep.order,
        "triple": list(triple),
        "rho": pic.rho,
        "projective": pic.projective,
        "fibration_exists": fibration_exists(sx.poly),
    }
    return sx.poly.format(), expected, computed


def _cmd_verify_examples(args):
    rows = []
    diff = []
    checks = (
        lambda: _verify_row_grouped(
            _EXAMPLE_P1,
            {
                "class": "H6",
                "order": 6,
                "rho_product_one": [9],
                "projective_product_one": [True],
                "fibration_exists": False,
                "rho_other": [3],
                "projective_other": [False],
            },
            args,
        ),
        lambda: _verify_row_grouped(
            _EXAMPLE_P2,
            {
                "class": "G12",
                "order": 12,
                "rho_product_one": [9],
                "projective_product_one": [True],
                "fibration_exists": False,
            },
            args,
        ),
        lambda: _verify_row_triple(
            _EXAMPLE_P3,
            (0, 2, 3),
            {
                "class": "G48",
                "order": 48,
                "triple": [0, 2, 3],
                "rho": 0,
                "projective": False,
                "fibration_exists": False,
            },
            args,
        ),
    )
    for check in checks:
        poly_text, expected, computed = check()
        match = expected == computed
        rows.append(
            {"poly": poly_text, "expected": expected, "computed": computed,
             "match": match}
        )
        if not match:
            for key in expected:
                if computed.get(key) != expected[key]:
                    diff.append(
                        f"{poly_text}: {key} expected {expected[key]!r}, "
                        f"computed {computed.get(key)!r}"
                    )
    results = {"table": rows, "all_match": not diff}
    error = None
    if diff:
        error = {
            "type": "VerificationFailed",
            "message": "worked-example table mismatch",
            "diff": diff,
        }
    return (
        {"polynomials": [_EXAMPLE_P1, _EXAMPLE_P2, _EXAMPLE_P3]},
        results,
        error,
    )


_HANDLERS = {
    "classify": _cmd_classify,
    "galois": _cmd_galois,
    "picard": _cmd_picard,
    "fibration": _cmd_fibration,
    "degrees": _cmd_degrees,
    "salem-gen": _cmd_salem_gen,
    "sweep": _cmd_sweep,
    "verify-examples": _cmd_verify_examples,
}


# ---------------------------------------------------------------------------
# parser and rendering


def _add_common(parser):
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default=argparse.SUPPRESS,
        help="output rendering (default json)",
    )
    parser.add_argument(
        "--a-max",
        type=int,
        dest="a_max",
        default=argparse.SUPPRESS,
        help="search bound for the generator scan (default 10000)",
    )
    parser.add_argument(
        "--c-max",
        type=int,
        dest="c_max",
        default=argparse.SUPPRESS,
        help="search bound for collision-breaking shifts (default 100)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salemtori",
        description=(
            "Exact analysis of degree-six reciprocal integer polynomials "
            "and the complex 3-torus automorphisms built from them."
        ),
    )
    parser.set_defaults(format="json", a_max=10000, c_max=100)
    _add_common(parser)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    s = sub.add_parser("classify", help="test the defining sextic conditions")
    s.add_argument("poly", help="ascending integer coefficients, e.g. 1,3,5,5,5,3,1")
    _add_common(s)

    s = sub.add_parser("galois", help="Galois class and root-pair orbit structure")
    s.add_argument("poly", help="ascending integer coefficients")
    _add_common(s)

    s = sub.add_parser("picard", help="Picard numbers of the associated 3-tori")
    s.add_argument("poly", help="ascending integer coefficients")
    group = s.add_mutually_exclusive_group()
    group.add_argument("--triple", metavar="i,j,k", help="one eigenvalue triple")
    group.add_argument(
        "--all-triples",
        action="store_true",
        help="all eight admissible triples (the default)",
    )
    _add_common(s)

    s = sub.add_parser(
        "fibration", help="equivariant fibration analysis for a sextic or a matrix"
    )
    s.add_argument(
        "target",
        metavar="poly|matrix",
        help="polynomial 1,0,...,1 or matrix rows separated by ';'",
    )
    _add_common(s)

    s = sub.add_parser("degrees", help="certified dynamical degrees of a lattice map")
    s.add_argument("matrix", help="2n x 2n integer matrix, rows separated by ';'")
    s.add_argument("--dim", type=int, required=True, help="complex dimension n")
    _add_common(s)

    s = sub.add_parser("salem-gen", help="degree-2k Salem polynomial generator")
    s.add_argument("degree", type=int, metavar="2k", help="even degree, at least 4")
    _add_common(s)

    s = sub.add_parser(
        "sweep", help="enumerate special sextics and run the property suite"
    )
    s.add_argument(
        "--trace-coeff-bound",
        type=int,
        required=True,
        metavar="B",
        help="enumerate trace cubics with coefficients in [-B, B]",
    )
    _add_common(s)

    s = sub.add_parser(
        "verify-examples",
        help="recompute the worked-example table and compare exactly",
    )
    _add_common(s)

    return parser


def _document(args, echo, results, error):
    doc = {
        "schema": _SCHEMA,
        "tool": {"name": "salemtori", "version": __version__},
        "command": args.command,
        "settings": {"a_max": args.a_max, "c_max": args.c_max},
        "input": echo,
        "results": results,
    }
    if error is not None:
        doc["error"] = error
    return doc


def _scalar_text(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _text_lines(x, indent, out, label=None):
    pad = "  " * indent
    if isinstance(x, dict):
        if label is not None:
            out.append(f"{pad}{label}:")
            indent += 1
            pad = "  " * indent
        for key, value in x.items():
            _text_lines(value, indent, out, key)
    elif isinstance(x, list) and any(isinstance(v, (dict, list)) for v in x):
        if label is not None:
            out.append(f"{pad}{label}:")
        for value in x:
            out.append(f"{pad}-")
            _text_lines(value, indent + 1, out)
    elif isinstance(x, list):
        head = f"{label}: " if label is not None else ""
        out.append(f"{pad}{head}[{', '.join(_scalar_text(v) for v in x)}]")
    else:
        head = f"{label}: " if label is not None else ""
        out.append(f"{pad}{head}{_scalar_text(x)}")


def _render(doc, fmt: str) -> str:
    if fmt == "text":
        out = []
        _text_lines(doc, 0, out)
        return "\n".join(out) + "\n"
    return json.dumps(doc, indent=2) + "\n"


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(raw)

    def emit_error(exc, code):
        doc = _document(
            args,
            {"arguments": raw},
            {},
            {"type": type(exc).__name__, "message": str(exc)},
        )
        sys.stdout.write(_render(doc, args.format))
        return code

    try:
        echo, results, error = _HANDLERS[args.command](args)
    except _INPUT_ERRORS as exc:
        return emit_error(exc, 2)
    except VerificationFailed as exc:
        return emit_error(exc, 1)
    except SalemtoriError as exc:
        return emit_error(exc, 3)
    doc = _document(args, echo, results, error)
    sys.stdout.write(_render(doc, args.format))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
