"""Command line interface checks.

Every subcommand must be a thin wrapper: the values in its report equal
what the library computes directly on the same input.  Output bytes must
be deterministic, and exit codes must follow the documented mapping
(0 success, 1 verification mismatch, 2 input error, 3 internal failure).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import salemtori
from salemtori import (
    IntPoly,
    build_fibrations,
    classify_special,
    companion,
    dynamical_degrees,
    galois_class,
    gross_mcmullen,
    is_salem,
    picard_table,
)
from salemtori.cli import _interval, main

P1 = "1,3,5,5,5,3,1"
P2 = "1,-5,13,-11,13,-5,1"
REDUCIBLE = "1,-4,3,-3,3,-4,1"


def run_cli(capsys, argv, expect=0):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expect, out
    return out


def run_json(capsys, argv, expect=0):
    return json.loads(run_cli(capsys, argv, expect))


@pytest.fixture(scope="module")
def verify_doc():
    out = []

    class _Sink:
        def write(self, chunk):
            out.append(chunk)
            return len(chunk)

    import sys

    old = sys.stdout
    sys.stdout = _Sink()
    try:
        code = main(["verify-examples"])
    finally:
        sys.stdout = old
    assert code == 0
    return json.loads("".join(out))


def test_envelope_fields(capsys):
    doc = run_json(capsys, ["classify", P1])
    assert doc["schema"] == "salemtori-report/3"
    assert doc["tool"]["name"] == "salemtori"
    assert doc["tool"]["version"]
    assert doc["command"] == "classify"
    assert doc["settings"] == {"a_max": 10000, "c_max": 100}
    assert doc["input"] == {"poly": P1}
    assert "error" not in doc


def test_classify_matches_module(capsys):
    doc = run_json(capsys, ["classify", P1])
    cls = classify_special(IntPoly.parse(P1))
    res = doc["results"]
    assert res["is_special"] == cls.is_special is True
    assert res["conditions"] == {name: ok for name, ok in cls.reasons}
    assert res["failed"] == cls.failed() == []
    assert res["trace_poly"] == cls.trace_poly.format()
    assert res["real_trace_root"] == _interval(cls.real_trace_root_interval)
    assert res["subcase"] == cls.subcase


def test_classify_non_special_reports_reasons(capsys):
    doc = run_json(capsys, ["classify", "1,0,0,0,0,0,1"])
    res = doc["results"]
    assert res["is_special"] is False
    assert "irreducible" in res["failed"]


def test_galois_matches_module(capsys):
    doc = run_json(capsys, ["galois", P1])
    rep = galois_class(IntPoly.parse(P1))
    res = doc["results"]
    assert res["class"] == rep.class_label == "H6"
    assert res["order"] == rep.order == 6
    assert res["pair_orbit_sizes"] == sorted(len(o) for o in rep.pair_orbits)
    assert res["pair_orbits"] == [
        sorted(list(pr) for pr in orbit) for orbit in rep.pair_orbits
    ]
    assert [name for name, _ in res["evidence"]] == [n for n, _ in rep.evidence]


def test_picard_all_triples_matches_module(capsys):
    doc = run_json(capsys, ["picard", P2])
    rows = doc["results"]["triples"]
    table = picard_table(IntPoly.parse(P2))
    assert len(rows) == len(table) == 8
    for row, (triple, flag, rep) in zip(rows, table):
        assert row["triple"] == list(triple)
        assert row["product_one"] == flag
        assert row["rho"] == rep.rho
        assert row["projective"] == rep.projective
        assert row["ns_orbit_sizes"] == sorted(len(o) for o in rep.ns_orbits)
        assert "hodge_types" not in row


def test_picard_single_triple_detail(capsys):
    doc = run_json(capsys, ["picard", P1, "--triple", "4,2,0"])
    rows = doc["results"]["triples"]
    assert len(rows) == 1
    row = rows[0]
    assert row["triple"] == [0, 2, 4]
    assert row["product_one"] is True
    assert row["rho"] == 9
    assert row["projective"] is True
    assert len(row["hodge_types"]) == 15
    assert row["hodge_types"]["0,2"] == "(2,0)"
    assert row["hodge_types"]["0,1"] == "(1,1)"
    assert sum(len(orbit) for orbit in row["ns_orbits"]) == row["rho"]


def test_fibration_special_poly(capsys):
    doc = run_json(capsys, ["fibration", P1])
    res = doc["results"]
    assert res == {"char_poly_irreducible": True, "exists": False}


def test_fibration_reducible_poly_matches_module(capsys):
    doc = run_json(capsys, ["fibration", REDUCIBLE])
    rep = build_fibrations(companion(IntPoly.parse(REDUCIBLE)))
    res = doc["results"]
    assert res["char_poly_irreducible"] is False
    assert res["exists"] is True
    assert res["route"] == rep.route
    assert [s["rank"] for s in res["submodules"]] == [c.rank for c in rep.submodules]
    assert [s["induced_char_poly"] for s in res["submodules"]] == [
        c.induced_char_poly.format() for c in rep.submodules
    ]
    assert res["bezout"]["n"] == rep.bezout[2]


def test_fibration_matrix_undetermined(capsys):
    matrix = companion(IntPoly.parse("1,-5,7,-5,1")).format()
    doc = run_json(capsys, ["fibration", matrix])
    res = doc["results"]
    assert res["route"] == "none"
    assert res["exists"] == "undetermined"
    assert "note" in res


def test_degrees_matches_module(capsys):
    a = companion(IntPoly.parse(P1))
    doc = run_json(capsys, ["degrees", a.format(), "--dim", "3"])
    rep = dynamical_degrees(a, 3)
    res = doc["results"]
    assert res["lambdas"] == [_interval(pair) for pair in rep.lambdas]
    assert res["lambdas"][0] == res["lambdas"][3] == "1 ± 0"
    assert res["exact_equalities"] == [list(e) for e in sorted(rep.exact_equalities)]
    assert [1, 2] in res["exact_equalities"]
    assert res["salem_first"] == rep.salem_first is False


def test_salem_gen_matches_module(capsys):
    doc = run_json(capsys, ["salem-gen", "4"])
    g = gross_mcmullen(4)
    cert = is_salem(g)
    res = doc["results"]
    assert res["poly"] == g.format() == "1,-5,7,-5,1"
    assert res["degree"] == 4
    assert res["is_salem"] is True
    assert res["trace_poly"] == cert.trace_poly.format()
    assert res["lambda"] == _interval(cert.lambda_)


def test_sweep_empty_bound(capsys):
    doc = run_json(capsys, ["sweep", "--trace-coeff-bound", "0"])
    res = doc["results"]
    assert res["special_count"] == 0
    assert res["violation_count"] == 0
    assert res["rows"] == []
    assert "error" not in doc


def test_sweep_small_bound(capsys):
    doc = run_json(capsys, ["sweep", "--trace-coeff-bound", "1"])
    res = doc["results"]
    assert res["special_count"] == 12
    assert res["violation_count"] == 0
    assert all(row["ok"] for row in res["rows"])
    assert all(set(row["rho_values"]) <= {0, 3, 9} for row in res["rows"])
    trace_polys = [row["trace_poly"] for row in res["rows"]]
    assert trace_polys == sorted(set(trace_polys), key=trace_polys.index)
    assert len(set(row["poly"] for row in res["rows"])) == 12


def test_verify_examples_table(verify_doc):
    res = verify_doc["results"]
    assert res["all_match"] is True
    assert [row["poly"] for row in res["table"]] == [P1, P2, "1,1,3,1,3,1,1"]
    assert all(row["match"] for row in res["table"])
    p1_row = res["table"][0]
    assert p1_row["computed"]["class"] == "H6"
    assert p1_row["computed"]["rho_product_one"] == [9]
    assert p1_row["computed"]["rho_other"] == [3]
    p3_row = res["table"][2]
    assert p3_row["computed"]["order"] == 48
    assert p3_row["computed"]["rho"] == 0
    assert p3_row["computed"]["projective"] is False


def test_byte_determinism(capsys):
    first = run_cli(capsys, ["galois", P2])
    second = run_cli(capsys, ["galois", P2])
    assert first == second
    first = run_cli(capsys, ["picard", P1])
    second = run_cli(capsys, ["picard", P1])
    assert first == second


def test_text_format(capsys):
    out = run_cli(capsys, ["classify", P1, "--format", "text"])
    assert "is_special: true" in out
    assert "schema: salemtori-report/3" in out
    assert "trace_poly: -1,2,3,1" in out


def test_settings_flags_respected(capsys):
    doc = run_json(capsys, ["galois", P1, "--c-max", "17"])
    assert doc["settings"]["c_max"] == 17
    doc = run_json(capsys, ["--a-max", "64", "classify", P1])
    assert doc["settings"]["a_max"] == 64
    # root refinement follows each decision, so there is no precision flag
    with pytest.raises(SystemExit) as info:
        main(["--precision-bits", "64", "classify", P1])
    assert info.value.code == 2


def test_exit_code_input_errors(capsys):
    doc = run_json(capsys, ["classify", "one,two"], expect=2)
    assert doc["error"]["type"] == "InputError"
    assert doc["results"] == {}
    doc = run_json(capsys, ["galois", "1,0,0,0,0,0,1"], expect=2)
    assert doc["error"]["type"] == "NotSpecial"
    doc = run_json(capsys, ["picard", P1, "--triple", "0,1,2"], expect=2)
    assert doc["error"]["type"] == "InadmissibleTriple"
    doc = run_json(capsys, ["picard", P1, "--triple", "0,2"], expect=2)
    assert doc["error"]["type"] == "InputError"
    doc = run_json(capsys, ["salem-gen", "5"], expect=2)
    assert doc["error"]["type"] == "OddDegreeRequested"
    doc = run_json(capsys, ["degrees", "1,0;0,1", "--dim", "3"], expect=2)
    assert doc["error"]["type"] == "InputError"
    doc = run_json(capsys, ["fibration", "2,0;0,1"], expect=2)
    assert doc["error"]["type"] == "NotUnimodular"


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


NO_MPMATH = """
import contextlib, io, sys
from argparse import Namespace
from salemtori import certroots, cli
from salemtori.exactlin import companion
from salemtori.intpoly import IntPoly
from salemtori.salem import SexticAnalysis, dynamical_degrees, enumerate_special

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify-examples"]) == 0
trace, p, cls = next(iter(enumerate_special(1)))
row, failed = cli._sweep_row(trace, SexticAnalysis(p, cls), Namespace(c_max=100))
assert row["ok"] and not failed
# no float holds 10^400, so this spectrum is isolated by the fixed-point sweeps
fallbacks = []
sweep = certroots._fixed_aberth
certroots._fixed_aberth = lambda *args: fallbacks.append(1) or sweep(*args)
block = companion(IntPoly((1, -(10**400), 1))).direct_sum(companion(IntPoly.parse("1,-3,1")))
dynamical_degrees(block, 2)
assert fallbacks
assert "mpmath" not in sys.modules
"""


def test_library_never_imports_mpmath():
    src = str(Path(salemtori.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", NO_MPMATH], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
