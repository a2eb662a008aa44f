"""Byte identity of the CLI JSON against stored goldens.

Each case runs one subcommand in-process and compares its full output,
byte for byte, with a report stored under ``tests/goldens/``.  The
goldens were produced by the same runner before the per-sextic analysis
object existed, so any change to a decision, an exact output or an
enclosure string shows up here.  Since then they were edited only
mechanically (load, edit, ``json.dumps(indent=2)``): the schema became
``salemtori-report/2`` when the Galois class stopped being read from the
ordered-triple resolvent, and the ``wedge-cube``, ``pair-sum`` and
``ordered-triple resolvent`` entries left the ``galois`` evidence.  The
two block-matrix ``degrees`` goldens were produced by this runner before
eigenvalue lookups went through one shared root store.  The two
``fibration`` goldens were produced by this runner before polynomial
division and gcds moved from ``Fraction`` arithmetic to integers.  The
two ``-top-blocks`` ``degrees`` goldens were produced by this runner
while the first-degree Salem test still left their top-two-moduli cases
undecided; deciding them flipped their ``salem_first`` to true.  All
fifteen were regenerated by this runner when the ``--precision-bits``
setting was deleted; only ``schema`` (``salemtori-report/2`` to
``/3``) and the removed ``settings.precision_bits`` changed.  The
``sweep-bound-2`` golden was produced by this runner before value
location stopped isolating the resolvent factors.

Regenerate (only when a change of output is intended and recorded):

    PYTHONPATH=src python3 tests/test_goldens.py
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from salemtori import IntPoly, companion
from salemtori.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens"

_WORKED = {
    "p1": "1,3,5,5,5,3,1",
    "p2": "1,-5,13,-11,13,-5,1",
    "p3": "1,1,3,1,3,1,1",
}

CASES = {"verify-examples": ["verify-examples"]}
for _name, _poly in _WORKED.items():
    CASES[f"galois-{_name}"] = ["galois", _poly]
    CASES[f"degrees-{_name}"] = [
        "degrees",
        companion(IntPoly.parse(_poly)).format(),
        "--dim",
        "3",
    ]
CASES["picard-p1-triple-024"] = ["picard", _WORKED["p1"], "--triple", "0,2,4"]


def _block(*polys):
    m = companion(IntPoly.parse(polys[0]))
    for p in polys[1:]:
        m = m.direct_sum(companion(IntPoly.parse(p)))
    return m.format()


# three roots of modulus tau^2 (tau the golden ratio) in two factors, so
# moduli are compared through exact modulus squares
CASES["degrees-equal-moduli-blocks"] = ["degrees", _block("1,-3,1", "1,0,7,0,1"), "--dim", "3"]
# inverse partners across the mutually reversed factors x^2-x-1, x^2+x-1
CASES["degrees-reversed-blocks"] = ["degrees", _block("-1,-1,1", "-1,1,1"), "--dim", "2"]
# a real top root of x^2-7x+1 and a nonreal second root of x^4+7x^2+1:
# lambda_1 = 9+4 sqrt 5, a root of the Salem polynomial x^2-18x+1
CASES["degrees-real-nonreal-top-blocks"] = [
    "degrees",
    _block("1,-7,1", "1,0,7,0,1"),
    "--dim",
    "3",
]
# M + M for M = C(x^4+7x^2+1): a nonreal top root of multiplicity 2, and
# lambda_1 = (7+3 sqrt 5)/2, a root of the Salem polynomial x^2-7x+1
CASES["degrees-repeated-nonreal-top-blocks"] = [
    "degrees",
    _block("1,0,7,0,1", "1,0,7,0,1"),
    "--dim",
    "4",
]
CASES["sweep-bound-1"] = ["sweep", "--trace-coeff-bound", "1"]
CASES["sweep-bound-2"] = ["sweep", "--trace-coeff-bound", "2"]
# coprime splits with their Bezout identities: a reducible sextic, and a
# block matrix whose char poly holds the first factor of m squared
CASES["fibration-reducible-sextic"] = ["fibration", "1,-4,3,-3,3,-4,1"]
CASES["fibration-coprime-blocks"] = ["fibration", _block("1,-3,1", "1,-3,1", "1,1,1")]


def render(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_json_matches_golden(name):
    code, out = render(CASES[name])
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.json").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out = render(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN_DIR / f"{name}.json").write_bytes(out)
        print(name, len(out))
