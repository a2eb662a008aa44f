"""The presented root disks, pinned as exact rationals.

For each polynomial below, ``isolate_roots`` at 2^-24 gives the first
disks; refining the same system to 2^-48 gives the ``modulus_interval``
pairs, and refining it on to 2^-120 gives the fine disks.  Every center,
radius and interval end is stored as the string of its ``Fraction``, so
any change in the ball arithmetic that moves a presented disk or a
modulus bound shows up here, even where no CLI output would change.

Regenerate (only when a change of the presented disks is intended and
recorded):

    PYTHONPATH=src python3 tests/test_presented_disks.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from salemtori.certroots import isolate_roots
from salemtori.intpoly import IntPoly
from salemtori.salem import gross_mcmullen

FIXTURE = Path(__file__).parent / "goldens" / "presented-disks.json"

POLYS = {
    "P1": "1,3,5,5,5,3,1",
    "P2": "1,-5,13,-11,13,-5,1",
    "P3": "1,1,3,1,3,1,1",
    "Phi5": "1,1,1,1,1",
    "gross_mcmullen(8)": gross_mcmullen(8).format(),
    "x^2-18x+1": "1,-18,1",
}


def _disks(rs):
    return [[str(b.re), str(b.im), str(b.rad)] for b in rs.roots]


def presented(poly: str) -> dict:
    rs = isolate_roots(IntPoly.parse(poly), Fraction(1, 1 << 24))
    out = {"poly": poly, "roots 2^-24": _disks(rs)}
    rs.refine(Fraction(1, 1 << 48))
    out["modulus_interval 2^-48"] = [
        [str(lo), str(hi)] for lo, hi in (b.modulus_interval() for b in rs.roots)
    ]
    rs.refine(Fraction(1, 1 << 120))
    out["roots 2^-120"] = _disks(rs)
    return out


@pytest.mark.parametrize("name", sorted(POLYS))
def test_presented_disks_match_fixture(name):
    want = json.loads(FIXTURE.read_text())[name]
    assert presented(POLYS[name]) == want


if __name__ == "__main__":
    data = {name: presented(poly) for name, poly in sorted(POLYS.items())}
    FIXTURE.write_text(json.dumps(data, indent=2) + "\n")
    sys.exit(0)
