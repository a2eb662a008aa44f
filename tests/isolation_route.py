"""The isolation route of value location, kept as the oracle for the
library's zero-exclusion route (``certroots._owner``).

Every irreducible factor of the factorization is isolated, and the value
is shrunk, and the factors its disk still meets refined, until the disk
meets exactly one root of one factor; that factor owns the value.
"""

from fractions import Fraction

from salemtori.certroots import RootStore, refine_until


def isolation_owner(value, factors, store=None):
    """The index of the factor in factors (a FactorList) with a root equal
    to value, a CertValue, located among isolated roots."""
    store = RootStore() if store is None else store
    systems = [store[f] for f, _m in factors]
    target = Fraction(1, 1 << 24)
    hits = []

    def decide():
        hits[:] = [
            fi
            for fi, rs in enumerate(systems)
            for root in rs.roots
            if not value.ball.is_disjoint(root)
        ]
        assert hits, "a value matches no factor root"
        return hits[0] if len(hits) == 1 else None

    def refine():
        nonlocal target
        target = target / 4
        assert value.shrink(target), "values cannot be separated further"
        for fi in set(hits):
            systems[fi].refine(target)

    return refine_until(decide, refine, "oracle value location")
