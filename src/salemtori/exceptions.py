"""Exception hierarchy for the toolkit.

Every error raised on purpose derives from SalemtoriError so callers can
distinguish domain failures from genuine bugs (which surface as plain
AssertionError / RuntimeError).
"""


class SalemtoriError(Exception):
    """Base class for all domain errors."""


class InputError(SalemtoriError):
    """Malformed user input (CLI exit code 2)."""


class ConstantPolynomial(SalemtoriError):
    pass


class EndpointIsRoot(SalemtoriError):
    pass


class NotReciprocal(SalemtoriError):
    pass


class OddDegree(SalemtoriError):
    pass


class NotCoprime(SalemtoriError):
    pass


class NotMonic(SalemtoriError):
    pass


class BadRank(SalemtoriError):
    pass


class ZeroLattice(SalemtoriError):
    pass


class NotSquarefree(SalemtoriError):
    pass


class PrecisionExhausted(SalemtoriError):
    """A decision still open after refine_until's _MAX_ROUNDS rounds, or
    an isolation that reached the _MAX_PREC bit cap."""


class Ambiguous(SalemtoriError):
    """A value ball could not be matched to a unique factor slot."""


class NotUnimodular(SalemtoriError):
    pass


class OddDegreeRequested(SalemtoriError):
    pass


class ClassificationRequired(SalemtoriError):
    pass


class CollisionUnresolved(SalemtoriError):
    """No shift constant up to the bound separated colliding pair values."""


class NoCandidateMatches(SalemtoriError):
    """Resolvent data matched no candidate class; indicates a bug."""


class NotSpecial(SalemtoriError):
    pass


class InadmissibleTriple(SalemtoriError):
    pass


class NoDecomposition(SalemtoriError):
    """Minimal polynomial irreducible: fibration criteria do not apply."""


class ScanExhausted(SalemtoriError):
    """A bounded search (a-scan, c-scan) ran out of budget."""


class VerificationFailed(SalemtoriError):
    """A runtime self-check or an expected-results table did not hold."""
