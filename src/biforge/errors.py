"""Exception types shared across the package."""


class BiforgeError(Exception):
    """Base class for all biforge-specific failures."""


class DegenerateJetDivision(BiforgeError, ZeroDivisionError):
    """Jet division where the divisor's leading value is exactly zero.

    Signals evaluation at a zero of a denominator; callers that can
    tolerate near-zeros should guard with a threshold before dividing.
    """


class ShapeError(BiforgeError, ValueError):
    """Matrix or vector dimensions do not match the group's layout."""


class DimensionMismatch(ShapeError):
    """Input lengths disagree with the expected group-size parameter."""


class ZeroVector(BiforgeError, ValueError):
    """A generating vector that must be nonzero is (numerically) zero."""


class IsotropyViolation(BiforgeError, ValueError):
    """Neither isotropy alternative holds for the requested SO(n) family."""


class DomainError(BiforgeError, ArithmeticError):
    """Evaluation point lies outside the domain (a denominator vanishes)."""


class SamplingExhausted(BiforgeError, RuntimeError):
    """The domain sampler used up its draws before accepting enough points."""


class InconsistentSystem(BiforgeError, ArithmeticError):
    """Exact elimination found a contradiction or an unexpected solution
    space; raised defensively, should not occur for valid inputs."""


class DegenerateQuotient(BiforgeError, ValueError):
    """Numerator and denominator polynomials are linearly dependent, so the
    quotient would be constant."""
