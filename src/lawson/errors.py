"""Semantic exception hierarchy.

The CLI maps these onto exit codes: invalid input -> 1, verification
failure -> 2, numerical non-convergence -> 3.
"""

__all__ = [
    "DegenerateTripleError",
    "EigensolverError",
    "IndeterminateCountError",
    "InvalidTripleError",
    "LawsonError",
    "NotInFamilyError",
    "SpectralError",
]


class LawsonError(Exception):
    """Base class for all library errors."""


class InvalidTripleError(LawsonError, ValueError):
    """Parameters do not describe a surface of the family."""


class NotInFamilyError(InvalidTripleError):
    """Integer parameters violate the admissibility condition c^2 > a^2 + b^2."""


class DegenerateTripleError(InvalidTripleError):
    """Parameters collapse the immersion (all zero, or a boundary pair with a zero)."""


class SpectralError(LawsonError, RuntimeError):
    """Base class for numerical failures in the eigenvalue machinery."""


class EigensolverError(SpectralError):
    """A sector's B - sigma I failed to factor, or Lanczos broke down or hit its step cap."""


class IndeterminateCountError(SpectralError):
    """An eigenvalue sits inside the guard window around 2 where no anchor
    is expected; the count cannot be trusted at this resolution."""
