"""Exception hierarchy.

Every error class carries a distinct CLI exit code so that shell callers can
tell failure modes apart without parsing stderr.
"""


class EqkitError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class IoError(EqkitError):
    """A matrix file could not be read or written."""

    exit_code = 10


class ParseError(EqkitError):
    """A matrix file was readable but malformed."""

    exit_code = 11


class RankDeficient(EqkitError):
    """An input column is numerically dependent on the preceding ones."""

    exit_code = 12


class InvalidAngle(EqkitError):
    """Angle outside the range admissible for the requested construction."""

    exit_code = 13


class InvalidAlpha(EqkitError):
    """Pairwise cosine outside the open interval (-1/(n-1), 1)."""

    exit_code = 14


class NotEquiangular(EqkitError):
    """Matrix failed certification as an equiangular system."""

    exit_code = 15


class NonRealRoots(EqkitError):
    """Float64 polynomial roots stay non-real after snapping, or the recovered spectrum is off by > 1e-7."""

    exit_code = 16


class MultiplicityUnsupported(EqkitError):
    """Eigenvalue multiplicities outside what the factorization supports."""

    exit_code = 17


class WrongSpectrum(EqkitError):
    """Spectrum does not match the (n-1, 1) two-eigenvalue pattern."""

    exit_code = 18


class Singular(EqkitError):
    """Matrix is numerically singular."""

    exit_code = 19


class NotSymmetric(EqkitError):
    """Operation requires a symmetric matrix."""

    exit_code = 20


class NoConvergence(EqkitError):
    """Iterative eigenvalue computation failed to converge."""

    exit_code = 21


class DegreeZero(EqkitError):
    """Polynomial has no admissible degree (constant or zero leading term)."""

    exit_code = 22


class ComplexSpectrum(EqkitError):
    """Operation requires an all-real spectrum."""

    exit_code = 23


class DegenerateAngle(EqkitError):
    """Obtuse angle too wide: no further unit vector can keep the common cosine."""

    exit_code = 24


class NotSquare(EqkitError):
    """Operation requires a square matrix."""

    exit_code = 25


class NotSpanning(EqkitError):
    """Vector family does not span the ambient space."""

    exit_code = 26


class InvalidShape(EqkitError):
    """Dimensions are inconsistent with the requested construction."""

    exit_code = 27


class OutOfRange(EqkitError):
    """A derived parameter fell outside its admissible interval."""

    exit_code = 28


class NotEigenpair(EqkitError):
    """Supplied (value, vector) pair is not an eigenpair of the matrix."""

    exit_code = 29


class InvalidTolerance(EqkitError):
    """A tolerance that is not a finite positive number."""

    exit_code = 30
