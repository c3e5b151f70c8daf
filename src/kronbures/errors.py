"""Exception types shared across the package."""


class KronburesError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(KronburesError):
    """A matrix failed the symmetric positive definite check."""


class DimensionMismatch(KronburesError):
    """Operands have incompatible shapes or dimensions."""


class ParameterOutOfRange(KronburesError):
    """A parameter lies outside its admissible range: a scalar outside its
    interval, or an array argument that is not real or, where finiteness is
    its rule, has a non-finite entry or finite entries whose arithmetic
    overflows."""


class GaugeViolation(KronburesError):
    """A factor violates the unit-determinant normalization."""


class NotInModel(KronburesError):
    """A matrix is not a Kronecker product of SPD factors."""


class NotOnLeaf(KronburesError):
    """A point does not belong to the requested factor leaf."""


class NotSimultaneouslyDiagonalizable(KronburesError):
    """A matrix pair admits no common orthogonal eigenbasis."""


class TraceNotZero(KronburesError):
    """A tangent direction violates its trace constraint."""


class NonPositiveCoordinate(KronburesError):
    """Coordinates that must be strictly positive are not."""


class InconsistentVerdict(KronburesError):
    """Residual-based and factor-based leaf classifications disagree.

    Signals a numerical-tolerance conflict, not a mathematical error.
    """


class NoConvergence(KronburesError):
    """An iterative solver exhausted its iteration budget.

    Carries the best iterate seen and its residual, when available.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class ConfigError(KronburesError):
    """Invalid benchmark or CLI configuration."""


class NumericalConsistencyError(KronburesError):
    """A computed quantity violates an identity it must satisfy."""
