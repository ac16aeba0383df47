"""Exception types shared across the package.

The command line layer maps these onto exit codes, so library code should
raise the most specific type that applies rather than bare ValueError.
"""


class SpecfactError(Exception):
    """Base class for all package errors."""


class ParameterError(SpecfactError, ValueError):
    """An argument is structurally invalid (wrong shape, flag, or range)."""


class DomainError(SpecfactError, ValueError):
    """Input data is outside the mathematical domain of an operation.

    Example: a density with a nonpositive sample passed to a routine that
    needs log f, or an imposter factor with no positive value at the origin.
    """


class AliasingError(ParameterError):
    """A requested bandwidth cannot be represented on the given grid."""


class NumericalConditioningError(SpecfactError, ArithmeticError):
    """A computation could not be completed to its advertised accuracy."""
