"""Exception types shared across the package."""


class GancError(Exception):
    """Base class for package-specific errors."""


class ParseError(GancError):
    """A line in an input file could not be parsed."""


class EmptyDatasetError(GancError):
    """No usable ratings remain after parsing or filtering."""


class UnknownIdError(GancError, KeyError):
    """A user or item id is not present where it is required."""

    __str__ = Exception.__str__  # the message as written, not KeyError's repr of it


class StaleArtifactError(GancError):
    """An artifact's recorded input hash does not match the inputs provided."""


class NumericalDegeneracyError(GancError):
    """An iterative solver produced a value outside its valid domain."""


class TrainingDivergenceError(GancError):
    """Factor entries became non-finite during SGD training."""


class InfeasibleError(GancError):
    """No feasible assignment exists under the given constraints."""


class ContractViolationError(GancError):
    """A caller violated a documented interface contract."""


class UndefinedMetricError(GancError):
    """A metric is undefined for the given inputs (empty denominator)."""

