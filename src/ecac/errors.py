"""Exception types shared across the package."""


class EcacError(Exception):
    """Base class for all library errors."""


class ParseError(EcacError):
    """A CSV cell or row could not be parsed."""


class EmptyDataset(EcacError):
    """A dataset source yielded zero rows."""


class InvalidSpec(EcacError):
    """A generator specification is inconsistent (e.g. dimension mismatch)."""


class DimensionMismatch(EcacError):
    """A query point does not match the dataset dimensionality."""


class InvalidRadius(EcacError):
    """A radius parameter is not strictly positive."""


class DegenerateDataset(EcacError):
    """All points coincide; no positive pairwise distance exists."""


class InvalidK(EcacError):
    """A requested number of clusters is out of range."""


class EmptyCenters(EcacError):
    """An operation requires at least one clustering center."""


class LabelOutOfRange(EcacError):
    """An initial-cluster label does not index the extended-center list."""


class ZeroBaseline(EcacError):
    """Improvement rate is undefined for a zero baseline score."""


class ConfigError(EcacError):
    """A run configuration is invalid or incomplete."""


class MissingResult(EcacError):
    """A result file does not exist or lacks required fields."""


class NotPlottable(EcacError):
    """A result cannot be rendered as a scatter plot."""


class DegenerateEntropyWarning(UserWarning):
    """A labeling had a single class; the NMI value is a convention."""
