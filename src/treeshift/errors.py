"""Exception hierarchy for the treeshift package."""


class TreeShiftError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(TreeShiftError):
    """A vertex/edge description does not form a rooted directed tree."""


class RangeError(TreeShiftError):
    """An index, depth or order is outside the materialized range."""


class DomainError(TreeShiftError):
    """A numeric argument lies outside the mathematical domain of an operation."""


class ConfigurationError(TreeShiftError):
    """Incompatible combination of tree, weights, or run parameters."""


class ResourceLimitError(ConfigurationError):
    """The requested object would exceed a fixed size limit."""


class ClassificationError(TreeShiftError):
    """The operator is not in the class an operation requires."""


class NotLeftInvertibleError(TreeShiftError):
    """The shift has a zero vertex norm (or a singular interior Gram block)."""


class ComparisonError(TreeShiftError):
    """Invariant tuples cannot be compared (e.g. unequal verified depths)."""


class SpecParseError(TreeShiftError):
    """A JSON run spec violates the schema; carries the offending JSON path."""

    def __init__(self, message: str, json_path: str = "$"):
        super().__init__(f"{json_path}: {message}")
        self.json_path = json_path
