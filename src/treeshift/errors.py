"""Exception hierarchy for the treeshift package."""
from typing import Optional

__all__ = [
    "TreeShiftError",
    "StructureError",
    "RangeError",
    "DomainError",
    "ConfigurationError",
    "ResourceLimitError",
    "ClassificationError",
    "NotLeftInvertibleError",
    "ComparisonError",
    "SpecParseError",
]


class TreeShiftError(Exception):
    """Base class for all errors raised by this package.

    ``field`` names the spec field whose value is at fault, when the
    error is about one: a ``TreeSpec`` or ``WeightSpec`` field refused
    when the spec is built, the ``edges`` an explicit tree is built
    from, the ``depth`` or ``edges`` a size budget counted, and a
    tolerance's ``tol``.  The command line reports such an error at
    that field's JSON path, and any other at its spec section."""

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.field = field


class StructureError(TreeShiftError):
    """A vertex/edge description does not form a rooted directed tree."""


class RangeError(TreeShiftError):
    """An index, depth or order is outside the materialized range."""


class DomainError(TreeShiftError):
    """A numeric argument lies outside the mathematical domain of an operation."""


class ConfigurationError(TreeShiftError):
    """Incompatible combination of tree, weights, or run parameters."""


class ResourceLimitError(ConfigurationError):
    """The requested object would exceed a fixed size limit; ``field``
    names the spec field whose value was counted, when there is one."""


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
