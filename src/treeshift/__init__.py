"""Weighted shift operators on rooted directed trees.

Build finite truncations of leafless rooted trees, attach edge weights,
and analyze the resulting shift operators: expansion identities, sibling
constancy, Cauchy duals, moment sequences, classical moment-problem
tests, closed-form power identities, and a subnormality decision
procedure for the Cauchy dual.  A JSON-driven command line (`treeshift`)
exposes the same checks plus a catalog of worked demos.

The package exports each module's ``__all__``.
"""
from . import errors, matrices, moments, shifts, trees
from .errors import *
from .trees import *
from .shifts import *
from .moments import *
from .matrices import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *trees.__all__, *shifts.__all__,
           *moments.__all__, *matrices.__all__]
