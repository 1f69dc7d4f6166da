"""Weighted shift operators on rooted directed trees.

Build finite truncations of leafless rooted trees, attach edge weights,
and analyze the resulting shift operators: expansion identities, sibling
constancy, Cauchy duals, moment sequences, classical moment-problem
tests, closed-form power identities, and a subnormality decision
procedure for the Cauchy dual.  A JSON-driven command line (`treeshift`)
exposes the same checks plus a catalog of worked demos.
"""
from .errors import (ClassificationError, ComparisonError,
                     ConfigurationError, DomainError,
                     NotLeftInvertibleError, RangeError,
                     ResourceLimitError, SpecParseError, StructureError,
                     TreeShiftError)
from .trees import (MAX_VERTICES, DirectedTree, TreeSpec,
                    TreeStructureReport, StructureVerdict, Vertex,
                    branching_degree, classify_tree, comb_pattern_valency,
                    comb_tree_spec, generation, hub_comb_tree_spec,
                    materialize, spec_vertex_count,
                    two_plus_three_tree_spec)
from .shifts import (DEFAULT_TOL, AdjacencyClassification, PropertyVerdict,
                     ShiftInvariants, WeightSpec, WeightedShift,
                     are_unitarily_equivalent,
                     are_unitarily_equivalent_multiset, build_shift,
                     cauchy_dual, check_tolerance, classify_adjacency,
                     is_two_isometry, operator_norm,
                     satisfies_kernel_condition, shift_invariants,
                     sibling_constancy_by_generation, two_isometry_weight,
                     vertex_norm)
from .moments import (DiscreteMeasure, MomentSequence, MomentVerdict,
                      ReciprocalLinearResult, SubnormalityReport,
                      backward_extension, closed_form_table1,
                      dual_subnormality, hausdorff_test, moment_sequence,
                      perturbed_kernel_dual_moment,
                      reciprocal_linear_moments, stieltjes_test)
from .matrices import (Table1Report, TruncatedOperator,
                       block_shift_from_atoms, build_brownian_shift,
                       defect, dual_matrix, dump_matrix, gram_diag,
                       truncate, verify_table1)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "TreeShiftError", "StructureError", "RangeError", "DomainError",
    "ConfigurationError", "ClassificationError", "NotLeftInvertibleError",
    "ComparisonError", "SpecParseError", "ResourceLimitError",
    # trees
    "Vertex", "DirectedTree", "TreeSpec", "materialize", "generation",
    "branching_degree", "classify_tree", "StructureVerdict",
    "TreeStructureReport", "comb_tree_spec", "hub_comb_tree_spec",
    "two_plus_three_tree_spec", "comb_pattern_valency", "MAX_VERTICES",
    "spec_vertex_count",
    # shifts
    "DEFAULT_TOL", "check_tolerance", "two_isometry_weight",
    "WeightedShift", "WeightSpec", "build_shift", "vertex_norm",
    "operator_norm", "PropertyVerdict",
    "is_two_isometry", "satisfies_kernel_condition",
    "sibling_constancy_by_generation", "cauchy_dual",
    "AdjacencyClassification", "classify_adjacency", "ShiftInvariants",
    "shift_invariants", "are_unitarily_equivalent",
    "are_unitarily_equivalent_multiset",
    # moments
    "MomentSequence", "DiscreteMeasure", "MomentVerdict",
    "moment_sequence", "closed_form_table1",
    "perturbed_kernel_dual_moment", "stieltjes_test", "hausdorff_test",
    "ReciprocalLinearResult", "reciprocal_linear_moments",
    "backward_extension", "SubnormalityReport", "dual_subnormality",
    # matrices
    "TruncatedOperator", "truncate", "defect", "dual_matrix", "gram_diag",
    "Table1Report", "verify_table1", "build_brownian_shift",
    "block_shift_from_atoms", "dump_matrix",
]
