"""Finite-dimensional von Neumann algebra laboratory.

Multi-matrix algebras with trace weights, entropy and relative entropy of
states, conditional expectations and index invariants of inclusions, and a
verification harness that checks the identities numerically at desk scale.
"""

from .algebra import (
    MultiMatrixAlgebra,
    TraceWeight,
    algebra_from_blocks,
    ambient_trace,
    commutant,
    diagonal_subalgebra,
    full_matrix_algebra,
    generated_algebra,
    normalized_trace,
    scalar_subalgebra,
    tensor_algebra,
    tensor_left_subalgebra,
    tensor_right_subalgebra,
)
from .harness import (
    Ensemble,
    MaximizeResult,
    VerificationReport,
    maximize_gap,
    random_state,
    run_suite,
    suite_names,
)
from .inclusion import (
    Inclusion,
    IndexReport,
    diagonal_inclusion,
    dual_expectation,
    entropy_gap_bound,
    index_report,
    scalar_inclusion,
    standard_binary_tower,
    tensor_pair_inclusion,
    tower_gap_formula,
    trace_expectation,
    xu_identity,
)
from .relent import (
    KosakiGrid,
    kosaki_eval,
    petz_decompose,
    rel_entropy_closed,
    rel_entropy_modular,
    reverse_entropy,
)
from .specfile import SpecError, SpecFile, load_spec, parse_spec
from .states import (
    State,
    maximally_mixed,
    pure_state,
    restrict,
    s_tau,
    s_vn,
)

__version__ = "0.1.0"

__all__ = [
    "MultiMatrixAlgebra", "TraceWeight", "algebra_from_blocks",
    "ambient_trace", "commutant", "diagonal_subalgebra",
    "full_matrix_algebra", "generated_algebra", "normalized_trace",
    "scalar_subalgebra", "tensor_algebra", "tensor_left_subalgebra",
    "tensor_right_subalgebra",
    "State", "maximally_mixed", "pure_state", "restrict", "s_tau", "s_vn",
    "KosakiGrid", "kosaki_eval", "petz_decompose", "rel_entropy_closed",
    "rel_entropy_modular", "reverse_entropy",
    "Inclusion", "IndexReport", "diagonal_inclusion", "dual_expectation",
    "entropy_gap_bound", "index_report", "scalar_inclusion",
    "standard_binary_tower", "tensor_pair_inclusion", "tower_gap_formula",
    "trace_expectation", "xu_identity",
    "Ensemble", "MaximizeResult", "VerificationReport", "maximize_gap",
    "random_state", "run_suite", "suite_names",
    "SpecError", "SpecFile", "load_spec", "parse_spec",
]
