"""Isostatic analysis of symmetric pin-jointed bar frameworks.

Scalar and symmetry-refined counting rules, exact per-class necessary
conditions, numeric rank cross-checks, the (2,3)-pebble game, and
generators for symmetric isostatic fixtures.
"""

from .chartables import (
    CharacterTable,
    IrrepRow,
    character_table,
    reference_group,
    table_for_group,
)
from .core import (
    Framework,
    Graph,
    from_json,
    from_json_dict,
    in_scope,
    maxwell_count,
    new_framework,
    to_json,
    to_json_dict,
)
from .constructgen import (
    all_faces,
    cap_all_faces_symmetric,
    cap_face,
    counterexample_2d,
    double_banana,
    fig2_examples,
    hat_stack,
    platonic,
    twisted_cap_all_faces,
)
from .errors import (
    CapExceeded,
    ContinuousSymmetry,
    DegenerateFace,
    DegenerateTwist,
    GroupOutsideWhitelist,
    InternalInconsistency,
    IsoframeError,
    NonIntegralMultiplicity,
    NotAGroup,
    NotOnThreefoldAxis,
    ParseError,
    ToleranceAmbiguity,
    UnrecognizedGroup,
)
from .laman import (
    CountViolation,
    PebbleState,
    SparsityReport,
    SymmetricLamanReport,
    count_screen_3d,
    generic_rank,
    pebble_game_2_3,
    subgraph_maxwell_scan_3d,
    symmetric_laman,
)
from .maxwell import (
    ConditionCheck,
    ConditionReport,
    ScreenReport,
    TraceVector,
    decompose_irreps,
    free_placement_screen,
    gamma_bar,
    gamma_joint,
    gamma_regular,
    gamma_rigid_body,
    isostatic_necessary,
    maxwell_trace,
    two_cos,
)
from .numrank import (
    DEFAULT_RANK_TOL,
    EquilibriumSystem,
    KinematicSummary,
    build_system,
    mobility,
    nullspace_bases,
    numeric_rank,
    rigid_body_basis,
    rigid_body_dimension,
)
from .symdetect import (
    ConjugacyClass,
    IsometryOp,
    OrbitPartition,
    PointGroupInfo,
    UnshiftedCounts,
    classify_group,
    detect_point_group,
    detect_symmetries,
    orbits,
    unshifted_counts,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Graph", "Framework", "new_framework", "maxwell_count", "in_scope",
    "to_json", "to_json_dict", "from_json", "from_json_dict",
    # numeric rank
    "DEFAULT_RANK_TOL", "EquilibriumSystem", "KinematicSummary",
    "build_system", "numeric_rank", "rigid_body_basis",
    "rigid_body_dimension", "mobility", "nullspace_bases",
    # symmetry detection
    "IsometryOp", "ConjugacyClass", "PointGroupInfo",
    "UnshiftedCounts", "OrbitPartition", "detect_symmetries",
    "classify_group", "detect_point_group", "unshifted_counts", "orbits",
    # character tables
    "IrrepRow", "CharacterTable", "character_table", "reference_group",
    "table_for_group",
    # counting rules
    "TraceVector", "ConditionCheck", "ConditionReport", "ScreenReport",
    "two_cos", "gamma_rigid_body", "gamma_joint", "gamma_bar",
    "gamma_regular", "maxwell_trace", "isostatic_necessary",
    "free_placement_screen", "decompose_irreps",
    # sparsity
    "PebbleState", "SparsityReport", "SymmetricLamanReport", "CountViolation",
    "pebble_game_2_3", "symmetric_laman", "subgraph_maxwell_scan_3d",
    "count_screen_3d", "generic_rank",
    # generators
    "all_faces", "platonic", "cap_face", "cap_all_faces_symmetric",
    "twisted_cap_all_faces", "hat_stack", "fig2_examples",
    "counterexample_2d", "double_banana",
    # errors
    "IsoframeError", "ParseError", "ToleranceAmbiguity",
    "ContinuousSymmetry", "NotAGroup", "UnrecognizedGroup",
    "GroupOutsideWhitelist", "NonIntegralMultiplicity", "DegenerateFace",
    "DegenerateTwist", "NotOnThreefoldAxis", "CapExceeded",
    "InternalInconsistency",
]
