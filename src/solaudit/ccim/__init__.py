"""Cross-contract interaction model: the deterministic structural ground
truth every downstream stage reads from and verifies claims against."""

from .build import (
    assemble_ccim,
    build_call_graph,
    build_resolution,
    ccim_to_dict,
    ccim_to_json,
    classify_admin,
    compute_state_dependencies,
    compute_trust_model,
    flag_rotation_risks,
    propagate_footprints,
)
from .parse import mask_noncode, normalize_predicate, parse_function_records
from .types import (
    CallGraph,
    CallSite,
    CcimModel,
    FnKey,
    Footprints,
    FunctionRecord,
    ResolutionMap,
    StateDependencyMap,
    TrustModel,
)

__all__ = [
    "CallGraph",
    "CallSite",
    "CcimModel",
    "FnKey",
    "Footprints",
    "FunctionRecord",
    "ResolutionMap",
    "StateDependencyMap",
    "TrustModel",
    "assemble_ccim",
    "build_call_graph",
    "build_resolution",
    "ccim_to_dict",
    "ccim_to_json",
    "classify_admin",
    "compute_state_dependencies",
    "compute_trust_model",
    "flag_rotation_risks",
    "mask_noncode",
    "normalize_predicate",
    "parse_function_records",
    "propagate_footprints",
]
