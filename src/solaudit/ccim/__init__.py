"""Cross-contract interaction model: the deterministic structural ground
truth every downstream stage reads from and verifies claims against."""

from .build import assemble_ccim, canonical_json, ccim_to_json, classify_admin
from .parse import normalize_predicate, parse_function_records
from .types import CcimModel, FnKey, FunctionRecord

__all__ = [
    "CcimModel",
    "FnKey",
    "FunctionRecord",
    "assemble_ccim",
    "canonical_json",
    "ccim_to_json",
    "classify_admin",
    "normalize_predicate",
    "parse_function_records",
]
