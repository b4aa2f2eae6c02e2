"""Exact construction and verification of strength-1 locating arrays.

The package computes exact optimal column counts, constructs matching arrays
by realizing block-size types as disjoint partial spread systems, and checks
covering, locating, and detecting properties directly from their definitions.
This namespace is the documented library; internals are imported from their
modules (locarray.baranyai, locarray.formats, ...).
"""

from .arrays import (
    TestArray,
    Verdict,
    generate_la,
    spreads_to_array,
    verify_ca2,
    verify_da11,
    verify_la,
)
from .baranyai import CapExceededError, realize
from .combinatorics import (
    ALL_VARIANTS,
    VARIANT_11,
    VARIANT_1_BAR1,
    VARIANT_BAR1_1,
    VARIANT_BAR1_BAR1,
    Variant,
    max_columns,
)
from .oracle import max_k_exhaustive, verify_by_definition
from .spread_types import Shape, VType, build_variant_type, is_admissible

__version__ = "0.1.0"

__all__ = [
    "ALL_VARIANTS",
    "CapExceededError",
    "Shape",
    "TestArray",
    "VARIANT_11",
    "VARIANT_1_BAR1",
    "VARIANT_BAR1_1",
    "VARIANT_BAR1_BAR1",
    "VType",
    "Variant",
    "Verdict",
    "build_variant_type",
    "generate_la",
    "is_admissible",
    "max_columns",
    "max_k_exhaustive",
    "realize",
    "spreads_to_array",
    "verify_by_definition",
    "verify_ca2",
    "verify_da11",
    "verify_la",
]
