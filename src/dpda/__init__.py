"""Toolkit for D2D placement delivery arrays (DPDAs).

Construct the known rate- and packet-number-optimal families, check the
defining conditions with witnessed reports, compute exact lower bounds,
search exhaustively for minimum-slot arrays at tiny sizes, and execute the
full placement/XOR-delivery/decode protocol on byte-level packets.
"""

from .core import (
    STAR,
    Coded,
    Dpda,
    Entry,
    FormatError,
    dpda_from_json,
    dpda_to_json,
    parse_dpda,
    permute_band_rows,
    permute_columns,
    relabel_slots,
    serialize_dpda,
    slot_cells,
    slot_senders,
)
from .validation import (
    ConditionCheck,
    RateOptimality,
    ValidationReport,
    validate,
)
from .construct import (
    construct_even,
    construct_grid,
    construct_jcm,
    construct_odd,
    lift,
    subset_rank,
    subset_unrank,
)
from .bounds import (
    BoundsReport,
    JcmComparison,
    JcmParams,
    bounds_for_array,
    bounds_for_case,
    compare_to_jcm,
    jcm_params,
    min_f_bound,
    rate_lower_bound,
)
from .sim import (
    Caches,
    Demand,
    Library,
    Signal,
    SimReport,
    SimulationError,
    decode,
    deliver,
    make_library,
    place,
    simulate,
    user_cache_bytes,
)
from .search import (
    SearchResult,
    SearchSpaceError,
    canonicalize,
    exists_dpda,
    search_min_s,
)

__version__ = "0.1.0"

__all__ = [
    "STAR", "Coded", "Dpda", "Entry", "FormatError",
    "parse_dpda", "serialize_dpda", "dpda_to_json", "dpda_from_json",
    "slot_cells", "slot_senders",
    "permute_band_rows", "permute_columns", "relabel_slots",
    "ConditionCheck", "ValidationReport", "RateOptimality", "validate",
    "subset_rank", "subset_unrank",
    "construct_jcm", "construct_grid", "construct_even", "construct_odd", "lift",
    "rate_lower_bound", "min_f_bound", "jcm_params", "JcmParams",
    "compare_to_jcm", "JcmComparison", "BoundsReport",
    "bounds_for_case", "bounds_for_array",
    "Library", "Caches", "Demand", "Signal", "SimReport", "SimulationError",
    "make_library", "place", "user_cache_bytes", "deliver", "decode", "simulate",
    "SearchResult", "SearchSpaceError", "exists_dpda", "search_min_s", "canonicalize",
]
