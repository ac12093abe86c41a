"""Toolkit for D2D placement delivery arrays (DPDAs).

Construct the known rate- and packet-number-optimal families, check the
defining conditions with witnessed reports, compute exact lower bounds,
search exhaustively for minimum-slot arrays at tiny sizes, and execute the
full placement/XOR-delivery/decode protocol on byte-level packets.

Submodules load on first use: importing the package runs none of them, and
``from dpda import X`` runs only the module that defines ``X``.  The text
reader ``parse_dpda`` lives in :mod:`dpda.read`, apart from the model and
text writer in :mod:`dpda.core`, so a run that reads no array never
compiles it; the JSON mirror's ``dpda_to_json`` and ``dpda_from_json``
live in :mod:`dpda.mirror`, which only ``construct --json`` executes.
Likewise the one-demand protocol steps (``deliver``, ``decode`` and their
records) live in :mod:`dpda.steps`, apart from the trial engine
:mod:`dpda.sim`, so a ``simulate`` run never compiles them; ``dpda.core``,
``dpda.read`` and ``dpda.sim`` still answer for the names they gave away.
Each CLI verb's handler lives in the module it adapts.  The records are
plain frozen classes on one small base in :mod:`dpda.core` that generates
no code.  ``--json`` output is written by :mod:`dpda.jsonout`, which only
``--json`` runs execute, so ``json`` loads only for ``dpda_from_json`` of
JSON text.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Submodule -> the public names it gives the package, in ``__all__`` order.
_EXPORTS = {
    "core": ("STAR", "Coded", "Dpda", "Entry", "FormatError", "serialize_dpda", "slot_cells"),
    "read": ("parse_dpda",),
    "mirror": ("dpda_to_json", "dpda_from_json"),
    "validation": ("ConditionCheck", "ValidationReport", "RateOptimality", "validate"),
    "construct": ("construct_jcm", "construct_grid", "construct_even", "construct_odd",
                  "lift"),
    "bounds": ("rate_lower_bound", "min_f_bound", "jcm_params", "JcmParams",
               "compare_to_jcm", "JcmComparison", "BoundsReport",
               "bounds_for_case", "bounds_for_array"),
    "sim": ("Library", "Caches", "Demand", "SimReport", "make_library", "place", "simulate"),
    "steps": ("Signal", "SimulationError", "user_cache_bytes", "deliver", "decode"),
    "search": ("SearchResult", "SearchSpaceError", "exists_dpda", "search_min_s"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def _lazy(name: str):
    """Put ``dpda.<name>`` in ``sys.modules`` now, so that code looking it up
    there (or wrapping its functions) finds every submodule; its code runs on
    the first attribute access (``importlib.util.LazyLoader``)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in _EXPORTS})


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
