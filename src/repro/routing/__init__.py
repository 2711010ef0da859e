"""Routing: minimal tables, deadlock-free VC schedules, adaptive UGAL.

:mod:`.paths` (all-pairs minimal paths, which the power model also
reads) loads without :mod:`.algorithms`; the names below resolve on
first access (see :mod:`repro._lazy`).
"""

from .._lazy import lazy_exports

#: Public name -> defining submodule, grouped by submodule; resolved on
#: first access (see :mod:`repro._lazy`).
_EXPORTS = {
    ".algorithms": (
        "DeflectionRouting",
        "DimensionOrderRouting",
        "QueueOracle",
        "Route",
        "RoutingAlgorithm",
        "StaticMinimalRouting",
        "UGALRouting",
        "ValiantRouting",
        "XYAdaptiveRouting",
        "ZeroQueues",
        "default_routing",
    ),
    ".paths": ("MinimalPaths",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "MinimalPaths",
    "Route",
    "RoutingAlgorithm",
    "StaticMinimalRouting",
    "DimensionOrderRouting",
    "ValiantRouting",
    "UGALRouting",
    "XYAdaptiveRouting",
    "DeflectionRouting",
    "QueueOracle",
    "ZeroQueues",
    "default_routing",
]
