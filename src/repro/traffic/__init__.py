"""Traffic: synthetic patterns and PARSEC/SPLASH-like workload models.

The names below resolve on first access (see :mod:`repro._lazy`), so
reading :data:`WORKLOADS` loads neither the synthetic patterns nor the
non-stationary sources.
"""

from .._lazy import lazy_exports

#: Public name -> defining submodule, grouped by submodule; resolved on
#: first access (see :mod:`repro._lazy`).
_EXPORTS = {
    ".nonstationary": ("BurstSource", "HotspotSource", "TransientSource"),
    ".synthetic": ("PATTERNS", "SyntheticSource", "make_pattern"),
    ".workloads": ("WORKLOADS", "WorkloadSource", "WorkloadSpec", "workload_names"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "PATTERNS",
    "make_pattern",
    "SyntheticSource",
    "BurstSource",
    "HotspotSource",
    "TransientSource",
    "WORKLOADS",
    "WorkloadSpec",
    "WorkloadSource",
    "workload_names",
]
