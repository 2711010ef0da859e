"""Analysis harness: sweeps, workload campaigns, large-N models, metrics."""

from .._lazy import lazy_exports

#: Public name -> defining submodule, grouped by submodule; resolved on
#: first access (see :mod:`repro._lazy`).
_EXPORTS = {
    ".adaptive": ("AdaptiveStudyResult", "adaptive_study"),
    ".largescale": ("LargeScaleModel", "model_curves"),
    ".metrics": ("format_table", "geometric_mean", "relative_improvement"),
    ".resilience": ("ResilienceReport", "degrade", "resilience_curve"),
    ".sweep": ("SweepPoint", "SweepResult", "compare_networks", "sweep_loads"),
    ".workloads": (
        "WorkloadRow",
        "edp_gain",
        "edp_table",
        "smart_latency_gains",
        "workload_table",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "AdaptiveStudyResult",
    "adaptive_study",
    "SweepPoint",
    "SweepResult",
    "sweep_loads",
    "compare_networks",
    "LargeScaleModel",
    "model_curves",
    "geometric_mean",
    "relative_improvement",
    "format_table",
    "ResilienceReport",
    "degrade",
    "resilience_curve",
    "WorkloadRow",
    "workload_table",
    "edp_table",
    "edp_gain",
    "smart_latency_gains",
]
