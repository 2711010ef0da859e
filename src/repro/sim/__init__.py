"""Cycle-accurate NoC simulator: routers, links, flow control, measurement.

The scalar event-driven core (:mod:`.network`) is the bit-identical
reference; :mod:`.batch` steps whole campaign grids in NumPy lockstep.
:class:`SimResult` lives in :mod:`.result`, so decoding a cached result
loads neither.  NumPy stays an optional dependency, and it loads only
with the batch tier: the names below resolve on first access, so
importing ``repro.sim`` (or ``SimConfig``, ``NoCSimulator``,
``SimResult``) never imports :mod:`.batch`.  The first access to a batch
name — in practice, the engine dispatching misses with
``executor="batch"``/``"auto"`` — imports it, and it imports NumPy if
installed.
"""

from .._lazy import lazy_exports

#: Public name -> defining submodule, grouped by submodule; resolved on
#: first access (see :mod:`repro._lazy`).
_EXPORTS = {
    ".batch": (
        "BatchLane",
        "BatchUnavailableError",
        "batchable_config",
        "batchable_routing",
        "numpy_available",
        "simulate_batch",
    ),
    ".config": (
        "BUFFERING_STRATEGIES",
        "SimConfig",
        "cbr",
        "eb_large",
        "eb_small",
        "eb_var",
        "el_links",
    ),
    ".links": ("CreditLink", "ElasticLink", "link_latency"),
    ".network": ("NoCSimulator",),
    ".packet": ("Flit", "Packet"),
    ".result": ("SimResult",),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BatchLane",
    "BatchUnavailableError",
    "batchable_config",
    "batchable_routing",
    "numpy_available",
    "simulate_batch",
    "SimConfig",
    "BUFFERING_STRATEGIES",
    "eb_small",
    "eb_large",
    "eb_var",
    "el_links",
    "cbr",
    "NoCSimulator",
    "SimResult",
    "Packet",
    "Flit",
    "CreditLink",
    "ElasticLink",
    "link_latency",
]
