"""Load sweeps and saturation analysis over the cycle-accurate simulator.

The paper's latency-load figures (10-14, 19) sweep injection rate and
plot average packet latency until the network saturates ("we omit
performance data for points after network saturation").  This module
reproduces that methodology: simulate a list of loads, stop at the first
saturated point, and report the curve plus derived metrics (zero-load
latency, saturation throughput).

Sweeps are submitted through the experiment engine
(:mod:`repro.engine`): every (topology, pattern, load, config, seed)
point is content-addressed, so repeated figure reproduction is served
from the on-disk cache, and setting ``REPRO_WORKERS`` (or passing an
``engine`` with ``max_workers > 1``) fans the points across worker
processes.  Passing an explicit :class:`RoutingAlgorithm` *object*
bypasses the engine (live adaptive state is neither serializable nor
cacheable) and runs the legacy serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..sim.config import SimConfig
from ..topos.base import Topology

if TYPE_CHECKING:
    from ..routing import RoutingAlgorithm


@dataclass(frozen=True)
class SweepPoint:
    load: float
    latency: float
    throughput: float
    saturated: bool

    def to_dict(self) -> dict:
        return {
            "load": self.load,
            "latency": self.latency,
            "throughput": self.throughput,
            "saturated": self.saturated,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepPoint":
        return cls(
            load=payload["load"],
            latency=payload["latency"],
            throughput=payload["throughput"],
            saturated=payload["saturated"],
        )


@dataclass
class SweepResult:
    """Latency/throughput curve for one (network, pattern, config) triple."""

    network: str
    pattern: str
    points: list[SweepPoint] = field(default_factory=list)

    @property
    def loads(self) -> list[float]:
        return [p.load for p in self.points]

    @property
    def latencies(self) -> list[float]:
        return [p.latency for p in self.points]

    def zero_load_latency(self) -> float:
        """Latency at the lowest measured load."""
        if not self.points:
            raise ValueError("empty sweep")
        return self.points[0].latency

    def saturation_throughput(self) -> float:
        """Highest accepted throughput before saturation."""
        accepted = [p.throughput for p in self.points if not p.saturated]
        return max(accepted) if accepted else 0.0

    def latency_at(self, load: float) -> float:
        """Latency at the sweep point closest to ``load``."""
        if not self.points:
            raise ValueError("empty sweep")
        return min(self.points, key=lambda p: abs(p.load - load)).latency

    def to_dict(self) -> dict:
        return {
            "network": self.network,
            "pattern": self.pattern,
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepResult":
        return cls(
            network=payload["network"],
            pattern=payload["pattern"],
            points=[SweepPoint.from_dict(p) for p in payload["points"]],
        )


def sweep_loads(
    topology: Topology | str,
    pattern: str,
    loads: list[float],
    config: SimConfig | None = None,
    routing: RoutingAlgorithm | None = None,
    packet_flits: int = 6,
    warmup: int = 300,
    measure: int = 800,
    drain: int = 1500,
    seed: int = 1,
    stop_after_saturation: bool = True,
    name: str | None = None,
    engine=None,
    shard: tuple[int, int] | None = None,
    shard_balance: str = "hash",
) -> SweepResult:
    """Run the simulator across ``loads`` (flits/node/cycle), low to high.

    ``topology`` may be a live :class:`Topology` or a catalog symbol;
    ``engine`` overrides the default (env-configured) experiment engine.
    ``shard=(index, count)`` computes only this invocation's slice of a
    distributed campaign, partitioned per ``shard_balance`` — every
    invocation slicing one campaign must use the same mode (see
    :func:`repro.engine.run_compare`).
    """
    if routing is not None:
        if shard is not None:
            raise ValueError(
                "sharding needs engine-cacheable specs; live routing "
                "objects run the legacy serial loop"
            )
        return _sweep_serial(
            topology, pattern, loads, config=config, routing=routing,
            packet_flits=packet_flits, warmup=warmup, measure=measure,
            drain=drain, seed=seed, stop_after_saturation=stop_after_saturation,
            name=name,
        )
    from ..engine import default_engine, run_sweep

    return run_sweep(
        engine if engine is not None else default_engine(),
        topology,
        pattern,
        loads,
        config=config,
        packet_flits=packet_flits,
        seed=seed,
        warmup=warmup,
        measure=measure,
        drain=drain,
        stop_after_saturation=stop_after_saturation,
        name=name,
        shard=shard,
        shard_balance=shard_balance,
    )


def _sweep_serial(
    topology: Topology | str,
    pattern: str,
    loads: list[float],
    *,
    config: SimConfig | None,
    routing: RoutingAlgorithm | None,
    packet_flits: int,
    warmup: int,
    measure: int,
    drain: int,
    seed: int,
    stop_after_saturation: bool,
    name: str | None,
) -> SweepResult:
    """Legacy in-process loop for live routing objects (UGAL et al.)."""
    from ..sim.network import NoCSimulator
    from ..traffic.synthetic import SyntheticSource

    if isinstance(topology, str):
        from ..engine import resolve_topology

        topology = resolve_topology(topology)
    result = SweepResult(network=name or topology.name, pattern=pattern)
    for load in sorted(loads):
        sim = NoCSimulator(topology, config, routing=routing, seed=seed)
        source = SyntheticSource(topology, pattern, load, packet_flits)
        outcome = sim.run(source, warmup=warmup, measure=measure, drain=drain)
        point = SweepPoint(
            load=load,
            latency=outcome.avg_latency,
            throughput=outcome.throughput,
            saturated=outcome.saturated,
        )
        result.points.append(point)
        if point.saturated and stop_after_saturation:
            break
    return result


def compare_networks(
    topologies: dict[str, Topology | str],
    pattern: str,
    loads: list[float],
    configs: dict[str, SimConfig] | None = None,
    engine=None,
    **kwargs,
) -> dict[str, SweepResult]:
    """Sweep several networks under one pattern (Figures 12-14 layout).

    Submitted as one engine campaign: with a multi-worker engine the
    (network × load) grid runs in parallel, with per-network early stop.
    """
    if "routing" in kwargs:
        routing = kwargs.pop("routing")
        return {
            label: sweep_loads(
                topology, pattern, loads, config=(configs or {}).get(label),
                routing=routing, name=label, **kwargs,
            )
            for label, topology in topologies.items()
        }
    from ..engine import default_engine, run_compare

    return run_compare(
        engine if engine is not None else default_engine(),
        topologies,
        pattern,
        loads,
        configs=configs,
        **kwargs,
    )
