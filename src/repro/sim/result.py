"""The outcome of one simulation run and its JSON codec.

:class:`SimResult` lives apart from the simulator so that the result
store, the experiment specs and a fully cached CLI call can decode and
report results without importing the simulator core.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

#: Above this many tracked packets, :meth:`SimResult.to_dict` stores the
#: latency distribution as a sorted ``[value, count]`` histogram instead of
#: the raw per-packet list (latency order carries no information — every
#: derived statistic is order-independent).
LATENCY_HISTOGRAM_THRESHOLD = 512


@dataclass
class SimResult:
    """Outcome of one simulation run (measurement window only)."""

    injection_rate: float
    cycles: int
    created_packets: int
    delivered_packets: int
    delivered_flits: int
    latencies: list[int]
    num_nodes: int
    measure_cycles: int
    max_injection_backlog: int
    saturation_delivery_fraction: float = 0.90
    saturation_backlog: int = 120

    @cached_property
    def sorted_latencies(self) -> list[int]:
        """Ascending latencies, sorted once and cached (the latency list
        is treated as immutable once the result exists)."""
        return sorted(self.latencies)

    @property
    def avg_latency(self) -> float:
        """Mean packet latency in cycles (creation to tail ejection)."""
        if not self.latencies:
            return float("nan")
        return sum(self.latencies) / len(self.latencies)

    @property
    def p99_latency(self) -> float:
        if not self.latencies:
            return float("nan")
        ordered = self.sorted_latencies
        return float(ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))])

    @property
    def throughput(self) -> float:
        """Accepted flits per node per cycle during the measurement window."""
        return self.delivered_flits / (self.num_nodes * self.measure_cycles)

    @property
    def saturated(self) -> bool:
        """Offered load exceeded accepted load: packets left undelivered
        after the drain phase, or a large standing source backlog built up."""
        if self.created_packets == 0:
            return False
        threshold = self.saturation_delivery_fraction * self.created_packets
        undelivered = self.delivered_packets < threshold
        return undelivered or self.max_injection_backlog > self.saturation_backlog

    def to_dict(self) -> dict:
        """JSON-safe representation (see :meth:`from_dict` for the inverse).

        Large latency populations are compacted into a sorted histogram;
        mean/percentile statistics survive the round trip exactly, only
        the (meaningless) per-packet ordering is lost.
        """
        payload = {
            "injection_rate": self.injection_rate,
            "cycles": self.cycles,
            "created_packets": self.created_packets,
            "delivered_packets": self.delivered_packets,
            "delivered_flits": self.delivered_flits,
            "num_nodes": self.num_nodes,
            "measure_cycles": self.measure_cycles,
            "max_injection_backlog": self.max_injection_backlog,
            "saturation_delivery_fraction": self.saturation_delivery_fraction,
            "saturation_backlog": self.saturation_backlog,
        }
        if len(self.latencies) > LATENCY_HISTOGRAM_THRESHOLD:
            counts: dict[int, int] = {}
            for value in self.latencies:
                counts[value] = counts.get(value, 0) + 1
            payload["latency_hist"] = [[v, counts[v]] for v in sorted(counts)]
        else:
            payload["latencies"] = list(self.latencies)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SimResult":
        if "latency_hist" in payload:
            latencies = [
                value for value, count in payload["latency_hist"] for _ in range(count)
            ]
        else:
            latencies = list(payload["latencies"])
        return cls(
            injection_rate=payload["injection_rate"],
            cycles=payload["cycles"],
            created_packets=payload["created_packets"],
            delivered_packets=payload["delivered_packets"],
            delivered_flits=payload["delivered_flits"],
            latencies=latencies,
            num_nodes=payload["num_nodes"],
            measure_cycles=payload["measure_cycles"],
            max_injection_backlog=payload["max_injection_backlog"],
            saturation_delivery_fraction=payload.get(
                "saturation_delivery_fraction", 0.90
            ),
            saturation_backlog=payload.get("saturation_backlog", 120),
        )
