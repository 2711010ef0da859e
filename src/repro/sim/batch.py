"""Batched lockstep simulation: N independent sims per Python-level step.

The event-driven core (``network.NoCSimulator``) spends its time in
Python bytecode — one arbitration visit at a time.  Campaigns, however,
are embarrassingly parallel at the spec level: a sweep is dozens of
*independent* simulations over the *same* network shape.  This module
steps a whole group of them in lockstep over NumPy array-of-struct
state indexed ``[sim, unit]`` / ``[sim, link, vc]``, so each per-cycle
operation (credit delivery, ejection drain, switch allocation) is one
vectorized pass across every lane instead of a Python loop per router.

Bit-identity contract
---------------------

The scalar core stays the reference implementation.  For every lane the
kernel reproduces its behavior operation for operation:

* **RNG**: the scalar core draws from ``random.Random(seed)``.  Both
  CPython and NumPy's legacy ``RandomState`` sit on MT19937, so
  ``_WordStream`` seeds a ``RandomState`` from ``random.Random(seed)``'s
  exact state vector and re-implements ``random()`` /
  ``getrandbits`` / ``_randbelow`` on the raw 32-bit word stream —
  the injection schedule is *cycle-exact*, not statistically equivalent.
* **Arbitration**: request groups keyed by output port with candidates
  in ascending unit-index order, viability (wormhole ownership + credit)
  filtering, round-robin pointers advanced only when a group has viable
  candidates, and the winner picked at ``pointer % len(viable)`` — all
  evaluated per lane via segmented reductions.
* **Ordering**: the ejection pipe (and therefore the latency *list*,
  which is part of the digest for <= 512 tracked packets) drains in
  ascending (router, first-requester unit) order, exactly the order the
  scalar core's sorted active-router walk produces.

Results come back as engine-normalized :class:`SimResult` objects whose
``to_dict()`` is byte-identical to the scalar path's.  Shapes the kernel
does not model (elastic links, the CBR central buffer, RNG-dependent or
oracle-driven routing, trace workloads) are declared unbatchable via
:func:`batchable_config` / :func:`batchable_routing` and fall back to the
scalar executor.

NumPy is an optional dependency: the import below is guarded, and only
an explicit request for the batch tier raises :class:`BatchUnavailableError`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ..routing import DimensionOrderRouting, RoutingAlgorithm, StaticMinimalRouting
from .config import SimConfig
from .result import LATENCY_HISTOGRAM_THRESHOLD, SimResult
from .state import NetworkState

try:  # optional extra — everything below guards on ``np is None``
    import numpy as np
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    np = None

__all__ = [
    "BatchLane",
    "BatchUnavailableError",
    "batchable_config",
    "batchable_routing",
    "numpy_available",
    "simulate_batch",
    "simulate_batch_detailed",
]

NUMPY_HINT = (
    "the batch simulation tier needs NumPy, which is an optional "
    "dependency — pip install numpy (or `pip install repro[batch]`)"
)


class BatchUnavailableError(RuntimeError):
    """Raised when the batch tier is requested but cannot run here."""


def numpy_available() -> bool:
    return np is not None


def require_numpy() -> None:
    if np is None:
        raise BatchUnavailableError(NUMPY_HINT)


#: Routing schemes the kernel can replicate: deterministic source routing
#: with per-pair route caches and no RNG or congestion-oracle input.
BATCHABLE_ROUTINGS = frozenset({"default", "minimal", "dor"})

#: Synthetic patterns the injection-schedule scan replicates.  ``RND`` and
#: ``ASYM`` draw destinations from the simulator RNG (interleaved with the
#: Bernoulli draws); the rest are fixed permutations.
RANDOMIZED = frozenset({"RND", "ASYM"})
BATCHABLE_PATTERNS = frozenset({"RND", "SHF", "REV", "ADV1", "ADV2", "ASYM"})


def batchable_config(config: SimConfig) -> bool:
    """Credit flow control only: elastic pipelines and the CBR central
    buffer have per-cycle state machines the kernel does not model."""
    return not config.elastic_links and config.central_buffer_flits == 0


def batchable_routing(name: str) -> bool:
    return name in BATCHABLE_ROUTINGS


@dataclass(frozen=True)
class BatchLane:
    """One simulation in a lockstep batch (what varies between lanes).

    Everything *shared* — topology, config, routing, and the
    warmup/measure/drain windows — is fixed per :func:`simulate_batch`
    call; lanes differ only in traffic and seed.
    """

    pattern: str
    load: float
    packet_flits: int
    seed: int


# ----------------------------------------------------------------------
# RNG: CPython's random.Random as a raw MT19937 word stream
# ----------------------------------------------------------------------


class _WordStream:
    """``random.Random(seed)``'s exact MT19937 output, one uint32 word at
    a time, with bulk generation through NumPy.

    CPython's ``random()`` consumes two words (``(a >> 5) * 2**26 +
    (b >> 6)) / 2**53``), ``getrandbits(k<=32)`` one word (``>> (32-k)``),
    and ``randrange(n)`` rejection-samples ``getrandbits(n.bit_length())``.
    Replaying those recipes over the shared word stream reproduces the
    scalar core's draw sequence bit for bit.
    """

    __slots__ = ("_rs", "_buf", "_pos")

    CHUNK = 1 << 16

    def __init__(self, seed: int):
        state = random.Random(seed).getstate()
        keys, pos = state[1][:-1], state[1][-1]
        rs = np.random.RandomState()
        rs.set_state(("MT19937", np.asarray(keys, dtype=np.uint32), pos))
        self._rs = rs
        self._buf = np.empty(0, dtype=np.uint32)
        self._pos = 0

    def _ensure(self, n: int) -> None:
        avail = len(self._buf) - self._pos
        if avail >= n:
            return
        fresh = self._rs.randint(
            0, 1 << 32, size=max(self.CHUNK, n - avail), dtype=np.uint32
        )
        self._buf = np.concatenate([self._buf[self._pos :], fresh])
        self._pos = 0

    def words(self, n: int):
        self._ensure(n)
        out = self._buf[self._pos : self._pos + n]
        self._pos += n
        return out

    def rewind(self, n_words: int) -> None:
        """Un-consume the last ``n_words`` (they are still buffered)."""
        self._pos -= n_words

    def doubles(self, n: int):
        w = self.words(2 * n).astype(np.uint64)
        a = w[0::2] >> np.uint64(5)
        b = w[1::2] >> np.uint64(6)
        return (a * np.uint64(1 << 26) + b) * (1.0 / (1 << 53))

    def double(self) -> float:
        return float(self.doubles(1)[0])

    def randbelow(self, n: int) -> int:
        """CPython ``Random._randbelow_with_getrandbits`` on the stream."""
        if n <= 0:
            return 0
        k = n.bit_length()
        shift = 32 - k
        r = int(self.words(1)[0]) >> shift
        while r >= n:
            r = int(self.words(1)[0]) >> shift
        return r


# ----------------------------------------------------------------------
# Injection schedule: the lane's whole packet feed, precomputed
# ----------------------------------------------------------------------


def _lane_schedule(lane: BatchLane, topology, measure_end: int):
    """Every injection the scalar run loop would perform for this lane:
    ``(cycles, srcs, dsts)`` arrays in creation order.

    The scalar loop consumes ``source.packets_at(cycle, rng)`` for every
    cycle in ``[0, measure_end)`` exactly once, in order — one
    ``rng.random()`` per node per cycle, with the destination draw (for
    randomized patterns) interleaved immediately after a Bernoulli hit.
    The scan replays that stream: deterministic patterns consume exactly
    two words per (cycle, node) slot and vectorize wholesale; randomized
    patterns scan blockwise and rewind to each hit to interleave the
    destination draw at its exact stream position.
    """
    from ..traffic.synthetic import make_pattern

    n = topology.num_nodes
    probability = lane.load / lane.packet_flits
    total = measure_end * n
    if lane.pattern not in RANDOMIZED:
        stream = _WordStream(lane.seed)
        pattern = make_pattern(lane.pattern, topology)
        table = np.array([pattern(src, None) for src in range(n)], dtype=np.int64)
        draws = stream.doubles(total)
        hits = np.flatnonzero(draws < probability)
        cycles = hits // n
        srcs = hits % n
        dsts = table[srcs]
        keep = dsts != srcs  # self-addressed permutation entries inject nothing
        return cycles[keep], srcs[keep], dsts[keep]

    # Randomized destinations interleave extra draws right after each
    # Bernoulli hit, shifting the word alignment of every later slot.
    # Rather than re-deriving doubles after every hit, precompute the
    # double the stream *would* produce at every word offset, index all
    # below-threshold offsets once, and walk them with a parity-aware
    # scalar cursor — only offsets congruent to the live cursor mod 2
    # are real draws.
    extra = 64 + int(total * probability * 2) * 8
    while True:
        schedule = _randomized_scan(lane, n, probability, total, extra)
        if schedule is not None:
            return schedule
        extra *= 4  # word pool exhausted by rejection resampling: retry


def _randomized_scan(lane: BatchLane, n, probability, total, extra):
    state = random.Random(lane.seed).getstate()
    rs = np.random.RandomState()
    rs.set_state(("MT19937", np.asarray(state[1][:-1], dtype=np.uint32), state[1][-1]))
    pool = rs.randint(0, 1 << 32, size=2 * total + extra, dtype=np.uint32)
    w64 = pool.astype(np.uint64)
    doubles = (
        (w64[:-1] >> np.uint64(5)) * np.uint64(1 << 26) + (w64[1:] >> np.uint64(6))
    ) * (1.0 / (1 << 53))
    hit_at = np.flatnonzero(doubles < probability).tolist()
    dest_bit = None
    if lane.pattern == "ASYM":
        dest_bit = (doubles < 0.5).tolist()

    is_rnd = lane.pattern == "RND"
    k = (n - 1).bit_length()
    shift = 32 - k
    half = n // 2
    limit = len(pool) - 2
    out_cycle: list[int] = []
    out_src: list[int] = []
    out_dst: list[int] = []
    cursor = 0  # word offset of the next slot's Bernoulli draw
    slot = 0
    i = 0
    H = len(hit_at)
    while True:
        while i < H and (hit_at[i] < cursor or (hit_at[i] - cursor) & 1):
            i += 1
        if i >= H:
            break
        pos = hit_at[i]
        hit_slot = slot + (pos - cursor) // 2
        if hit_slot >= total:
            break
        slot = hit_slot + 1
        cursor = pos + 2
        src = hit_slot % n
        if is_rnd:
            r = int(pool[cursor]) >> shift
            cursor += 1
            while r >= n - 1:
                if cursor > limit:
                    return None
                r = int(pool[cursor]) >> shift
                cursor += 1
            dst = r if r < src else r + 1
        else:  # ASYM: one random() (two words) per hit
            base = src % half
            dst = base + half if dest_bit[cursor] else base
            cursor += 2
            if dst == src:
                dst = (base + half) if dst < half else base
            dst %= n
        if cursor > limit:
            return None
        if dst != src:
            out_cycle.append(hit_slot // n)
            out_src.append(src)
            out_dst.append(dst)
    return (
        np.asarray(out_cycle, dtype=np.int64),
        np.asarray(out_src, dtype=np.int64),
        np.asarray(out_dst, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# The lockstep kernel
# ----------------------------------------------------------------------


def simulate_batch(
    topology,
    config: SimConfig,
    routing: RoutingAlgorithm,
    lanes,
    *,
    warmup: int,
    measure: int,
    drain: int,
) -> list[SimResult]:
    """Run every lane to completion; results align with ``lanes``."""
    return [result for result, _ in simulate_batch_detailed(
        topology, config, routing, lanes,
        warmup=warmup, measure=measure, drain=drain,
    )]


def simulate_batch_detailed(
    topology,
    config: SimConfig,
    routing: RoutingAlgorithm,
    lanes,
    *,
    warmup: int,
    measure: int,
    drain: int,
) -> list[tuple[SimResult, dict]]:
    """Like :func:`simulate_batch`, but each result rides with its
    canonical ``to_dict`` payload — assembled once from the batch arrays
    (sorted latencies and histogram compaction included), so downstream
    consumers never re-derive either."""
    require_numpy()
    lanes = list(lanes)
    if not lanes:
        return []
    if not batchable_config(config):
        raise ValueError("config is not batchable (elastic links / central buffer)")
    if not isinstance(routing, (StaticMinimalRouting, DimensionOrderRouting)):
        raise ValueError(f"routing {type(routing).__name__} is not batchable")
    for lane in lanes:
        if lane.pattern not in BATCHABLE_PATTERNS:
            raise ValueError(f"pattern {lane.pattern!r} is not batchable")
    if routing.num_vcs > config.num_vcs:
        config = replace(config, num_vcs=routing.num_vcs)

    kernel = _BatchKernel(
        topology, config, routing, lanes,
        warmup=warmup, measure=measure, drain=drain,
    )
    kernel.run()
    return kernel.results()


class _BatchKernel:
    """All state and per-cycle passes for one lockstep group."""

    def __init__(self, topology, config, routing, lanes, *, warmup, measure, drain):
        self.topology = topology
        self.config = config
        self.routing = routing
        self.lanes = lanes
        self.warmup = warmup
        self.measure = measure
        self.drain = drain
        self.measure_end = warmup + measure
        self.end_now = warmup + measure + drain
        self._build_network()
        self._build_packets()
        self._build_state()

    # -- shared structure ------------------------------------------------

    def _build_network(self) -> None:
        topo, cfg = self.topology, self.config
        layout = NetworkState.build(topo, cfg)
        self.layout = layout
        R = layout.num_routers
        N = layout.num_nodes
        V = layout.num_vcs
        E = len(layout.link_order)
        self.R, self.N, self.V, self.E = R, N, V, E

        self.edge_id = np.full((R, R), -1, dtype=np.int64)
        self.link_lat = np.empty(E, dtype=np.int64)
        for e, (a, b) in enumerate(layout.link_order):
            self.edge_id[a, b] = e
            self.link_lat[e] = layout.link_cycles[(a, b)]

        # Flat unit table, router-major in build order — global unit ids
        # ascend with (router, unit index), which is exactly the scalar
        # arbitration visit order.
        unit_router: list[int] = []
        unit_node: list[int] = []
        unit_cap: list[int] = []
        unit_vc: list[int] = []
        unit_credit_slot: list[int] = []  # e*V + vc of the upstream link
        unit_credit_lat: list[int] = []
        link_unit = np.full((E, V), -1, dtype=np.int64)
        inj_unit = np.full(N, -1, dtype=np.int64)
        for rs in layout.routers:
            for spec in rs.units:
                uid = len(unit_router)
                unit_router.append(rs.index)
                if spec.is_injection:
                    unit_node.append(spec.node)
                    unit_cap.append(0)  # NIC queues live in inj_* pointers
                    unit_vc.append(0)
                    unit_credit_slot.append(-1)
                    unit_credit_lat.append(0)
                    inj_unit[spec.node] = uid
                else:
                    e_up = self.edge_id[spec.upstream, rs.index]
                    unit_node.append(-1)
                    unit_cap.append(spec.capacity)
                    unit_vc.append(spec.vc)
                    unit_credit_slot.append(e_up * V + spec.vc)
                    unit_credit_lat.append(spec.credit_latency)
                    link_unit[e_up, spec.vc] = uid
        self.NU = len(unit_router)
        self.unit_router = np.asarray(unit_router, dtype=np.int64)
        self.unit_node = np.asarray(unit_node, dtype=np.int64)
        self.unit_is_inj = self.unit_node >= 0
        self.unit_vc = np.asarray(unit_vc, dtype=np.int64)
        self.unit_credit_slot = np.asarray(unit_credit_slot, dtype=np.int64)
        self.unit_credit_lat = np.asarray(unit_credit_lat, dtype=np.int64)
        self.link_unit = link_unit
        self.inj_unit = inj_unit
        self.C = max(int(max(unit_cap, default=1)), 1)
        self.M = int(self.link_lat.max()) + 1 if E else 2

        credits_init = np.zeros((E, V), dtype=np.int64)
        for rs in layout.routers:
            for pos, nbr in enumerate(rs.neighbors):
                e = self.edge_id[rs.index, nbr]
                for vc in range(V):
                    credits_init[e, vc] = rs.credit_init[pos * V + vc]
        self.credits_init = credits_init

    # -- per-lane packets -------------------------------------------------

    def _build_packets(self) -> None:
        topo = self.topology
        N = self.N
        S = len(self.lanes)
        self.S = S
        node_router = np.array(
            [topo.node_router(node) for node in range(N)], dtype=np.int64
        )

        schedules = [
            _lane_schedule(lane, topo, self.measure_end) for lane in self.lanes
        ]
        self.lane_P = np.array([len(c) for c, _, _ in schedules], dtype=np.int64)
        Pmax = int(self.lane_P.max()) if S else 0
        self.PF = np.array([lane.packet_flits for lane in self.lanes], dtype=np.int64)

        # Route cache shared across lanes, interned to pair ids so the
        # per-packet tables are filled by one vectorized gather per lane.
        route_cache: dict[tuple[int, int], int] = {}
        route_rows: list[tuple[tuple, tuple]] = []

        def pair_id(src_r: int, dst_r: int) -> int:
            key = (src_r, dst_r)
            pid = route_cache.get(key)
            if pid is None:
                route = self.routing.route(src_r, dst_r)
                pid = len(route_rows)
                route_rows.append((tuple(route.path), tuple(route.vcs)))
                route_cache[key] = pid
            return pid

        nr = node_router.tolist()
        lane_pairs = []
        for cycles, srcs, dsts in schedules:
            lane_pairs.append(
                np.fromiter(
                    (
                        pair_id(nr[s_node], nr[d_node])
                        for s_node, d_node in zip(srcs.tolist(), dsts.tolist())
                    ),
                    dtype=np.int64,
                    count=len(srcs),
                )
            )
        Hmax = max((len(p) for p, _ in route_rows), default=1)
        self.Hmax = Hmax
        W = max(Hmax - 1, 1)
        K = len(route_rows)
        tab_path = np.zeros((max(K, 1), Hmax), dtype=np.int64)
        tab_vcs = np.zeros((max(K, 1), W), dtype=np.int64)
        tab_last = np.zeros(max(K, 1), dtype=np.int64)
        for k, (path, vcs) in enumerate(route_rows):
            tab_last[k] = len(path) - 1
            tab_path[k, : len(path)] = path
            if vcs:
                tab_vcs[k, : len(vcs)] = vcs

        self.pkt_created = np.zeros((S, Pmax), dtype=np.int64)
        self.pkt_src = np.zeros((S, Pmax), dtype=np.int64)
        self.pkt_dst = np.zeros((S, Pmax), dtype=np.int64)
        self.pkt_last = np.zeros((S, Pmax), dtype=np.int64)
        self.pkt_path = np.zeros((S, Pmax, Hmax), dtype=np.int64)
        self.pkt_vcs = np.zeros((S, Pmax, W), dtype=np.int64)
        for s, ((cycles, srcs, dsts), pairs) in enumerate(zip(schedules, lane_pairs)):
            P = len(cycles)
            if not P:
                continue
            self.pkt_created[s, :P] = cycles
            self.pkt_src[s, :P] = srcs
            self.pkt_dst[s, :P] = dsts
            self.pkt_last[s, :P] = tab_last[pairs]
            self.pkt_path[s, :P] = tab_path[pairs]
            self.pkt_vcs[s, :P] = tab_vcs[pairs]

        # Tracked = created during the measurement window; every one of
        # them is injected before any lane can freeze, so the created
        # count is a pure function of the schedule.
        valid = (
            np.arange(Pmax, dtype=np.int64)[None, :] < self.lane_P[:, None]
            if Pmax
            else np.zeros((S, 0), dtype=bool)
        )
        self.pkt_tracked = valid & (self.pkt_created >= self.warmup)
        self.created_count = self.pkt_tracked.sum(axis=1)

        # NIC queues: per lane, flits ordered by (source node, creation
        # order) so each node's queue is one contiguous slice consumed by
        # two absolute pointers (head = next flit to leave the NIC,
        # avail = flits injected so far).
        Fmax = int((self.lane_P * self.PF).max()) if S else 0
        self.Fmax = Fmax
        self.inj_seq = np.zeros((S, max(Fmax, 1)), dtype=np.int64)
        self.inj_start = np.zeros((S, N), dtype=np.int64)
        for s in range(S):
            P = int(self.lane_P[s])
            pf = int(self.PF[s])
            if not P:
                continue
            order = np.argsort(self.pkt_src[s, :P], kind="stable")
            seq = (order[:, None] * pf + np.arange(pf, dtype=np.int64)[None, :]).ravel()
            self.inj_seq[s, : P * pf] = seq
            counts = np.bincount(self.pkt_src[s, :P], minlength=N) * pf
            self.inj_start[s] = np.concatenate(([0], np.cumsum(counts)[:-1]))

        # Injection events across lanes, sorted by cycle for O(1) slicing.
        ev_s = np.concatenate(
            [np.full(int(p), s, dtype=np.int64) for s, p in enumerate(self.lane_P)]
        ) if S and Pmax else np.zeros(0, dtype=np.int64)
        ev_pid = np.concatenate(
            [np.arange(int(p), dtype=np.int64) for p in self.lane_P]
        ) if S and Pmax else np.zeros(0, dtype=np.int64)
        ev_cycle = (
            self.pkt_created[ev_s, ev_pid] if len(ev_s) else np.zeros(0, dtype=np.int64)
        )
        order = np.argsort(ev_cycle, kind="stable")
        self.ev_s = ev_s[order]
        self.ev_pid = ev_pid[order]
        self.ev_offsets = np.searchsorted(
            ev_cycle[order], np.arange(self.measure_end + 1, dtype=np.int64)
        )

    # -- live state --------------------------------------------------------

    def _build_state(self) -> None:
        S, NU, E, V, N, C, M = self.S, self.NU, self.E, self.V, self.N, self.C, self.M
        self.buf_flit = np.full((S, NU, C), -1, dtype=np.int64)
        self.buf_head = np.zeros((S, NU), dtype=np.int64)
        self.buf_len = np.zeros((S, NU), dtype=np.int64)
        # In-flight flits/credits, bucketed by arrival slot (cycle mod M).
        # Each flit entry is an (sl, su, fl) triple of aligned arrays; each
        # credit entry is a flat index array into ``credits_f``.
        self.flit_pend: list[list] = [[] for _ in range(M)]
        self.credit_pend: list[list] = [[] for _ in range(M)]
        self.owner = np.full((S, E, V), -1, dtype=np.int64)
        self.credits = np.broadcast_to(self.credits_init, (S, E, V)).copy()
        self.rr = np.zeros((S, E), dtype=np.int64)
        self.ej_rr = np.zeros((S, N), dtype=np.int64)
        self.eject_credits = np.full(
            (S, N), self.config.ejection_queue_flits, dtype=np.int64
        )
        self.inj_head = self.inj_start.copy()
        self.inj_avail = self.inj_start.copy()
        self.flit_arrival = np.zeros((S, max(self.Fmax, 1)), dtype=np.int64)
        self.flit_hop = np.zeros((S, max(self.Fmax, 1)), dtype=np.int64)
        self.tracked_remaining = np.zeros(S, dtype=np.int64)
        self.delivered_flits = np.zeros(S, dtype=np.int64)
        self.max_backlog = np.zeros(S, dtype=np.int64)
        self.cycles_end = np.zeros(S, dtype=np.int64)
        self.active = np.ones(S, dtype=bool)
        self.lat_lists: list[list[int]] = [[] for _ in range(S)]
        # Previous cycle's ejection winners, sorted by (lane, the winning
        # group's first-requester unit) — the scalar eject-pipe order.
        self.pend_s = np.zeros(0, dtype=np.int64)
        self.pend_f = np.zeros(0, dtype=np.int64)
        self._occ = np.zeros((S, NU), dtype=bool)
        # Head flit per (lane, unit), maintained incrementally at every
        # push/pop — stale (-1/garbage) entries are gated by occupancy.
        self.head_flit = np.full((S, NU), -1, dtype=np.int64)
        # Flat views (shared memory) + strides: the hot loop gathers via
        # ``np.take`` on 1-D views, which beats tuple advanced indexing.
        self.Pmax = self.pkt_created.shape[1]
        self.Fm = self.flit_arrival.shape[1]
        self.R = self.edge_id.shape[0]
        self.W = self.pkt_vcs.shape[2]
        self.arrival_f = self.flit_arrival.reshape(-1)
        self.hop_f = self.flit_hop.reshape(-1)
        self.pkt_last_f = self.pkt_last.reshape(-1)
        self.pkt_dst_f = self.pkt_dst.reshape(-1)
        self.pkt_path_f = self.pkt_path.reshape(-1)
        self.pkt_vcs_f = self.pkt_vcs.reshape(-1)
        self.edge_id_f = self.edge_id.reshape(-1)
        self.buf_flit_f = self.buf_flit.reshape(-1)
        self.buf_head_f = self.buf_head.reshape(-1)
        self.buf_len_f = self.buf_len.reshape(-1)
        self.inj_seq_f = self.inj_seq.reshape(-1)
        self.inj_head_f = self.inj_head.reshape(-1)
        self.owner_f = self.owner.reshape(-1)
        self.credits_f = self.credits.reshape(-1)
        self.eject_f = self.eject_credits.reshape(-1)
        self.head_flit_f = self.head_flit.reshape(-1)
        self.now = 0

    # -- per-cycle passes --------------------------------------------------

    def _inject(self, cycle: int) -> None:
        a, b = int(self.ev_offsets[cycle]), int(self.ev_offsets[cycle + 1])
        if a == b:
            return
        s = self.ev_s[a:b]
        pid = self.ev_pid[a:b]
        node = self.pkt_src[s, pid]
        size = self.PF[s]
        # At most one packet per (lane, node, cycle) — plain fancy
        # indexing cannot collide.
        head = self.inj_head[s, node]
        empty = head == self.inj_avail[s, node]
        if empty.any():
            se, ne = s[empty], node[empty]
            self.head_flit[se, self.inj_unit[ne]] = self.inj_seq_f.take(
                se * self.inj_seq.shape[1] + head[empty]
            )
        self.inj_avail[s, node] += size
        self.flit_arrival[s, pid * size] = cycle
        if cycle >= self.warmup:
            np.add.at(self.tracked_remaining, s, 1)

    def _deliver(self, slot: int) -> None:
        bucket = self.credit_pend[slot]
        if bucket:
            self.credit_pend[slot] = []
            idx = bucket[0] if len(bucket) == 1 else np.concatenate(bucket)
            self.credits_f[idx] += 1
        bucket = self.flit_pend[slot]
        if bucket:
            self.flit_pend[slot] = []
            if len(bucket) == 1:
                sl, su, fl = bucket[0]
            else:
                sl = np.concatenate([b[0] for b in bucket])
                su = np.concatenate([b[1] for b in bucket])
                fl = np.concatenate([b[2] for b in bucket])
            self.arrival_f[sl * self.Fm + fl] = self.now
            # <=1 flit per (lane, unit) per cycle: no scatter collisions.
            lens = self.buf_len_f.take(su)
            pos = (self.buf_head_f.take(su) + lens) % self.C
            self.buf_flit_f[su * self.C + pos] = fl
            self.buf_len_f[su] = lens + 1
            was_empty = lens == 0
            if was_empty.any():
                self.head_flit_f[su[was_empty]] = fl[was_empty]

    def _drain_ejection(self) -> None:
        if not self.pend_s.size:
            return
        s, f = self.pend_s, self.pend_f
        self.pend_s = np.zeros(0, dtype=np.int64)
        self.pend_f = np.zeros(0, dtype=np.int64)
        pf = self.PF[s]
        pid = f // pf
        idx = f - pid * pf
        dst = self.pkt_dst[s, pid]
        self.eject_credits[s, dst] += 1  # NIC consumes immediately
        tails = idx == pf - 1
        if not tails.any():
            return
        t_s = s[tails]
        t_pid = pid[tails]
        created = self.pkt_created[t_s, t_pid]
        tracked = created >= self.warmup
        if not tracked.any():
            return
        t_s = t_s[tracked]
        lat = (self.now - created[tracked]).tolist()
        np.add.at(self.delivered_flits, t_s, self.PF[t_s])
        np.add.at(self.tracked_remaining, t_s, -1)
        lists = self.lat_lists
        for lane, value in zip(t_s.tolist(), lat):
            lists[lane].append(value)

    def _arbitrate(self) -> None:
        now = self.now
        E, V, C = self.E, self.V, self.C
        eligible_at = self.config.router_delay - 1

        occ = self._occ
        np.greater(self.buf_len, 0, out=occ)
        occ[:, self.inj_unit] = self.inj_head < self.inj_avail
        occ &= self.active[:, None]
        s_c, u_c = np.nonzero(occ)  # row-major: ascending (lane, unit)
        if not s_c.size:
            return

        # Head flit per occupied unit (cache maintained at push/pop).
        hf = self.head_flit_f.take(s_c * self.NU + u_c)

        pf = self.PF.take(s_c)
        pid = hf // pf
        fidx = hf - pid * pf
        is_head = fidx == 0
        eligible = ~is_head | (
            now >= self.arrival_f.take(s_c * self.Fm + hf) + eligible_at
        )
        if not eligible.all():
            s_c, u_c, hf, pf, pid, fidx, is_head = (
                x[eligible] for x in (s_c, u_c, hf, pf, pid, fidx, is_head)
            )
            if not s_c.size:
                return

        sp = s_c * self.Pmax + pid
        hop = self.hop_f.take(s_c * self.Fm + hf)
        last = self.pkt_last_f.take(sp)
        is_ej = hop == last
        nxt = self.pkt_path_f.take(sp * self.Hmax + np.minimum(hop + 1, last))
        e = self.edge_id_f.take(self.unit_router.take(u_c) * self.R + nxt)
        vc = self.pkt_vcs_f.take(sp * self.W + np.minimum(hop, self.W - 1))
        dst = self.pkt_dst_f.take(sp)
        outport = np.where(is_ej, E + dst, e)
        # e == -1 on ejection rows: sev can go negative there, so wrap —
        # the garbage reads are masked out by the is_ej branch of np.where.
        sev = s_c * (E * V) + e * V + vc
        own = self.owner_f.take(sev, mode="wrap")
        viable = np.where(
            is_ej,
            self.eject_f.take(s_c * self.N + dst) > 0,
            ((own == pid) | ((own == -1) & is_head))
            & (self.credits_f.take(sev, mode="wrap") > 0),
        )

        # Group candidates by (lane, output port).  The stable sort keeps
        # ascending unit order inside each group — the scalar request
        # table's insertion order.
        g = s_c * (E + self.N) + outport
        so = np.argsort(g, kind="stable")
        gs = g[so]
        vs = viable[so]
        new_seg = np.empty(len(gs), dtype=bool)
        new_seg[0] = True
        np.not_equal(gs[1:], gs[:-1], out=new_seg[1:])
        starts = np.flatnonzero(new_seg)
        nseg = len(starts)
        counts = np.empty(nseg, dtype=np.int64)
        counts[:-1] = starts[1:] - starts[:-1]
        counts[-1] = len(gs) - starts[-1]
        ends = np.empty(nseg, dtype=np.int64)
        ends[:-1] = starts[1:] - 1
        ends[-1] = len(gs) - 1
        cs = np.cumsum(vs)
        seg_base = cs[starts] - vs[starts]
        vcount = cs[ends] - seg_base
        rank = cs - vs - np.repeat(seg_base, counts)

        ss = so[starts]
        seg_s = s_c[ss]
        seg_out = outport[ss]
        act = vcount > 0

        # Round-robin: advance (and read the pre-increment pointer) only
        # for groups with at least one viable candidate.
        rrv = np.zeros(len(starts), dtype=np.int64)
        lm = act & (seg_out < E)
        if lm.any():
            li, lo = seg_s[lm], seg_out[lm]
            cur = self.rr[li, lo]
            rrv[lm] = cur
            self.rr[li, lo] = cur + 1
        em = act & (seg_out >= E)
        if em.any():
            ei, eo = seg_s[em], seg_out[em] - E
            cur = self.ej_rr[ei, eo]
            rrv[em] = cur
            self.ej_rr[ei, eo] = cur + 1
        # rrv is zero outside act, so the clamped modulo leaves those at 0.
        target = rrv % np.maximum(vcount, 1)

        win = vs & (rank == np.repeat(target, counts))
        wpos = np.flatnonzero(win)
        if not wpos.size:
            return

        sel = so[wpos]  # winner rows in the original candidate arrays
        w_s = s_c[sel]
        w_u = u_c[sel]
        w_hf = hf[sel]
        w_pid = pid[sel]
        w_fidx = fidx[sel]
        w_pf = pf[sel]
        w_hop = hop[sel]
        w_isej = is_ej[sel]
        w_e = e[sel]
        w_vc = vc[sel]
        w_dst = dst[sel]
        # First-requester unit of each winner's group (<=1 winner/group,
        # winners and group starts are both ascending in sort position).
        w_first = u_c[so[starts[np.searchsorted(starts, wpos, side="right") - 1]]]

        # Pop the winning unit (one winner per output port, and a unit
        # requests at most one port — every indexed slot is distinct).
        w_inj = self.unit_is_inj[w_u]
        if w_inj.any():
            si = w_s[w_inj]
            ui = w_u[w_inj]
            nd = self.unit_node[ui]
            head = self.inj_head[si, nd] + 1
            self.inj_head[si, nd] = head
            # New head (clip: garbage past queue end is gated by occupancy).
            self.head_flit[si, ui] = self.inj_seq_f.take(
                si * self.inj_seq.shape[1] + head, mode="clip"
            )
        w_lnk = ~w_inj
        if w_lnk.any():
            sl = w_s[w_lnk]
            ul = w_u[w_lnk]
            su = sl * self.NU + ul
            head = (self.buf_head_f.take(su) + 1) % C
            self.buf_head_f[su] = head
            self.buf_len_f[su] -= 1
            self.head_flit_f[su] = self.buf_flit_f.take(su * C + head)
            when = (now + self.unit_credit_lat[ul]) % self.M
            cidx = sl * (E * V) + self.unit_credit_slot[ul]
            uw = np.unique(when)
            if uw.size == 1:
                self.credit_pend[int(uw[0])].append(cidx)
            else:
                for w in uw.tolist():
                    self.credit_pend[w].append(cidx[when == w])

        ej = w_isej
        if ej.any():
            se = w_s[ej]
            self.eject_credits[se, w_dst[ej]] -= 1
            # Queue for next cycle's drain in scalar eject-pipe order:
            # ascending (lane, first-requester unit of the winning group).
            order2 = np.lexsort((w_first[ej], se))
            self.pend_s = se[order2]
            self.pend_f = w_hf[ej][order2]

        lk = ~ej
        if lk.any():
            sl = w_s[lk]
            el = w_e[lk]
            vl = w_vc[lk]
            fl = w_hf[lk]
            self.flit_hop[sl, fl] = w_hop[lk] + 1
            # Wormhole ownership: head claims the VC, tail releases it
            # (tail wins for single-flit packets, as in the scalar core).
            hd = w_fidx[lk] == 0
            if hd.any():
                self.owner[sl[hd], el[hd], vl[hd]] = w_pid[lk][hd]
            tl = w_fidx[lk] == w_pf[lk] - 1
            if tl.any():
                self.owner[sl[tl], el[tl], vl[tl]] = -1
            self.credits[sl, el, vl] -= 1
            when = (now + self.link_lat[el]) % self.M
            su = sl * self.NU + self.link_unit[el, vl]
            uw = np.unique(when)
            if uw.size == 1:
                self.flit_pend[int(uw[0])].append((sl, su, fl))
            else:
                for w in uw.tolist():
                    m = when == w
                    self.flit_pend[w].append((sl[m], su[m], fl[m]))

    def _freeze_finished(self) -> None:
        now = self.now
        if now < self.measure_end:
            return
        fin = self.active & (self.tracked_remaining == 0)
        if now >= self.end_now:
            fin = self.active.copy()
        if not fin.any():
            return
        self.cycles_end[fin] = now
        self.active[fin] = False
        # Silence frozen lanes so they produce no further candidates.
        self.buf_len[fin] = 0
        self.inj_head[fin] = self.inj_avail[fin]
        EV = self.E * self.V
        active = self.active
        for m in range(self.M):
            bucket = self.credit_pend[m]
            if bucket:
                idx = bucket[0] if len(bucket) == 1 else np.concatenate(bucket)
                keep = active[idx // EV]
                self.credit_pend[m] = [idx[keep]] if keep.any() else []
            bucket = self.flit_pend[m]
            if bucket:
                if len(bucket) == 1:
                    sl, su, fl = bucket[0]
                else:
                    sl = np.concatenate([b[0] for b in bucket])
                    su = np.concatenate([b[1] for b in bucket])
                    fl = np.concatenate([b[2] for b in bucket])
                keep = active[sl]
                self.flit_pend[m] = (
                    [(sl[keep], su[keep], fl[keep])] if keep.any() else []
                )
        if self.pend_s.size:
            keep = self.active[self.pend_s]
            self.pend_s = self.pend_s[keep]
            self.pend_f = self.pend_f[keep]

    def run(self) -> None:
        measure_end = self.measure_end
        while self.active.any():
            cycle = self.now
            if cycle < measure_end:
                self._inject(cycle)
            self.now += 1
            self._deliver(self.now % self.M)
            self._drain_ejection()
            self._arbitrate()
            live = self.active
            backlog = (self.inj_avail - self.inj_head).max(axis=1)
            np.maximum(
                self.max_backlog, backlog, out=self.max_backlog, where=live
            )
            self._freeze_finished()

    # -- results -----------------------------------------------------------

    def results(self) -> list[tuple[SimResult, dict]]:
        out = []
        cfg = self.config
        for s, lane in enumerate(self.lanes):
            latencies = self.lat_lists[s]
            payload = {
                "injection_rate": lane.load,
                "cycles": int(self.cycles_end[s]),
                "created_packets": int(self.created_count[s]),
                "delivered_packets": len(latencies),
                "delivered_flits": int(self.delivered_flits[s]),
                "num_nodes": self.N,
                "measure_cycles": self.measure,
                "max_injection_backlog": int(self.max_backlog[s]),
                "saturation_delivery_fraction": cfg.saturation_delivery_fraction,
                "saturation_backlog": cfg.saturation_backlog,
            }
            ordered = np.sort(np.asarray(latencies, dtype=np.int64))
            if len(latencies) > LATENCY_HISTOGRAM_THRESHOLD:
                values, counts = np.unique(ordered, return_counts=True)
                payload["latency_hist"] = [
                    [int(v), int(c)] for v, c in zip(values, counts)
                ]
            else:
                payload["latencies"] = list(latencies)
            result = SimResult.from_dict(payload)
            # Prime the sorted-latency cache from the batch arrays so no
            # downstream consumer pays the per-result sort again.
            result.__dict__["sorted_latencies"] = ordered.tolist()
            out.append((result, payload))
        return out
