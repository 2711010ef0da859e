"""Span tracer that times calls into the program's public callables.

Nothing inside ``src/`` is edited: :func:`instrument` swaps wrappers in
for the public functions and methods of each layer while a traced run
is active, and :meth:`Tracer.restore` puts the originals back.

Each wrapper pushes a frame on one stack, so a layer's *self* time is
its span's duration minus the part its child spans cover.  A call into
a layer that is already the innermost open span (recursion, or one
public function of a layer calling another) is folded into that span.

Coarse spans — campaign calls, engine batches, store round trips, CLI
invocations, simulator runs — are kept as records (name, start, end,
parent, operation id) and written out when the run ends.  Per-cycle and
per-packet spans (``sim.step``, ``sim.inject``, ``routing.route``,
``traffic.packets_at``) are only summed, per name, because storing one
record per simulated cycle would cost more memory than the run itself.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

#: Layers whose every span is stored as a record.
RECORDED = {
    "cli.main",
    "engine.campaign",
    "engine.runner",
    "engine.store.get_many",
    "engine.store.put_many",
    "sim.build",
    "sim.run",
    "sim.batch",
    "power.join",
    "analysis.assemble",
}


class Tracer:
    """Open spans, per-name self time and counts, and the stored records.

    ``op`` is the operation id stamped on records; callers advance it.
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.stack: list[list] = []  # [name, child seconds, span id, start]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.op = 0
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _enter(self, name: str) -> list | None:
        stack = self.stack
        if stack and stack[-1][0] == name:
            return None
        frame = [name, 0.0, self._next_id, self.clock()]
        self._next_id += 1
        stack.append(frame)
        return frame

    def _exit(self, frame: list, *, count: bool = True) -> None:
        end = self.clock()
        stack = self.stack
        stack.pop()
        name, child, span_id, start = frame
        duration = end - start
        self.self_s[name] += duration - child
        if count:
            self.counts[name + ".calls"] += 1
        if stack:
            stack[-1][1] += duration
        if name in RECORDED:
            parent = stack[-1][2] if stack else 0
            self.spans.append(
                (span_id, name, start - self.origin, end - self.origin, parent, self.op)
            )

    def wrap(self, name: str, fn, after=None):
        """A stand-in for ``fn`` that times each call under ``name``;
        ``after(args, kwargs, result)`` then records counts."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name)
            if frame is None:
                return fn(*args, **kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn, item_count: str):
        """Like :meth:`wrap` for a generator function: the time spent
        producing each item is charged to ``name``; ``item_count`` counts
        the items."""
        tracer = self

        def drive(generator):
            while True:
                frame = tracer._enter(name)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    if frame is not None:
                        tracer._exit(frame, count=False)
                tracer.counts[item_count] += 1
                yield item

        def traced(*args, **kwargs):
            generator = fn(*args, **kwargs)
            if tracer.stack and tracer.stack[-1][0] == name:
                return generator
            tracer.counts[name + ".calls"] += 1
            return drive(generator)

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------

    def patch_attr(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, fn, replacement) -> None:
        """Rebind every module-level name in the ``repro`` package that
        refers to ``fn`` (re-exports and ``from x import fn`` copies)."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch_attr(module, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------

    def dump(self) -> dict:
        return {
            "self_s": dict(sorted(self.self_s.items())),
            "counts": dict(sorted(self.counts.items())),
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
        }


def instrument(tracer: Tracer) -> None:
    """Wrap the public callables of every layer (the package must be
    imported first, so that re-exported names are rebound too)."""
    import repro.__main__ as cli
    from repro import analysis, power, topos
    from repro.engine import campaign, runner, spec, store
    from repro.routing import algorithms
    from repro.sim import batch, network
    from repro.traffic import nonstationary, synthetic, workloads

    counts = tracer.counts
    wrap = tracer.wrap

    # cli
    tracer.patch_function(cli.main, wrap("cli.main", cli.main))

    # engine.campaign
    for fn in (campaign.run_compare, campaign.workload_compare):
        tracer.patch_function(fn, wrap("engine.campaign", fn))

    # engine.runner: per-batch stage seconds come from the engine's own RunStats
    def after_run(args, kwargs, result):
        stats = args[0].last_stats.stage_seconds
        tracer.self_s["engine.runner.cache_lookup"] += stats.get("cache_lookup", 0.0)
        tracer.self_s["engine.runner.write_back"] += stats.get("write_back", 0.0)
        tracer.self_s["engine.runner.overhead"] += stats.get("total", 0.0) - stats.get(
            "simulate", 0.0
        )

    tracer.patch_attr(
        runner.ExperimentEngine,
        "run",
        wrap("engine.runner", runner.ExperimentEngine.run, after_run),
    )

    # engine.store
    def after_get(args, kwargs, result):
        counts["engine.store.get_many.keys"] += len(args[1])
        counts["engine.store.get_many.hits"] += len(result)

    def after_put(args, kwargs, result):
        counts["engine.store.put_many.keys"] += len(args[1])

    front = store.ResultCache
    tracer.patch_attr(
        front, "get_many", wrap("engine.store.get_many", front.get_many, after_get)
    )
    tracer.patch_attr(
        front, "put_many", wrap("engine.store.put_many", front.put_many, after_put)
    )

    # engine.spec
    tracer.patch_attr(
        spec.ExperimentSpec,
        "content_hash",
        wrap("engine.spec.content_hash", spec.ExperimentSpec.content_hash),
    )

    # topos
    for fn in (spec.resolve_topology, topos.make_network):
        tracer.patch_function(fn, wrap("topos.resolve", fn))

    # routing
    tracer.patch_function(
        spec.build_routing, wrap("routing.build", spec.build_routing)
    )
    for cls in vars(algorithms).values():
        if (
            isinstance(cls, type)
            and issubclass(cls, algorithms.RoutingAlgorithm)
            and "route" in cls.__dict__
        ):
            tracer.patch_attr(cls, "route", wrap("routing.route", cls.__dict__["route"]))

    # traffic
    for module in (synthetic, nonstationary, workloads):
        for cls in vars(module).values():
            if (
                isinstance(cls, type)
                and cls.__module__ == module.__name__
                and "packets_at" in cls.__dict__
            ):
                tracer.patch_attr(
                    cls,
                    "packets_at",
                    tracer.wrap_generator(
                        "traffic.packets_at", cls.__dict__["packets_at"], "traffic.packets"
                    ),
                )

    # sim (scalar core)
    core = network.NoCSimulator

    def after_sim_run(args, kwargs, result):
        counts["sim.cycles"] += result.cycles

    tracer.patch_attr(core, "__init__", wrap("sim.build", core.__init__))
    tracer.patch_attr(core, "run", wrap("sim.run", core.run, after_sim_run))
    tracer.patch_attr(core, "step", wrap("sim.step", core.step))
    tracer.patch_attr(core, "inject_packet", wrap("sim.inject", core.inject_packet))
    tracer.patch_attr(core, "issue_replies", wrap("sim.replies", core.issue_replies))

    # sim.codec
    result_cls = network.SimResult
    decode = result_cls.__dict__["from_dict"].__func__
    tracer.patch_attr(
        result_cls, "from_dict", classmethod(wrap("sim.codec.decode", decode))
    )
    tracer.patch_attr(
        result_cls, "to_dict", wrap("sim.codec.encode", result_cls.to_dict)
    )

    # sim.batch
    def after_batch(args, kwargs, result):
        counts["sim.batch.lanes"] += len(result)

    tracer.patch_function(
        batch.simulate_batch, wrap("sim.batch", batch.simulate_batch, after_batch)
    )

    # power
    for fn in (
        power.static_power,
        power.dynamic_power,
        power.network_area,
        power.average_route_stats,
    ):
        tracer.patch_function(fn, wrap("power.join", fn))

    # analysis
    for fn in (campaign.assemble_curve, analysis.edp_table, analysis.edp_gain):
        tracer.patch_function(fn, wrap("analysis.assemble", fn))


def layer_metrics(dump: dict, import_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a tracer dump, as ``{name: (value, unit)}``.

    Times are self times.  ``import_s`` is the fresh-process import time,
    measured outside the tracer.  ``sim.replies_s``, ``sim.batch_s``,
    ``cli.main_s`` and ``power.join_s`` are printed but not in the
    result line (see the README): each is zero on some workload by
    construction, so their ``.calls`` counts stand in.
    """
    self_s = dump["self_s"]
    counts = dump["counts"]

    def seconds(name: str) -> float:
        return self_s.get(name, 0.0)

    def count(name: str) -> int:
        return counts.get(name, 0)

    cycles = count("sim.cycles")
    keys = count("engine.store.get_many.keys")
    return {
        "sim.build_s": (seconds("sim.build"), "s"),
        "sim.run_s": (seconds("sim.run"), "s"),
        "sim.step.calls": (count("sim.step.calls"), "count"),
        "sim.step_s": (seconds("sim.step"), "s"),
        "sim.inject.calls": (count("sim.inject.calls"), "count"),
        "sim.inject_s": (seconds("sim.inject"), "s"),
        "sim.replies.calls": (count("sim.replies.calls"), "count"),
        "sim.replies_s": (seconds("sim.replies"), "s"),
        "sim.cycles": (cycles, "cycles"),
        "sim.step_ratio": (count("sim.step.calls") / cycles if cycles else 0.0, "ratio"),
        "routing.build_s": (seconds("routing.build"), "s"),
        "routing.route.calls": (count("routing.route.calls"), "count"),
        "routing.route_s": (seconds("routing.route"), "s"),
        "traffic.packets_at.calls": (count("traffic.packets_at.calls"), "count"),
        "traffic.packets_at_s": (seconds("traffic.packets_at"), "s"),
        "traffic.packets": (count("traffic.packets"), "count"),
        "sim.batch.lanes": (count("sim.batch.lanes"), "count"),
        "sim.batch_s": (seconds("sim.batch"), "s"),
        "engine.store.get_many.keys": (keys, "count"),
        "engine.store.get_many_s": (seconds("engine.store.get_many"), "s"),
        "engine.store.put_many.keys": (count("engine.store.put_many.keys"), "count"),
        "engine.store.put_many_s": (seconds("engine.store.put_many"), "s"),
        "engine.store.hit_ratio": (
            count("engine.store.get_many.hits") / keys if keys else 0.0,
            "ratio",
        ),
        "sim.codec.decode_s": (seconds("sim.codec.decode"), "s"),
        "sim.codec.encode_s": (seconds("sim.codec.encode"), "s"),
        "engine.runner.cache_lookup_s": (seconds("engine.runner.cache_lookup"), "s"),
        "engine.runner.write_back_s": (seconds("engine.runner.write_back"), "s"),
        "engine.runner.overhead_s": (seconds("engine.runner.overhead"), "s"),
        "engine.campaign.engine_runs": (count("engine.runner.calls"), "count"),
        "engine.spec.content_hash_s": (seconds("engine.spec.content_hash"), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.main.calls": (count("cli.main.calls"), "count"),
        "cli.main_s": (seconds("cli.main"), "s"),
        "power.join.calls": (count("power.join.calls"), "count"),
        "power.join_s": (seconds("power.join"), "s"),
        "analysis.assemble_s": (seconds("analysis.assemble"), "s"),
        "topos.resolve.calls": (count("topos.resolve.calls"), "count"),
        "topos.resolve_s": (seconds("topos.resolve"), "s"),
    }
