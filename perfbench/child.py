"""One fresh-process phase of a benchmark run (started by ``run.py``).

Usage::

    python3 perfbench/child.py setup    WORKLOAD SEED RUNDIR OUT
    python3 perfbench/child.py campaign WORKLOAD SEED RUNDIR OUT [--trace]
    python3 perfbench/child.py replay   cached_replay SEED RUNDIR OUT

``setup`` times the imports and fresh-store creation a cold campaign
pays.  ``campaign`` does the same and then runs one cold campaign
(optionally under the tracer), timing :func:`pace.pace` after the set-up
and after every operation; the reported timings exclude the paces.
``replay`` is ``cached_replay``'s traced run: it warms a store by
calling the CLI's ``main(argv)`` in-process, replays the CLI invocations
once untraced and once traced, and reports the traced spans.  Each mode
writes one JSON object to OUT.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from pace import pace  # noqa: E402


def digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cold_setup(workload: str, run_dir: Path):
    """Imports plus a fresh store and engine: the cold workloads' set-up."""
    import repro.analysis  # noqa: F401
    from repro.engine import ExperimentEngine, ResultCache

    class RecordingEngine(ExperimentEngine):
        """Keeps every (spec, result) pair handed back to the campaign."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.batches = []

        def run(self, specs, topologies=None, progress=None):
            results = super().run(specs, topologies=topologies, progress=progress)
            self.batches.append((specs, results))
            return results

    store = tempfile.mkdtemp(prefix="store-", dir=run_dir)
    engine = RecordingEngine(cache=ResultCache(store), max_workers=1)
    return engine, time.perf_counter() - _START


def offered_bound(spec, result) -> float:
    """Highest offered load (flits/node/cycle) the source can present in
    the measurement window, before sampling noise."""
    from repro.engine import BurstTraffic, WorkloadTraffic
    from repro.traffic import WORKLOADS

    source = spec.source
    if isinstance(source, WorkloadTraffic):
        return result.injection_rate * (1 + WORKLOADS[source.bench].burstiness)
    if isinstance(source, BurstTraffic):
        period = source.on_cycles + source.off_cycles
        return source.load * period / source.on_cycles
    return source.mean_load


def invariant_problems(spec, result) -> list[str]:
    """Model sanity that must hold under any seed."""
    problems = []
    if result.delivered_packets > result.created_packets:
        problems.append(
            f"delivered {result.delivered_packets} > created {result.created_packets}"
        )
    if not result.saturated:
        # Sampling slack: six standard deviations of a Poisson packet count.
        slack = 1 + 6 / math.sqrt(max(result.created_packets, 1))
        bound = offered_bound(spec, result)
        if result.throughput > bound * slack:
            problems.append(
                f"accepted {result.throughput:.4f} > offered {bound:.4f} "
                "on a sub-saturation point"
            )
    return problems


def network_names(workload: str) -> dict[str, str]:
    from repro.engine import topology_token
    from repro.topos import make_network

    names = wl.SYNTH_NETWORKS if workload == "synth_cold" else wl.PARSEC_NETWORKS
    return {topology_token(make_network(name)): name for name in names}


def run_campaign(workload: str, seed: int, run_dir: Path, traced: bool) -> dict:
    engine, setup_s = cold_setup(workload, run_dir)
    tracer = None
    if traced:
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
        tracer.op = 1
    marks = []
    # paces[i] is timed before operation i + 1 and after operation i;
    # resumes[i] is when operation i + 1 started.
    paces = [pace()]
    paced_cpu = 0.0

    def progress(done, total, spec, cached):
        nonlocal paced_cpu
        marks.append((time.perf_counter(), spec, cached))
        if tracer is not None:
            tracer.op = len(marks) + 1  # spans from here on belong to the next op
        cpu = time.process_time()
        paces.append(pace())
        paced_cpu += time.process_time() - cpu
        resumes.append(time.perf_counter())

    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    resumes = [wall0]
    outcome = wl.CAMPAIGNS[workload](engine, seed, progress)
    wall1 = time.perf_counter()
    cpu1 = time.process_time()
    if tracer is not None:
        tracer.restore()

    results = {}
    for specs, batch in engine.batches:
        for spec, result in zip(specs, batch):
            results[spec.content_hash()] = result
    names = network_names(workload)
    ops = []
    for index, (mark, spec, cached) in enumerate(marks):
        seconds = mark - resumes[index]
        if index == len(marks) - 1:
            seconds += wall1 - resumes[-1]  # the campaign's own tail
        key = spec.content_hash()
        result = results[key]
        problems = invariant_problems(spec, result)
        if cached:
            problems.append("served from the cache on a cold run")
        label = f"{names.get(spec.topology, spec.topology)} {spec.source.label}"
        if spec.routing != "default":
            label += f" routing={spec.routing}"
        if spec.config.elastic_links:
            label += " el_links"
        ops.append(
            {
                "key": key,
                "label": label,
                "seconds": seconds,
                "cycles": result.cycles,
                "digest": digest(result.to_dict()),
                "problems": problems,
            }
        )
    return {
        "setup_s": setup_s,
        "setup_pace_s": statistics.median(paces[:3]),
        "paces": paces,
        "campaign_s": sum(op["seconds"] for op in ops),
        "cpu_s": cpu1 - cpu0 - paced_cpu,
        "peak_rss_mb": peak_rss_mb(),
        "ops": ops,
        "paper": wl.paper_line(workload, outcome),
        "trace": tracer.dump() if tracer is not None else None,
    }


def run_replay(seed: int, run_dir: Path) -> dict:
    """``cached_replay``'s traced run, entirely in this process."""
    import repro.__main__ as cli
    from spans import Tracer, instrument

    store = str(run_dir / "store-traced")
    commands = wl.replay_commands(seed)

    def invoke(name: str, argv: list[str], tag: str) -> dict:
        argv = [*argv, "--cache-dir", store]
        json_path = None
        if name != "compare":
            json_path = run_dir / f"traced-{tag}-{name.replace(':', '-')}.json"
            argv += ["--json", str(json_path)]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
        payload = json.loads(json_path.read_text()) if json_path else None
        return {"code": code, "seconds": seconds, "stdout": out.getvalue(), "json": payload}

    tracer = Tracer()
    instrument(tracer)
    reference = [invoke(name, argv, "setup") for name, argv in commands]
    tracer.restore()
    untraced = [invoke(name, argv, "plain") for name, argv in commands]
    instrument(tracer)
    traced = []
    for index, (name, argv) in enumerate(commands, start=1):
        tracer.op = index
        traced.append(invoke(name, argv, "traced"))
    tracer.restore()
    return {
        "reference": reference,
        "untraced": untraced,
        "traced": traced,
        "names": [name for name, _ in commands],
        "trace": tracer.dump(),
    }


def main(argv: list[str]) -> int:
    mode, workload, seed_text, run_dir_text, out_text, *flags = argv
    seed = int(seed_text)
    run_dir = Path(run_dir_text)
    if mode == "setup":
        _, setup_s = cold_setup(workload, run_dir)
        payload = {
            "setup_s": setup_s,
            "setup_pace_s": statistics.median(pace() for _ in range(3)),
        }
    elif mode == "campaign":
        payload = run_campaign(workload, seed, run_dir, "--trace" in flags)
    elif mode == "replay":
        payload = run_replay(seed, run_dir)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(out_text).write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
