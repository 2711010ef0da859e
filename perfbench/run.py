"""Campaign benchmark: cold synthetic sweep, cold PARSEC EDP table, cached CLI replay.

Run from the repository root::

    python3 perfbench/run.py --workload synth_cold --seed 3 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` reports the per-layer metrics of a traced run and the
tracing overhead.  Every workload is a closed loop with one client
through the default ``pool`` executor with one worker.  The run keeps
to one CPU, and its end-to-end times are scaled to a reference host
speed by a yardstick timed next to every operation (``pace.py``); the
unscaled host times are printed alongside.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Two maintenance modes take the same ``--workload``/``--seed``:

* ``--check-counts`` runs the traced run twice and fails unless every
  count (``*.calls``, ``sim.cycles``, ``traffic.packets``, store keys)
  is identical;
* ``--record-reference`` re-records the cold workloads' result digests
  into ``perfbench/reference.json`` (they hold under every seed, which
  only orders the grid).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
REFERENCE = HERE / "reference.json"
#: The metric lists: ``end_to_end`` under ``--trace 0``, ``per_layer``
#: under ``--trace 1``.
SPEC_FILE = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from pace import REFERENCE_S, local_paces, pace, pin, scaled  # noqa: E402

#: Environment knobs that could make a "cold" run warm or change dispatch.
CLEARED_ENV = (
    "REPRO_CACHE_DIR",
    "REPRO_NO_CACHE",
    "REPRO_EXECUTOR",
    "REPRO_WORKERS",
    "REPRO_CACHE_MAX_BYTES",
    "REPRO_LOG",
    "REPRO_LOG_FORMAT",
    "REPRO_CACHE_BACKEND",
    "REPRO_CALIBRATION",
)
#: Fresh-process set-up probes per cold run, and store warm-ups per
#: ``cached_replay`` run; ``setup_s`` is their median.
COLD_SETUP_PROBES = 5
REPLAY_SETUPS = 3
#: Fresh-process ``import repro.__main__`` probes behind ``cli.import_s``.
IMPORT_PROBES = 3
#: Every run must end within this many seconds.
DEADLINE_S = 170.0

COUNT_SUFFIXES = (".calls", ".keys", ".hits", ".lanes")
COUNT_NAMES = ("sim.cycles", "traffic.packets")


class BenchError(RuntimeError):
    """A run that cannot produce a result (the program or set-up broke)."""


# -- processes ------------------------------------------------------------


class Run:
    """One benchmark invocation: its scratch directory, environment and clock."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        RUNS.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=RUNS))
        self.env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
        self.env.update(
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            REPRO_CALIBRATION=str(self.dir / "calibration.json"),
        )
        self._outputs = 0
        self.paces = [pace()]  # timed in this process, one after each CLI op

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def proc(self, argv: list[str]) -> dict:
        """Run one child to completion; returns its wall and CPU seconds,
        peak RSS, exit code and output."""
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("out of time before the run finished")
        with tempfile.TemporaryFile(dir=self.dir) as out, tempfile.TemporaryFile(
            dir=self.dir
        ) as err:
            start = time.perf_counter()
            child = subprocess.Popen(
                argv, stdout=out, stderr=err, env=self.env, cwd=self.dir
            )
            timer = threading.Timer(timeout, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            child.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - start
            out.seek(0)
            err.seek(0)
            return {
                "code": child.returncode,
                "wall": wall,
                "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out.read().decode("utf-8", "replace"),
                "stderr": err.read().decode("utf-8", "replace"),
            }

    def child(self, mode: str, *flags: str) -> dict:
        """Run ``child.py`` in a fresh process and return its JSON."""
        self._outputs += 1
        out = self.dir / f"child-{self._outputs}.json"
        argv = [
            sys.executable,
            str(HERE / "child.py"),
            mode,
            self.workload,
            str(self.seed),
            str(self.dir),
            str(out),
            *flags,
        ]
        reply = self.proc(argv)
        if reply["code"] != 0:
            raise BenchError(
                f"{self.workload}: child {mode} exited {reply['code']}:\n"
                + reply["stderr"][-2000:]
            )
        return json.loads(out.read_text())

    def import_seconds(self) -> float:
        """Median fresh-process ``import repro.__main__`` time."""
        code = (
            "import time; t = time.perf_counter(); import repro.__main__; "
            "print(time.perf_counter() - t)"
        )
        samples = []
        for _ in range(IMPORT_PROBES):
            reply = self.proc([sys.executable, "-c", code])
            if reply["code"] != 0:
                raise BenchError("import repro.__main__ failed:\n" + reply["stderr"])
            samples.append(float(reply["stdout"].strip()))
        return statistics.median(samples)

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# -- statistics -------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, float]:
    """``(mean, value, percentile)`` of the highest percentile with at
    least ten samples beyond it: the mean of the samples at and beyond it,
    the percentile's own sample, and the percentile (the maximum when
    there are ten samples or fewer).

    ``op_s_tail`` is the mean.  The single sample is one operation's time,
    which moved twice as much from run to run: 14% against 7% for the
    campaign on ``synth_cold``, over ten runs."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], ordered[-1], 100.0
    index = len(ordered) - 11
    return (
        statistics.fmean(ordered[index:]),
        ordered[index],
        100.0 * (index + 1) / len(ordered),
    )


# -- output checks ----------------------------------------------------------


class Checker:
    """Counts attempted and failed operations; failures name the workload
    and the operation."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{self.workload} op {label}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_campaign(checker: Checker, campaign: dict) -> None:
    """Cold campaign: model invariants and no cache hits (checked per
    operation in ``child.py``), plus the pinned result digests."""
    reference = None
    if REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text()).get(checker.workload)
    seen = set()
    for number, op in enumerate(campaign["ops"], start=1):
        problems = list(op["problems"])
        if reference is not None:
            pinned = reference["ops"].get(op["key"])
            if pinned is None:
                problems.append("spec is not in the reference campaign")
            elif pinned["digest"] != op["digest"]:
                problems.append(
                    f"result digest {op['digest']} != reference {pinned['digest']}"
                )
        seen.add(op["key"])
        checker.op(f"#{number} {op['label']}", problems)
    if reference is not None:
        for key, pinned in reference["ops"].items():
            if key not in seen:
                checker.op(pinned["label"], ["reference spec was never simulated"])


VOLATILE_LINE = re.compile(r"^\s*(engine:|stages:|wrote )")
ENGINE_LINE = re.compile(r"engine: (\d+) cached, (\d+) simulated")


def replay_output(reply: dict) -> tuple[object, int | None]:
    """``(results, simulations)`` from one CLI invocation: the JSON minus
    engine stats (or, for ``compare``, stdout minus timing lines) and the
    simulation count the invocation reported."""
    payload = reply.get("json")
    if payload is not None:
        engine = payload.pop("engine")
        return payload, engine.get("executed", engine.get("simulated"))
    found = ENGINE_LINE.search(reply["stdout"])
    kept = [
        line for line in reply["stdout"].splitlines() if not VOLATILE_LINE.match(line)
    ]
    return "\n".join(kept), int(found.group(2)) if found else None


def check_replay(checker: Checker, label: str, reply: dict, expected) -> None:
    problems = []
    if reply["code"] != 0:
        problems.append(f"exit code {reply['code']}")
    else:
        results, simulated = replay_output(reply)
        if simulated != 0:
            problems.append(f"reported {simulated} simulations, expected 0")
        if results != expected:
            problems.append("printed results differ from the set-up results")
    checker.op(label, problems)


# -- workloads --------------------------------------------------------------


def host_note(setup_s: list[float], campaign_s: list[float], op_s: list[float]) -> str:
    return (
        f"setup_s {statistics.median(setup_s):.4g}, "
        f"campaign_s {statistics.median(campaign_s):.4g}, "
        f"op_s_p50 {statistics.median(op_s):.4g}, op_s_tail {tail(op_s)[0]:.4g}"
    )


def cold_untraced(run: Run, seconds: float, checker: Checker) -> tuple[dict, dict]:
    setups = [run.child("setup") for _ in range(COLD_SETUP_PROBES)]
    campaigns = []
    # Scaled seconds, so that the number of campaigns does not follow the
    # host's speed.
    timed = 0.0
    while not campaigns or timed + campaigns[-1]["scaled_s"] <= seconds:
        campaign = run.child("campaign")
        check_campaign(checker, campaign)
        ops = [op["seconds"] for op in campaign["ops"]]
        campaign["scaled_ops"] = list(map(scaled, ops, local_paces(campaign["paces"])))
        campaign["scaled_s"] = sum(campaign["scaled_ops"])
        timed += campaign["scaled_s"]
        campaigns.append(campaign)
        setups.append(campaign)
    host_ops, op_seconds, campaign_s, cpu_s, cycles_per_cpu_s = [], [], [], [], []
    for campaign in campaigns:
        # At the reference pace the campaign is the sum of its operations,
        # and its CPU time is scaled by the same ratio.
        host_ops += [op["seconds"] for op in campaign["ops"]]
        op_seconds += campaign["scaled_ops"]
        campaign_s.append(campaign["scaled_s"])
        cpu_s.append(campaign["cpu_s"] * campaign["scaled_s"] / campaign["campaign_s"])
        cycles = sum(op["cycles"] for op in campaign["ops"])
        cycles_per_cpu_s.append(cycles / cpu_s[-1])
    op_tail, op_at_pct, pct = tail(op_seconds)
    metrics = {
        "setup_s": (
            statistics.median(scaled(s["setup_s"], s["setup_pace_s"]) for s in setups),
            "s",
        ),
        "campaign_s": (statistics.median(campaign_s), "s"),
        "cpu_s": (statistics.median(cpu_s), "s"),
        "ops_per_s": (len(op_seconds) / sum(op_seconds), "ops/s"),
        "op_s_p50": (statistics.median(op_seconds), "s"),
        "op_s_tail": (op_tail, "s"),
        "sim_cycles_per_cpu_s": (statistics.median(cycles_per_cpu_s), "cycles/s"),
        "peak_rss_mb": (max(c["peak_rss_mb"] for c in campaigns), "MB"),
    }
    paces = [pace_s for c in campaigns for pace_s in c["paces"]]
    notes = {
        "campaigns": len(campaigns),
        "ops": len(op_seconds),
        "op_s_tail percentile": f"p{pct:.1f} of {len(op_seconds)}, sample {op_at_pct:.4g} s",
        "host seconds (unscaled)": host_note(
            [s["setup_s"] for s in setups], [c["campaign_s"] for c in campaigns], host_ops
        ),
        "median pace / reference pace": round(statistics.median(paces) / REFERENCE_S, 3),
        "paper": campaigns[-1]["paper"],
    }
    return metrics, notes


def store_cycles(store: Path) -> tuple[int, int]:
    """``(simulated cycles, histogram entries)`` over a directory store."""
    cycles = histograms = 0
    for path in store.glob("*/*.json"):
        result = json.loads(path.read_text())["result"]
        cycles += result["cycles"]
        histograms += "latency_hist" in result
    return cycles, histograms


def cli_invoke(run: Run, name: str, argv: list[str], store: Path, tag: str) -> dict:
    """One CLI invocation in a fresh process, followed by a pace timed in
    this one; ``op`` numbers it within the run's sequence of paces."""
    argv = [*argv, "--cache-dir", str(store)]
    json_path = None
    if name != "compare":
        json_path = run.dir / f"{tag}-{name.replace(':', '-')}.json"
        argv += ["--json", str(json_path)]
    reply = run.proc([sys.executable, "-m", "repro", *argv])
    reply["op"] = len(run.paces) - 1
    run.paces.append(pace())
    reply["json"] = (
        json.loads(json_path.read_text())
        if json_path is not None and reply["code"] == 0
        else None
    )
    return reply


def replay_setup(run: Run, index: int) -> tuple[list[dict], dict, int]:
    """Warm a fresh store through the CLI; returns ``(replies, {command:
    results}, simulated cycles)``."""
    store = run.dir / f"store-{index}"
    replies = []
    outputs = {}
    for name, argv in wl.replay_commands(run.seed):
        reply = cli_invoke(run, name, argv, store, f"setup{index}")
        if reply["code"] != 0:
            raise BenchError(f"cached_replay set-up {name} failed:\n{reply['stderr']}")
        replies.append(reply)
        outputs[name], _ = replay_output(reply)
    cycles, histograms = store_cycles(store)
    if not histograms:
        raise BenchError("cached_replay set-up stored no latency histograms")
    return replies, outputs, cycles


def replay_untraced(run: Run, seconds: float, checker: Checker) -> tuple[dict, dict]:
    setups = [replay_setup(run, index) for index in range(REPLAY_SETUPS)]
    expected = setups[-1][1]
    if any(outputs != expected for _, outputs, _ in setups):
        checker.failures.append("cached_replay: set-up warm-ups disagree")
    store = run.dir / f"store-{REPLAY_SETUPS - 1}"
    commands = wl.replay_commands(run.seed)
    replies = []
    passes = []  # the replies of each pass over the commands
    pass_walls = []
    # Scaled seconds of each pass with the paces timed so far, so that the
    # number of passes does not follow the host's speed.
    timed = []
    while not passes or sum(timed) + timed[-1] <= seconds:
        pass_start = time.perf_counter()
        passes.append([])
        for name, argv in commands:
            reply = cli_invoke(run, name, argv, store, "replay")
            check_replay(checker, f"#{len(replies) + 1} {name}", reply, expected[name])
            replies.append(reply)
            passes[-1].append(reply)
        pass_walls.append(time.perf_counter() - pass_start)
        paces = local_paces(run.paces)
        timed.append(sum(scaled(r["wall"], paces[r["op"]]) for r in passes[-1]))
    # Every invocation of the run, set-ups included, at the reference pace.
    paces = local_paces(run.paces)
    for reply in [*replies, *(reply for setup in setups for reply in setup[0])]:
        reply["seconds"] = scaled(reply["wall"], paces[reply["op"]])
        reply["cpu_s"] = scaled(reply["cpu"], paces[reply["op"]])
    op_seconds = [reply["seconds"] for reply in replies]
    op_tail, op_at_pct, pct = tail(op_seconds)
    metrics = {
        "setup_s": (
            statistics.median(sum(r["seconds"] for r in setup) for setup, _, _ in setups),
            "s",
        ),
        "campaign_s": (
            statistics.median(sum(r["seconds"] for r in group) for group in passes),
            "s",
        ),
        "cpu_s": (
            statistics.median(sum(r["cpu_s"] for r in group) for group in passes),
            "s",
        ),
        "ops_per_s": (len(replies) / sum(op_seconds), "ops/s"),
        "op_s_p50": (statistics.median(op_seconds), "s"),
        "op_s_tail": (op_tail, "s"),
        "sim_cycles_per_cpu_s": (
            statistics.median(
                cycles / sum(r["cpu_s"] for r in setup) for setup, _, cycles in setups
            ),
            "cycles/s",
        ),
        "peak_rss_mb": (max(reply["rss_mb"] for reply in replies), "MB"),
    }
    notes = {
        "passes": len(passes),
        "ops": len(replies),
        "op_s_tail percentile": f"p{pct:.1f} of {len(op_seconds)}, sample {op_at_pct:.4g} s",
        "sim_cycles_per_cpu_s": "measured over the set-up warm-up (CLI start-up included)",
        "host seconds (unscaled)": host_note(
            [sum(r["wall"] for r in setup) for setup, _, _ in setups],
            pass_walls,
            [reply["wall"] for reply in replies],
        ),
        "median pace / reference pace": round(
            statistics.median(run.paces) / REFERENCE_S, 3
        ),
    }
    return metrics, notes


def traced(run: Run, checker: Checker) -> tuple[dict, dict, dict]:
    """The traced run: per-layer metrics, tracing overhead, trace dump."""
    from spans import layer_metrics

    if run.workload in wl.COLD_WORKLOADS:
        plain = run.child("campaign")
        check_campaign(checker, plain)
        traced_run = run.child("campaign", "--trace")
        check_campaign(checker, traced_run)
        plain_s, traced_s = plain["campaign_s"], traced_run["campaign_s"]
        notes = {"paper": traced_run["paper"]}
    else:
        traced_run = run.child("replay")
        for name, reference, plain, traced_reply in zip(
            traced_run["names"],
            traced_run["reference"],
            traced_run["untraced"],
            traced_run["traced"],
        ):
            expected, _ = replay_output(reference)
            check_replay(checker, f"untraced in-process {name}", plain, expected)
            check_replay(checker, f"traced in-process {name}", traced_reply, expected)
        plain_s = sum(reply["seconds"] for reply in traced_run["untraced"])
        traced_s = sum(reply["seconds"] for reply in traced_run["traced"])
        notes = {"overhead basis": "in-process CLI replays, untraced vs traced"}
    dump = traced_run["trace"]
    layers = layer_metrics(dump, run.import_seconds())
    layers["trace.overhead_s"] = (traced_s - plain_s, "s")
    layers["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "ratio")
    return layers, notes, dump


def repeated_counts(dump: dict) -> dict:
    return {
        name: value
        for name, value in dump["counts"].items()
        if name.endswith(COUNT_SUFFIXES) or name in COUNT_NAMES
    }


# -- entry points -----------------------------------------------------------


def format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {format_value(value):>14s} {unit}")


def benchmark(args, spec: dict) -> int:
    pin()
    run = Run(args.workload, args.seed)
    checker = Checker(args.workload)
    try:
        if args.trace:
            metrics, notes, dump = traced(run, checker)
            RUNS.joinpath("traces").mkdir(exist_ok=True)
            trace_path = RUNS / "traces" / f"{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(dump))
            notes["trace file"] = str(trace_path.relative_to(ROOT))
        elif args.workload in wl.COLD_WORKLOADS:
            metrics, notes = cold_untraced(run, args.seconds, checker)
        else:
            metrics, notes = replay_untraced(run, args.seconds, checker)
    finally:
        run.cleanup()
    mode = "traced, per layer" if args.trace else "end to end"
    print_metrics(f"{args.workload} seed={args.seed} ({mode})", metrics)
    failed_frac = checker.failed / max(checker.attempted, 1)
    print(f"  {'failed_frac':32s} {format_value(failed_frac):>14s} fraction")
    for name, note in notes.items():
        if note is not None:
            print(f"  {name}: {note}")
    for failure in checker.failures:
        print(f"  FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": not checker.failures,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    entry["name"]: {
                        "value": metrics[entry["name"]][0],
                        "unit": entry["unit"],
                    }
                    for entry in spec["per_layer" if args.trace else "end_to_end"]
                },
            }
        )
    )
    return 0


def check_counts(args) -> int:
    """Run the traced run twice; every count must repeat exactly."""
    dumps = []
    for _ in range(2):
        run = Run(args.workload, args.seed)
        try:
            if args.workload in wl.COLD_WORKLOADS:
                dumps.append(run.child("campaign", "--trace")["trace"])
            else:
                dumps.append(run.child("replay")["trace"])
        finally:
            run.cleanup()
    first, second = (repeated_counts(dump) for dump in dumps)
    differing = sorted(
        name for name in first.keys() | second.keys() if first.get(name) != second.get(name)
    )
    for name in sorted(first.keys() | second.keys()):
        marker = "DIFFERS" if name in differing else "same"
        print(f"  {name:32s} {first.get(name)!s:>12s} {second.get(name)!s:>12s} {marker}")
    print(f"{args.workload}: {len(first)} counts, {len(differing)} differ")
    return 1 if differing else 0


def record_reference(args) -> int:
    table = {}
    for workload in wl.COLD_WORKLOADS:
        run = Run(workload, wl.DEFAULT_SEED)
        try:
            campaign = run.child("campaign")
        finally:
            run.cleanup()
        table[workload] = {
            "ops": {
                op["key"]: {"label": op["label"], "digest": op["digest"]}
                for op in campaign["ops"]
            },
        }
        print(f"{workload}: recorded {len(campaign['ops'])} result digests")
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, default="synth_cold")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-counts", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC_FILE.is_file():
        print(f"error: needs {SRC / 'repro'} and {SPEC_FILE}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            return record_reference(args)
        if args.check_counts:
            return check_counts(args)
        return benchmark(args, json.loads(SPEC_FILE.read_text()))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
