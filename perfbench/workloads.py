"""The three workloads: their inputs, generated from the seed, and their bodies.

Every input is a pure function of ``seed``; the program under test only
ever sees the generated grids and command lines.  The seed sets the
order of the grid (networks, traffic slices, benchmarks, CLI
invocations).  The simulation seeds stay the campaigns' own, so every
seed does the same simulation work and every result can be checked
against the pinned digests: varying the simulation seed moved
``parsec_cold``'s work by up to half between seeds (workload phases are
seeded), which is wider than any regression bound could be.

* ``synth_cold`` — Fig 12/13-style latency-load curves through
  :func:`repro.engine.run_compare` against a fresh store, staged early
  stop, default EB config, plus an elastic-links slice and an adaptive
  (``ugal-l``) slice.
* ``parsec_cold`` — the Fig 18 campaign: :func:`repro.analysis.workload_table`
  over four networks x the 14 PARSEC/SPLASH models with SMART on, then
  :func:`repro.analysis.edp_table` against ``fbf3``.
* ``cached_replay`` — small-network sweeps, a compare and a workloads
  table run through the CLI once to warm a store, then replayed.

One operation is one simulated spec on the cold workloads and one CLI
invocation on ``cached_replay``.
"""

from __future__ import annotations

import random

WORKLOADS = ("synth_cold", "parsec_cold", "cached_replay")
COLD_WORKLOADS = ("synth_cold", "parsec_cold")

DEFAULT_SEED = 1
#: Simulation seeds: the CLI default for the synthetic curves and the CLI
#: replays, and the Figure 18 campaign's own seed for the PARSEC table.
SYNTH_SIM_SEED = 1
PARSEC_SIM_SEED = 3
REPLAY_SIM_SEED = 1

SYNTH_NETWORKS = ("sn200", "fbf3", "pfbf3", "cm3", "t2d3")
SYNTH_PATTERNS = ("RND", "ADV1")
SYNTH_LOADS = (0.008, 0.06, 0.16, 0.30)
ELASTIC_NETWORKS = ("sn200", "cm3")
ADAPTIVE_NETWORK = "sn200"
ADAPTIVE_ROUTING = "ugal-l"
ADAPTIVE_TRAFFIC = ("ADV1", "burst:ADV1:64+192")

PARSEC_NETWORKS = ("fbf3", "pfbf3", "cm3", "sn200")
EDP_BASELINE = "fbf3"
EDP_SUBJECT = "sn200"
#: Paper, Section 7 / Figure 18: SN's geomean EDP gain over FBF.
PAPER_EDP_GAIN = 0.55
REPLAY_NETWORKS = ("sn54", "cm54", "t2d54", "fbf54")
REPLAY_PATTERNS = "RND,ADV1"
REPLAY_LOADS = "0.02,0.1,0.2,0.3"
REPLAY_BENCHES = "barnes,fft,ocean-c,water-s"
REPLAY_WINDOW = ("--warmup", "100", "--measure", "300", "--drain", "400")


def shuffled(items, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def synth_campaign(engine, seed: int, progress) -> dict:
    """Run ``synth_cold``'s grid; returns ``{slice label: {network: curve}}``."""
    from repro.engine import run_compare
    from repro.sim import el_links

    slices = [(pattern, pattern, SYNTH_NETWORKS, {}) for pattern in SYNTH_PATTERNS]
    slices.append(("el_links:RND", "RND", ELASTIC_NETWORKS, {"config": el_links()}))
    slices += [
        (f"{ADAPTIVE_ROUTING}:{token}", token, (ADAPTIVE_NETWORK,), {"routing": ADAPTIVE_ROUTING})
        for token in ADAPTIVE_TRAFFIC
    ]
    rng = random.Random(seed)
    curves = {}
    for label, pattern, networks, options in shuffled(slices, rng):
        curves[label] = run_compare(
            engine,
            {name: name for name in shuffled(networks, rng)},
            pattern,
            SYNTH_LOADS,
            seed=SYNTH_SIM_SEED,
            progress=progress,
            **options,
        )
    return curves


def parsec_campaign(engine, seed: int, progress) -> dict:
    """Run the Fig 18 grid; returns ``{"table": rows, "edp": normalised EDP}``."""
    from repro.analysis import edp_table, workload_table
    from repro.traffic import workload_names

    rng = random.Random(seed)
    table = workload_table(
        shuffled(PARSEC_NETWORKS, rng),
        shuffled(workload_names(), rng),
        smart=True,
        seed=PARSEC_SIM_SEED,
        engine=engine,
        progress=progress,
    )
    return {"table": table, "edp": edp_table(table, EDP_BASELINE)}


CAMPAIGNS = {"synth_cold": synth_campaign, "parsec_cold": parsec_campaign}


def paper_line(workload: str, outcome: dict) -> str | None:
    """The modelled outcome next to the paper's number, where the paper
    states one for this campaign (informational, never gated)."""
    if workload != "parsec_cold":
        return None
    from repro.analysis import edp_gain

    gain = edp_gain(outcome["edp"], EDP_SUBJECT, EDP_BASELINE)
    return (
        f"{EDP_SUBJECT} geomean EDP gain over {EDP_BASELINE}: {gain:.1%} "
        f"(paper ~{PAPER_EDP_GAIN:.0%})"
    )


def replay_commands(seed: int) -> list[tuple[str, list[str]]]:
    """``cached_replay``'s CLI invocations as ``(name, argv)`` pairs, in
    the seed's order.

    The set-up runs each once against a fresh store (the sweeps and the
    compare share their RND points, so whichever runs first simulates
    them); the timed phase replays the same list.  Callers append
    ``--cache-dir`` and, except for ``compare`` (which has no JSON
    output), ``--json PATH``.
    """
    common = ["--seed", str(REPLAY_SIM_SEED), *REPLAY_WINDOW, "--quiet"]
    sweep_args = ["--loads", REPLAY_LOADS, "--no-stop"]
    commands = [
        (
            f"sweep:{name}",
            ["sweep", name, "--patterns", REPLAY_PATTERNS, *sweep_args, *common],
        )
        for name in REPLAY_NETWORKS
    ]
    commands.append(
        (
            "compare",
            ["compare", *REPLAY_NETWORKS, "--pattern", "RND", *sweep_args, *common],
        )
    )
    commands.append(
        (
            "workloads",
            ["workloads", *REPLAY_NETWORKS, "--benches", REPLAY_BENCHES, *common],
        )
    )
    return shuffled(commands, random.Random(seed))
