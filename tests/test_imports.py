"""Import layering: each entry path loads only what it runs.

The package ``__init__`` modules resolve their public names lazily
(:mod:`repro._lazy`), and the simulator, routing algorithms and traffic
sources are imported where a spec executes.  A fully cached CLI call
therefore loads no simulator, no routing algorithm, no NumPy, batch
tier, network-store client, work queue or process pool, and does not
read the cost-calibration table.  The hygiene checks run in fresh
interpreters, since this test process has long since imported
everything.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

LAZY_PACKAGES = (
    "repro",
    "repro.sim",
    "repro.engine",
    "repro.engine.store",
    "repro.analysis",
    "repro.traffic",
    "repro.routing",
)

#: The scalar simulator and what only an executing spec uses.
SIMULATOR = (
    "repro.sim.network",
    "repro.sim.links",
    "repro.sim.packet",
    "repro.sim.state",
    "repro.routing.algorithms",
    "repro.traffic.nonstationary",
)

#: Tiers that a serial run on the default pool executor never uses, even
#: when it simulates.
UNUSED_ON_POOL_PATH = (
    "numpy",
    "repro.sim.batch",
    "repro.engine.batching",
    "repro.engine.store.http",
    "repro.engine.store.faulty",
    "repro.engine.queue",
    "repro.engine.worker",
    "concurrent.futures.process",
)

#: What only a miss reads: the calibration seed and the pool's waiter.
MISS_ONLY = ("repro.perf", "concurrent.futures")

#: The power model, which only ``workloads`` reads (its EDP join).
POWER = ("repro.power",)

#: Modules that a cached ``sweep``/``compare`` must not load.
UNUSED_ON_WARM_PATH = SIMULATOR + UNUSED_ON_POOL_PATH + MISS_ONLY + POWER

WINDOW = ["--warmup", "50", "--measure", "100", "--drain", "200", "--quiet"]
LOADS = ["--loads", "0.02,0.05", "--no-stop"]
CLI_CALLS = {
    "sweep": ["sweep", "sn54", *LOADS, *WINDOW],
    "compare": ["compare", "sn54", "cm54", *LOADS, *WINDOW],
    "workloads": ["workloads", "sn54", "--benches", "barnes,fft", *WINDOW],
}

PRELUDE = """
import contextlib, io, json, sys

ARGS = json.loads(sys.argv[1])
loaded = {}

def check(point, modules=ARGS["unused"]):
    loaded[point] = [name for name in modules if name in sys.modules]

def run(name, store="pool", extra=()):
    from repro.__main__ import main
    argv = ARGS["calls"][name] + ["--cache-dir", store, *extra]
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)
"""

COLD_SCRIPT = (
    PRELUDE
    + """
import repro.__main__
check("import repro.__main__")

import repro.analysis
from repro.engine import ExperimentEngine, ResultCache
check("cold-campaign set-up")

codes = [run(name) for name in ARGS["calls"]]
check("cold miss", ["repro.sim.network"])
check("cold miss tiers", ARGS["pool_unused"])

try:
    codes.append(run("sweep", store="batch", extra=["--executor", "batch"]))
except RuntimeError:  # BatchUnavailableError: no NumPy here
    codes.append(None)
print(json.dumps({"codes": codes, "loaded": loaded,
                  "batch_tier": "repro.sim.batch" in sys.modules}))
"""
)

WARM_SCRIPT = (
    PRELUDE
    + """
codes = []
for name in ARGS["warm"]:
    codes.append(run(name))
    unused = ARGS["unused"]
    if name == "workloads":
        unused = [m for m in unused if m not in ARGS["power"]]
    check("warm " + name, unused)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""
)


def _fresh_interpreter(script, cwd, calibration, warm=()):
    """Run ``script`` in a new interpreter; ``warm`` names the CLI calls
    that :data:`WARM_SCRIPT` replays."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CALIBRATION"] = str(calibration)
    args = {
        "unused": UNUSED_ON_WARM_PATH,
        "power": POWER,
        "pool_unused": UNUSED_ON_POOL_PATH,
        "calls": CLI_CALLS,
        "warm": list(warm),
    }
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(args)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store that every cached call below hits in full, plus the report
    of the cold interpreter that filled it."""
    root = tmp_path_factory.mktemp("imports")
    report = _fresh_interpreter(COLD_SCRIPT, root, root / "calibration.json")
    return root, report


def test_cached_cli_and_campaign_setup_skip_unused_tiers(warm_store):
    root, cold = warm_store
    assert cold["loaded"] == {
        "import repro.__main__": [],
        "cold-campaign set-up": [],
        # A miss executes its spec: the simulator loads there.
        "cold miss": ["repro.sim.network"],
        "cold miss tiers": [],
    }
    # The batch tier is still reachable: ``--executor batch`` loads it,
    # and runs wherever NumPy is installed.
    assert cold["batch_tier"]
    has_numpy = importlib.util.find_spec("numpy") is not None
    assert cold["codes"] == [0, 0, 0, 0 if has_numpy else None]

    warm = _fresh_interpreter(
        WARM_SCRIPT,
        root,
        root / "calibration.json",
        warm=("sweep", "compare", "workloads"),
    )
    assert warm["codes"] == [0, 0, 0]
    assert warm["loaded"] == {
        "warm sweep": [],
        "warm compare": [],
        "warm workloads": [],
    }


def test_cached_sweep_leaves_calibration_unread(warm_store):
    """With no calibration file the table would seed itself from the
    perf baseline; a fully cached call never needs the table."""
    root, _ = warm_store
    calibration = root / "fresh" / "calibration.json"
    report = _fresh_interpreter(WARM_SCRIPT, root, calibration, warm=("sweep",))
    assert report["codes"] == [0]
    assert report["loaded"] == {"warm sweep": []}
    assert not calibration.exists()


def _exports(package):
    module = importlib.import_module(package)
    return module, module._EXPORTS


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve_to_defining_objects(package):
    module, exports = _exports(package)
    exported = {name for names in exports.values() for name in names}
    assert set(module.__all__) <= exported
    assert len(module.__all__) == len(set(module.__all__))
    for submodule, names in exports.items():
        origin = importlib.import_module(submodule, package)
        for name in names:
            assert getattr(module, name) is getattr(origin, name), name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_listed_star_importable_and_strict(package):
    module, _ = _exports(package)
    assert set(module.__all__) <= set(dir(module))
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="NoSuchName"):
        getattr(module, "NoSuchName")
    with pytest.raises(ImportError):
        exec(f"from {package} import NoSuchName", {})


def test_remote_store_errors_keep_their_import_paths():
    from repro.engine import RemoteAuthError, RemoteStoreError
    from repro.engine.store import base, http

    assert RemoteStoreError is base.RemoteStoreError is http.RemoteStoreError
    assert RemoteAuthError is base.RemoteAuthError is http.RemoteAuthError
    assert issubclass(RemoteAuthError, RemoteStoreError)
