"""Import layering: each entry path loads only what it runs.

The package ``__init__`` modules resolve their public names lazily
(:mod:`repro._lazy`), so a cached CLI sweep never loads NumPy, the batch
tier, the network-store clients, the work queue, or the process pool.
The hygiene check runs in a fresh interpreter, since this test process
has long since imported everything.
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
)

#: Modules that a cached ``sweep`` on the default pool executor must not load.
UNUSED_ON_WARM_PATH = (
    "numpy",
    "repro.sim.batch",
    "repro.engine.batching",
    "repro.engine.store.http",
    "repro.engine.store.objectstore",
    "repro.engine.store.fakebucket",
    "repro.engine.store.faulty",
    "repro.engine.queue",
    "repro.engine.worker",
    "concurrent.futures.process",
)

HYGIENE_SCRIPT = """
import contextlib, io, json, sys

UNUSED = json.loads(sys.argv[1])
SWEEP = ["sweep", "sn54", "--loads", "0.02,0.05", "--no-stop", "--quiet",
         "--warmup", "50", "--measure", "100", "--drain", "200"]
loaded = {}

def check(point):
    loaded[point] = [name for name in UNUSED if name in sys.modules]

import repro.__main__
check("import repro.__main__")

import repro.analysis
from repro.engine import ExperimentEngine, ResultCache
check("cold-campaign set-up")

from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(SWEEP + ["--cache-dir", "pool"]) for _ in range(2)]
check("warm sweep")

batch = ["--cache-dir", "batch", "--executor", "batch"]
try:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(SWEEP + batch))
except RuntimeError:  # BatchUnavailableError: no NumPy here
    codes.append(None)
print(json.dumps({"codes": codes, "loaded": loaded,
                  "batch_tier": "repro.sim.batch" in sys.modules}))
"""


def test_cached_cli_and_campaign_setup_skip_unused_tiers(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CALIBRATION"] = str(tmp_path / "calibration.json")
    proc = subprocess.run(
        [sys.executable, "-c", HYGIENE_SCRIPT, json.dumps(UNUSED_ON_WARM_PATH)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["loaded"] == {
        "import repro.__main__": [],
        "cold-campaign set-up": [],
        "warm sweep": [],
    }
    # The batch tier is still reachable: ``--executor batch`` loads it,
    # and runs wherever NumPy is installed.
    assert report["batch_tier"]
    has_numpy = importlib.util.find_spec("numpy") is not None
    assert report["codes"] == [0, 0, 0 if has_numpy else None]


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
