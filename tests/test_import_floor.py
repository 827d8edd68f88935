"""The import floor: importing the package must not load scipy or networkx.

``scipy.stats`` once cost every process 0.6-0.8 s and ~65 MB of resident
memory for a single ``spearmanr`` call, and networkx ~13 MB and ~0.1 s for
one co-occurrence graph.  A fresh interpreter imports the package and every
module the end-to-end benchmark's measured process imports, and checks that
neither library was loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

#: The modules ``perfbench/child.py`` imports.
BENCHMARK_IMPORTS = (
    "repro.analysis.suite",
    "repro.experiments.registry",
    "repro.io.shards",
    "repro.reporting.longitudinal",
    "repro.reporting.report",
)


def _assert_not_loaded(package):
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (source_root, env.get("PYTHONPATH"))))
    code = "\n".join(
        ["import sys", "import repro"]
        + [f"import {module}" for module in BENCHMARK_IMPORTS]
        + [
            f"loaded = sorted(name for name in sys.modules if name.split('.')[0] == {package!r})",
            f"assert {package!r} not in sys.modules, loaded",
        ]
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr


def test_package_import_does_not_load_scipy():
    _assert_not_loaded("scipy")


def test_package_import_does_not_load_networkx():
    _assert_not_loaded("networkx")
