"""Smoke-run every script under ``examples/``.

No other test runs them, yet they read suite properties the report does
not (``suite.corpus``, ``suite.tool_usage``, ``suite.collection``) and
``case_study_interactions.py`` is the only caller of ``repro.runtime``
outside its own tests.  Each script runs in a fresh interpreter, at a small
size, and must exit 0, print something, and print no traceback.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

#: Extra arguments per script: a small world, and never ``--write``.
SCRIPT_ARGS = {"reproduce_paper_tables.py": ["--gpts", "300"]}


@pytest.mark.parametrize("script", sorted(path.name for path in EXAMPLES.glob("*.py")))
def test_example_runs_clean(script, tmp_path):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *SCRIPT_ARGS.get(script, [])],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = completed.stdout + completed.stderr
    assert completed.returncode == 0, output
    assert completed.stdout.strip(), f"{script} printed nothing"
    assert "Traceback" not in output, output
