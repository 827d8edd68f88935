"""Process workers cap numpy's OpenBLAS at one thread.

Each worker would otherwise run one BLAS thread per core, and the workers
together oversubscribe the machine.  The pool is driven from a fresh
interpreter whose environment has no ``OPENBLAS_NUM_THREADS``, so neither
the test runner's environment nor an inherited library state decides it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec import pool as pool_module

_SCRIPT = """
import json, sys
sys.path.insert(0, {tests_dir!r})
from test_blas_threads import worker_openblas_threads
from repro.exec.pool import ExecTask, WorkerPool
with WorkerPool("process", workers=2, start_method={method!r}) as pool:
    outcomes = pool.run([ExecTask(key=str(i), fn=worker_openblas_threads) for i in range(4)])
print(json.dumps({{"workers": [outcome.result for outcome in outcomes],
                   "errors": [outcome.error for outcome in outcomes]}}))
"""


def worker_openblas_threads() -> int:
    """A process-kind task: its worker's OpenBLAS thread count."""
    return pool_module._openblas_threads()[1]()


@pytest.mark.skipif(pool_module._openblas_threads() is None, reason="no known OpenBLAS symbol")
@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_process_workers_run_one_blas_thread(method):
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    src = str(Path(pool_module.__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = _SCRIPT.format(tests_dir=str(Path(__file__).resolve().parent), method=method)
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["errors"] == [None] * 4
    assert result["workers"] == [1] * 4


def test_missing_symbol_is_reported_once_and_not_raised(monkeypatch):
    monkeypatch.setattr(pool_module, "_OPENBLAS_SYMBOLS", ("no_such_setter", "no_such_getter"))
    pool_module._openblas_threads.cache_clear()
    pool_module._report_uncapped_blas.cache_clear()
    try:
        pool_module._cap_blas_threads()
        with pytest.warns(RuntimeWarning, match="OpenBLAS"):
            pool_module._report_uncapped_blas()
        pool_module._install_shared({"key": "value"})
        assert pool_module.shared_state("key") == "value"
    finally:
        pool_module._openblas_threads.cache_clear()
        pool_module._report_uncapped_blas.cache_clear()
        pool_module._WORKER_SHARED.clear()
