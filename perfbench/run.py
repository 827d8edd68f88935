"""End-to-end benchmark of the measurement pipeline, with a per-layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_2k --seed 0 --seconds 36 --trace 0

Workloads (why each was chosen is in ``BENCHMARK.json``):

* ``paper_2k``: ``MeasurementSuite`` at the paper's 2,000 GPTs with default
  settings, ``run_all()``, every registered experiment and the rendered
  report -- the job every user runs first.
* ``sharded_store``: the same job on the same world with 8 shards and a
  2-worker process pool, so shard writes, streamed shard reads and the warm
  pool do real work; its report must equal ``paper_2k``'s.
* ``epoch_recrawl``: from an epoch-0 store of 25,000 GPTs (16 shards), the
  epoch-1 suite's incremental crawl, the corpus-only analyses plus
  ``policy_duplicates``, and the longitudinal report over both stores -- the
  write-heavy crawler/io path, with no classification, LLM or policy
  framework.  The epoch-0 store is built untimed in a process of its own the
  first time a checkout needs it, and kept under ``.perfbench/``.

Every run of a workload measures the same world (``WORLD_SEED``): worlds of
one size differ in work by up to 25%, so runs on different worlds would not
be comparable.  ``--seed`` therefore selects no input; the inputs are the
same for every seed.

Every repetition runs in a fresh interpreter started by this script, with
BLAS thread pools pinned to one thread and a fixed ``PYTHONHASHSEED``, and
the next one starts only after every process of the previous one (pool
workers included) has exited and its output has been removed and synced.
Repetitions continue until the run is as close to ``--seconds`` long as
whole repetitions allow.  Each one's outputs (report digest; or store
fingerprint, carried and request counts and longitudinal digest) are
compared with the reference in ``references.json``; a mismatch or a
non-zero exit counts as failed and ends the run.

End-to-end metrics, over the run's repetitions:

* ``setup_s``: process start until ``import repro`` has finished and the
  suite is built (median over at least ``SETUP_SAMPLES`` processes);
* ``setup_rss_mb``: resident memory at that point (median);
* ``wall_s``: end of set-up to a complete, checked result (fastest
  repetition);
* ``cpu_s``: user+sys CPU over that interval, pool workers included
  (fastest repetition);
* ``peak_rss_mb``: largest ``VmHWM`` of the pipeline process and its pool
  workers (median).

On a shared host the speed of the same code drifts by half over minutes,
and it comes and goes within a run as well, so the three times are taken
in two steps.  ``wall_s`` and ``cpu_s`` take the fastest repetition, as
``timeit`` does, since other tenants only ever add time.  Then all three
are scaled to a reference host speed: before each repetition the harness
times ``CALIBRATION``, a fresh interpreter that runs no code of this
repository, and multiplies by ``CALIBRATION_REFERENCE_S`` over the median
of those times.  The measured values and the calibration are printed as
notes.

``--trace 1`` adds one traced repetition, which wraps the calls into each
``repro`` layer from outside (``tracing.py``), and prints the per-layer
metrics instead, unscaled, with the tracing overhead (traced ``wall_s``
minus the untraced median).  The traced outputs must match the reference
too.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracing import LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Work directories, kept epoch-0 stores and span files (git-ignored).
STATE_DIR = ROOT / ".perfbench"

#: Workload -> number of GPTs.
WORKLOADS = {"paper_2k": 2000, "sharded_store": 2000, "epoch_recrawl": 25000}
#: The world every run measures.
WORLD_SEED = 0

#: End-to-end metrics: (name, unit).
E2E_METRICS = (
    ("setup_s", "s"),
    ("setup_rss_mb", "MB"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Environment of every measured process.  Unpinned, the BLAS pools of two
#: pool workers oversubscribe a 2-core machine and classification time
#: doubles; the report is identical either way.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Minimum number of set-up samples whose median is ``setup_s``.
SETUP_SAMPLES = 3
#: A fixed task that runs no code of this repository: a fresh interpreter
#: importing the numerical stack, the bulk of ``import repro``.  It runs
#: before every repetition, and the median of its times says how fast the
#: shared host runs such code during this run.
CALIBRATION = "import numpy, scipy.stats"
#: Calibration time (s) of the host speed that timed metrics are scaled to.
CALIBRATION_REFERENCE_S = 1.0
#: Every process this script starts is killed after this long; the whole
#: run must end within 180 s.
RUN_BUDGET_S = 170.0


class ChildFailed(Exception):
    """A measured process exited non-zero, timed out or printed no result."""


class Harness:
    """Starts measured processes for one workload and collects their results."""

    def __init__(self, workload: str, n_gpts: int) -> None:
        self.workload = workload
        self.n_gpts = n_gpts
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = STATE_DIR / f"{workload}-{os.getpid()}"
        self.rep_dir = self.work / "rep"
        self.parent_dir = STATE_DIR / f"parent-{workload}-{n_gpts}-{WORLD_SEED}"
        self.env = dict(os.environ)
        self.env.update(PINNED_ENV)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(self.work / "tmp")

    def spawn(self, mode: str, trace: bool = False) -> dict:
        """Run ``child.py`` once in a fresh session; return its result.

        The previous repetition's output is removed and synced to disk
        first, so its write-back does not land in this one.  ``setup_s`` is
        filled in from this process's clock at spawn time, and the call
        returns only once every process of the session -- pool workers
        included -- has exited.
        """
        shutil.rmtree(self.rep_dir, ignore_errors=True)
        self.rep_dir.mkdir(parents=True)
        (self.work / "tmp").mkdir(exist_ok=True)
        os.sync()
        spec = {
            "mode": mode,
            "workload": self.workload,
            "n_gpts": self.n_gpts,
            "world_seed": WORLD_SEED,
            "work_dir": str(self.rep_dir),
            "parent_dir": str(self.parent_dir),
            "trace": trace,
        }
        spawned = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(
                timeout=max(1.0, self.deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            _kill_session(process.pid)
            process.communicate()
            raise ChildFailed(f"{mode} process timed out")
        finally:
            _wait_session_exit(process.pid)
        lines = stdout.strip().splitlines()
        if process.returncode != 0 or not lines:
            raise ChildFailed(f"{mode} process exited {process.returncode}:\n" + stderr[-3000:])
        result = json.loads(lines[-1])
        result["setup_s"] = result["setup_end"] - spawned
        return result

    def calibrate(self) -> float:
        """Time one run of ``CALIBRATION``, from spawn to exit."""
        started = time.monotonic()
        try:
            subprocess.run(
                [sys.executable, "-c", CALIBRATION],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                check=True,
                timeout=max(1.0, self.deadline - started),
            )
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
            raise ChildFailed(f"calibration failed: {error}") from None
        return time.monotonic() - started

    def prepare_parent(self, fingerprint: str) -> None:
        """Make sure the epoch-0 store exists and has ``fingerprint``.

        A kept store that differs (say, from older code) is rebuilt once.
        """
        for _ in range(2):
            found = self.spawn("parent")["outputs"]["store_fingerprint"]
            if found == fingerprint:
                os.sync()
                return
            shutil.rmtree(self.parent_dir)
        raise ChildFailed(f"epoch-0 store {found} differs from reference {fingerprint}")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _session_members(session: int) -> List[int]:
    """Live (non-zombie) processes whose session id is ``session``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[3]) == session:
            members.append(int(entry))
    return members


def _kill_session(session: int) -> None:
    for pid in _session_members(session):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _wait_session_exit(session: int, timeout: float = 10.0) -> None:
    """Block until no process of ``session`` is left, killing stragglers."""
    give_up = time.monotonic() + timeout
    while _session_members(session):
        if time.monotonic() > give_up:
            _kill_session(session)
            give_up = time.monotonic() + timeout
        time.sleep(0.01)


def load_reference(workload: str, n_gpts: int) -> dict:
    """Reference outputs recorded for ``(workload, n_gpts)``."""
    with open(BENCH_DIR / "references.json", encoding="utf-8") as handle:
        recorded = json.load(handle)
    reference = recorded.get(workload, {}).get(str(n_gpts))
    if not reference:
        raise SystemExit(f"no reference recorded for {workload} at {n_gpts} GPTs")
    return reference


def measure(workload: str, seconds: float, trace: bool) -> Tuple[dict, List[str]]:
    """Run the benchmark; return the result object and lines to print."""
    n_gpts = WORKLOADS[workload]
    reference = load_reference(workload, n_gpts)
    expected = {key: value for key, value in reference.items() if key != "parent_fingerprint"}
    harness = Harness(workload, n_gpts)
    notes: List[str] = []
    reps: List[dict] = []
    setups: List[float] = []
    calibrations: List[float] = []
    attempted = failed = 0

    def check(result: dict, label: str) -> bool:
        outputs = {key: result["outputs"].get(key) for key in expected}
        if outputs != expected:
            notes.append(f"FAILED {label}: outputs {outputs} != {expected}")
            return False
        return True

    try:
        if not (ROOT / "src" / "repro" / "__pycache__").is_dir():
            # A fresh checkout: write the bytecode once, unmeasured.
            harness.spawn("setup")
        if workload == "epoch_recrawl":
            harness.prepare_parent(reference["parent_fingerprint"])
        started = time.monotonic()
        while True:
            attempted += 1
            rep_started = time.monotonic()
            try:
                calibrations.append(harness.calibrate())
                result = harness.spawn("run")
            except ChildFailed as error:
                failed += 1
                notes.append(f"FAILED repetition {attempted}: {error}")
                break
            reps.append(result)
            setups.append(result["setup_s"])
            notes.append(
                f"repetition {attempted}: setup_s {result['setup_s']:.3f} "
                f"wall_s {result['wall_s']:.3f} cpu_s {result['cpu_s']:.3f} "
                f"peak_rss_mb {result['peak_rss_mb']:.1f}"
            )
            if not check(result, f"repetition {attempted}"):
                failed += 1
                break
            # Stop at the repetition boundary nearest to ``seconds``.
            now = time.monotonic()
            if now - started + (now - rep_started) / 2 > seconds:
                break
        while not failed and len(setups) < SETUP_SAMPLES:
            setups.append(harness.spawn("setup")["setup_s"])
        traced = None
        if trace and not failed:
            attempted += 1
            traced = harness.spawn("run", trace=True)
            if not check(traced, "traced repetition"):
                failed += 1
            else:
                kept = STATE_DIR / f"spans-{workload}.jsonl"
                shutil.move(traced["spans"], kept)
                notes.append(f"spans written to {kept.relative_to(ROOT)}")
    finally:
        harness.close()
    if not reps:
        raise ChildFailed("no repetition completed:\n" + "\n".join(notes))

    def median(key: str) -> float:
        return statistics.median(rep[key] for rep in reps)

    def fastest(key: str) -> float:
        return min(rep[key] for rep in reps)

    calibration = statistics.median(calibrations)
    scale = CALIBRATION_REFERENCE_S / calibration
    if trace:
        metrics = _layer_metrics(reps, traced) if traced else {}
        notes.extend(_findings(traced) if traced else [])
    else:
        values = {
            "setup_s": statistics.median(setups) * scale,
            "setup_rss_mb": median("setup_rss_mb"),
            "wall_s": fastest("wall_s") * scale,
            "cpu_s": fastest("cpu_s") * scale,
            "peak_rss_mb": median("peak_rss_mb"),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS}
    notes.append(
        f"{workload}: {len(reps)} repetitions of world {WORLD_SEED} at {n_gpts} GPTs, "
        f"{len(setups)} set-up samples"
    )
    notes.append(
        f"measured: setup_s median {statistics.median(setups):.3f}; wall_s fastest "
        f"{fastest('wall_s'):.3f}, median {median('wall_s'):.3f}; cpu_s fastest "
        f"{fastest('cpu_s'):.3f}, median {median('cpu_s'):.3f}"
    )
    notes.append(
        f"calibration: median {calibration:.3f} s of {len(calibrations)}; "
        f"times scaled by {scale:.4f}"
    )
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, notes


def _layer_metrics(reps: List[dict], traced: dict) -> Dict[str, dict]:
    """Per-layer metrics of the traced repetition, in ``LAYER_METRICS`` order."""
    values = dict(traced["layers"])
    values.update(traced["counters"])
    values["setup.import_s"] = statistics.median(rep["import_s"] for rep in reps)
    values["trace.overhead_s"] = traced["wall_s"] - statistics.median(rep["wall_s"] for rep in reps)
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in LAYER_METRICS}


def _findings(traced: dict) -> List[str]:
    return [
        f"finding: experiment {found['experiment']} materialized the sharded store "
        f"{found['load_corpus_calls']}x and made {found['llm_calls']} LLM calls in the "
        f"coordinator ({found['seconds']:.2f} s of {traced['wall_s']:.2f} s)"
        for found in traced["findings"]
    ]


def _table(metrics: Dict[str, dict], trace: bool) -> List[str]:
    moves = {name: move for name, _, _, move in LAYER_METRICS}
    lines = []
    for name, metric in metrics.items():
        line = f"{name:34} {metric['value']:>14.4f} {metric['unit']}"
        if trace:
            line += f"  (moves {moves[name]})"
        lines.append(line)
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="accepted; selects no input")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        result, notes = measure(args.workload, args.seconds, bool(args.trace))
    except ChildFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    for line in notes + _table(result["metrics"], bool(args.trace)):
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
