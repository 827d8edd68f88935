"""Timed perf benchmarks for the sweep engine's content-addressed cache.

Runs a two-scenario × three-seed sweep of the *full* experiment battery
(every registered table/figure/statistic) and times three things:

* a cold sweep (every cell computed) against an unchanged re-run served
  entirely from the content-addressed artifact cache — the re-run must be
  at least ``MIN_CACHE_SPEEDUP``× faster;
* a sweep killed after half its cells against the resumed run that
  recomputes only the missing cells;
* the sequential cold sweep against the same grid scheduled on a 4-worker
  pool.

Alongside the timings, the aggregated results of every run — cold, cached,
resumed, and at every worker count — are asserted **byte-identical**
(canonical JSON), which is the property that makes the cache and the
concurrency safe to use for paper numbers.

The measured numbers are printed as a compact table and persisted to a
fresh ``BENCH_sweep.json`` under ``.benchmarks/fresh/``, next to the other
perf artifacts.
"""

from __future__ import annotations

import time

import pytest

from perf_report import PerfReport

from repro.experiments.sweep import SweepRunner, expand_grid
from repro.io import ArtifactStore, canonical_json

REPORT = PerfReport("sweep")

#: Shape of the benchmark grid: every registered experiment over
#: 2 scenarios × 3 seeds at a 500-GPT scale.
SCENARIOS = ["baseline", "flaky-hosts"]
N_SEEDS = 3
SWEEP_GPTS = 500
SWEEP_SEED = 17

#: Worker-pool size for the concurrent sweep.
WORKERS = 4

#: Required speedup of an unchanged-grid re-run served from the cache.
MIN_CACHE_SPEEDUP = 5.0


@pytest.fixture(scope="module", autouse=True)
def _emit_report():
    """Print the timing table and write BENCH_sweep.json after the module."""
    yield
    print()
    print(REPORT.format_table())
    print(f"wrote {REPORT.write()}")


def _grid():
    return expand_grid(SCENARIOS, N_SEEDS, base_seed=SWEEP_SEED, n_gpts=SWEEP_GPTS)


def _run(store=None, workers=0, cells=None):
    """Run the benchmark grid; returns (wall seconds, canonical results)."""
    runner = SweepRunner(cells if cells is not None else _grid(), store=store, workers=workers)
    start = time.monotonic()
    result = runner.run()
    elapsed = time.monotonic() - start
    return elapsed, result


def _canonical(result) -> str:
    return canonical_json([(cell.cell_id, cell.experiments) for cell in result.cells])


def test_cached_rerun_speedup(tmp_path_factory):
    """An unchanged grid re-run is served from the cache, >=5x faster."""
    root = tmp_path_factory.mktemp("sweep-cache")
    cold_s, cold = _run(store=ArtifactStore(root))
    warm_s, warm = _run(store=ArtifactStore(root))

    entry = REPORT.record(
        "cached_rerun_6_cells",
        baseline_s=cold_s,
        optimized_s=warm_s,
        items=cold.n_cells,
    )
    assert warm.n_from_cache == warm.n_cells == len(_grid())
    assert _canonical(warm) == _canonical(cold)
    assert entry.speedup >= MIN_CACHE_SPEEDUP, (
        f"cached re-run only {entry.speedup:.1f}x faster "
        f"(needs >= {MIN_CACHE_SPEEDUP}x)"
    )


def test_resume_after_kill(tmp_path_factory):
    """A sweep killed halfway resumes, recomputing only the missing cells."""
    root = tmp_path_factory.mktemp("sweep-resume")
    cells = _grid()
    # The "killed" run completed half the grid before dying.
    _run(store=ArtifactStore(root), cells=cells[: len(cells) // 2])

    fresh_s, fresh = _run()
    resumed_s, resumed = _run(store=ArtifactStore(root), cells=cells)

    REPORT.record(
        "resume_after_kill",
        baseline_s=fresh_s,
        optimized_s=resumed_s,
        items=len(cells),
    )
    assert resumed.n_from_cache == len(cells) // 2
    assert _canonical(resumed) == _canonical(fresh)


def test_worker_scaling_is_deterministic(tmp_path_factory):
    """The 4-worker cold sweep matches the sequential results byte-for-byte."""
    sequential_s, sequential = _run()
    workers_s, workers = _run(workers=WORKERS)

    REPORT.record(
        "cold_4_workers",
        baseline_s=sequential_s,
        optimized_s=workers_s,
        items=sequential.n_cells,
    )
    assert _canonical(workers) == _canonical(sequential)

    cached_root = tmp_path_factory.mktemp("sweep-workers")
    _, cached = _run(store=ArtifactStore(cached_root), workers=WORKERS)
    assert _canonical(cached) == _canonical(sequential)
