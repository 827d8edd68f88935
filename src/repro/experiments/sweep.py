"""Parallel multi-seed / multi-scenario experiment sweeps.

The paper's headline numbers are point estimates from one crawl of one
ecosystem.  A production-scale reproduction runs the *whole* measurement
pipeline across many seeds and scenario configurations and reports variance.
This module provides that layer:

* :class:`Scenario` — a named variation of the paper-calibrated ecosystem
  and suite configuration (:data:`BUILTIN_SCENARIOS` ships ``baseline``,
  ``flaky-hosts``, ``large-store``, ``dense-duplicates``,
  ``sparse-policies``, the evolved-world ``churned-store``, and the
  adversarial-web pair ``hostile-hosts`` / ``hostile-ratelimit``);
* :func:`expand_grid` — expands scenario names × seed count into
  :class:`SweepCell` work units;
* :class:`SweepRunner` — runs one full :class:`MeasurementSuite` pipeline
  per cell, scheduled concurrently on a :class:`~repro.exec.WorkerPool`
  (the same executor the crawl stages use, not a second ad-hoc pool), with
  every intermediate product (crawled corpus, classification, per-experiment
  results) persisted in a content-addressed
  :class:`~repro.io.artifacts.ArtifactStore` keyed by configuration
  fingerprints.  Re-running a sweep recomputes only the cells whose
  configuration changed, and a killed sweep resumes from the cells already
  cached;
* :func:`aggregate_cells` — per-metric mean/stdev/min/max across seeds and
  per-scenario deltas against the baseline scenario
  (:class:`SweepReport`), rendered by :mod:`repro.reporting.sweep` and the
  registry's sweep-aggregated experiment variants.

Cell execution is deterministic per (scenario, seed) and outcomes are merged
in submission order, so aggregated results are byte-identical at any worker
count, with or without the cache.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.analysis.suite import MeasurementSuite, SuiteConfig
from repro.ecosystem.config import EcosystemConfig
from repro.exec import ExecTask, WorkerPool, make_pool, shared_state
from repro.experiments.registry import EXPERIMENTS
from repro.io import (
    ArtifactStore,
    ArtifactStoreStatistics,
    canonical_json,
    classification_from_payload,
    classification_to_payload,
    config_fingerprint,
    corpus_from_payload,
    corpus_to_payload,
    policies_to_payload,
)

#: Bump when the cached artifact layout changes; stale caches become misses.
SWEEP_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Scenarios and grid expansion
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One named variation of the measurement configuration.

    ``ecosystem_overrides`` are keyword overrides applied on top of
    :meth:`EcosystemConfig.paper_calibrated`; ``suite_overrides`` override
    :class:`SuiteConfig` fields.  Both must stay JSON-serializable — they
    are part of every artifact fingerprint.  ``gpt_multiplier`` scales the
    corpus relative to the sweep's base ``n_gpts``.
    """

    name: str
    description: str = ""
    ecosystem_overrides: Mapping[str, object] = field(default_factory=dict)
    suite_overrides: Mapping[str, object] = field(default_factory=dict)
    gpt_multiplier: float = 1.0

    def effective_gpts(self, n_gpts: int) -> int:
        """Corpus size for this scenario at a base scale of ``n_gpts``."""
        return max(1, round(n_gpts * self.gpt_multiplier))

    def ecosystem_config(self, n_gpts: int, seed: int) -> EcosystemConfig:
        """The scenario's ecosystem configuration at one (scale, seed)."""
        return EcosystemConfig.paper_calibrated(
            n_gpts=self.effective_gpts(n_gpts), seed=seed, **dict(self.ecosystem_overrides)
        )

    def suite_config(self, n_gpts: int, seed: int) -> SuiteConfig:
        """The scenario's suite configuration at one (scale, seed)."""
        return SuiteConfig(
            n_gpts=self.effective_gpts(n_gpts), seed=seed, **dict(self.suite_overrides)
        )

    def payload(self) -> Dict[str, object]:
        """The scenario's contribution to artifact fingerprints."""
        return {
            "name": self.name,
            "ecosystem_overrides": dict(self.ecosystem_overrides),
            "suite_overrides": dict(self.suite_overrides),
            "gpt_multiplier": self.gpt_multiplier,
        }


#: Named built-in scenarios.  ``baseline`` is the paper-calibrated default;
#: the others stress one axis of the measurement each.
BUILTIN_SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario("baseline", "paper-calibrated defaults"),
        Scenario(
            "flaky-hosts",
            "unreliable hosting: more dead store links, more policy hosts erroring out",
            ecosystem_overrides={"dead_link_rate": 0.08, "policy_availability": 0.82},
        ),
        Scenario(
            "large-store",
            "1.5x corpus with heavier cross-store overlap",
            ecosystem_overrides={"cross_store_overlap": 0.5},
            gpt_multiplier=1.5,
        ),
        Scenario(
            "dense-duplicates",
            "privacy-policy corpus dominated by exact and near duplicates",
            ecosystem_overrides={
                "policy_exact_duplicate_share": 0.60,
                "policy_near_duplicate_share": 0.12,
            },
        ),
        Scenario(
            "sparse-policies",
            "poor policy coverage: many missing and very short policies",
            ecosystem_overrides={"policy_availability": 0.62, "policy_short_share": 0.10},
        ),
        # The adversarial-web pair (ROADMAP item 5a).  Circuit breaking
        # stays off: circuit state depends on request interleaving, and
        # sweep scenarios must stay byte-identical at any worker count.
        Scenario(
            "hostile-hosts",
            "adversarial web: redirect chains and loops, 429 storms, "
            "tarpit latency, content-flapping hosts, deadline-enforced transport",
            suite_overrides={
                # Default battery, with tarpit tails big enough that a tail
                # draw deterministically exceeds the request deadline — so
                # the deadline taxonomy is exercised, visibly.
                "crawl_hostile": {"tarpit_tail_s": 0.3, "tarpit_tail_p": 0.35},
                "crawl_transport": {"deadline_s": 0.2},
            },
        ),
        Scenario(
            "churned-store",
            "the world one evolution epoch after the baseline snapshot: "
            "seeded churn of GPTs, Actions, and policy revisions "
            "(repro.ecosystem.evolution)",
            suite_overrides={"epoch": 1},
        ),
        Scenario(
            "hostile-ratelimit",
            "429 rate-limit storms only: every record survives via "
            "Retry-After-aware retries (zero lost records)",
            suite_overrides={
                "crawl_hostile": {
                    "redirect_chain_hosts": 0,
                    "redirect_loop_hosts": 0,
                    "tarpit_hosts": 0,
                    "flapping_hosts": 0,
                    "ratelimit_hosts": 4,
                    "ratelimit_burst": 3,
                    "retry_after_s": 0.002,
                },
            },
        ),
    )
}


@dataclass(frozen=True)
class SweepCell:
    """One (scenario, seed) unit of sweep work."""

    scenario: Scenario
    seed: int
    n_gpts: int

    @property
    def cell_id(self) -> str:
        """Unique, human-readable cell name (``<scenario>/seed<seed>``)."""
        return f"{self.scenario.name}/seed{self.seed}"

    def fingerprint_payload(self) -> Dict[str, object]:
        """Everything the cell's cached artifacts depend on."""
        return {
            "schema": SWEEP_SCHEMA_VERSION,
            "scenario": self.scenario.payload(),
            "seed": self.seed,
            "n_gpts": self.n_gpts,
        }

    def stage_fingerprint(self, stage: str, extra: Optional[Mapping[str, object]] = None) -> str:
        """Content address of one pipeline stage's artifact for this cell."""
        payload = dict(self.fingerprint_payload())
        payload["stage"] = stage
        if extra:
            payload.update(extra)
        return config_fingerprint(payload)


def expand_grid(
    scenario_names: Sequence[str],
    n_seeds: int,
    base_seed: int = 0,
    n_gpts: int = 2000,
    scenarios: Optional[Mapping[str, Scenario]] = None,
) -> List[SweepCell]:
    """Expand scenario names × seeds into an ordered list of sweep cells.

    Seeds run from ``base_seed`` to ``base_seed + n_seeds - 1`` for every
    scenario; cells are ordered scenario-major so aggregation and reporting
    follow the caller's scenario order.
    """
    registry = dict(scenarios if scenarios is not None else BUILTIN_SCENARIOS)
    if n_seeds < 1:
        raise ValueError("n_seeds must be at least 1")
    if not scenario_names:
        raise ValueError("at least one scenario is required")
    unknown = [name for name in scenario_names if name not in registry]
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(registry))}"
        )
    return [
        SweepCell(scenario=registry[name], seed=base_seed + offset, n_gpts=n_gpts)
        for name in scenario_names
        for offset in range(n_seeds)
    ]


# ---------------------------------------------------------------------------
# Cell results and aggregation
# ---------------------------------------------------------------------------
@dataclass
class CellResult:
    """The measured experiment values of one sweep cell."""

    cell_id: str
    scenario: str
    seed: int
    #: experiment id → metric name → JSON-clean measured value.
    experiments: Dict[str, Dict[str, object]]
    #: Whether the whole cell was served from the results cache.
    from_cache: bool = False
    #: Stages individually loaded from the cache (partial resume).
    stage_hits: List[str] = field(default_factory=list)
    wall_time_s: float = 0.0


@dataclass(frozen=True)
class MetricSummary:
    """Across-seed statistics of one numeric metric."""

    metric: str
    n: int
    mean: float
    stdev: float
    min: float
    max: float

    @classmethod
    def from_values(cls, metric: str, values: Sequence[float]) -> "MetricSummary":
        """Summarize one metric's per-seed values (population stdev)."""
        return cls(
            metric=metric,
            n=len(values),
            mean=statistics.fmean(values),
            stdev=statistics.pstdev(values),
            min=min(values),
            max=max(values),
        )


@dataclass(frozen=True)
class MetricDelta:
    """One scenario's mean shift of a metric against the baseline scenario."""

    scenario: str
    experiment_id: str
    metric: str
    baseline_mean: float
    scenario_mean: float

    @property
    def delta(self) -> float:
        """Absolute mean shift versus the baseline scenario."""
        return self.scenario_mean - self.baseline_mean

    @property
    def relative(self) -> Optional[float]:
        """Relative mean shift, or ``None`` when the baseline mean is zero."""
        if self.baseline_mean == 0:
            return None
        return self.delta / self.baseline_mean


@dataclass
class ScenarioAggregate:
    """Per-metric summaries for one scenario, across its seeds."""

    scenario: str
    seeds: List[int]
    #: experiment id → metric name → across-seed summary.
    experiments: Dict[str, Dict[str, MetricSummary]]

    @property
    def n_cells(self) -> int:
        """How many (scenario, seed) cells fed this aggregate."""
        return len(self.seeds)


@dataclass
class SweepReport:
    """Aggregated sweep results, in the grid's scenario order."""

    scenarios: List[ScenarioAggregate]

    def scenario_names(self) -> List[str]:
        """Scenario names in aggregation order."""
        return [aggregate.scenario for aggregate in self.scenarios]

    def scenario(self, name: str) -> ScenarioAggregate:
        """Look up one scenario's aggregate (raises ``KeyError``)."""
        for aggregate in self.scenarios:
            if aggregate.scenario == name:
                return aggregate
        raise KeyError(name)

    def metric_summaries(self, scenario: str, experiment_id: str) -> Dict[str, MetricSummary]:
        """Metric → summary for one (scenario, experiment) pair."""
        return dict(self.scenario(scenario).experiments.get(experiment_id, {}))

    def deltas_vs(self, baseline: str = "baseline") -> List[MetricDelta]:
        """Mean shifts of every non-baseline scenario against ``baseline``.

        Only metrics present in both the baseline and the compared scenario
        contribute; returns an empty list when the baseline scenario is not
        part of the report.
        """
        try:
            reference = self.scenario(baseline)
        except KeyError:
            return []
        deltas: List[MetricDelta] = []
        for aggregate in self.scenarios:
            if aggregate.scenario == baseline:
                continue
            for experiment_id, summaries in aggregate.experiments.items():
                base_summaries = reference.experiments.get(experiment_id, {})
                for metric, summary in summaries.items():
                    base = base_summaries.get(metric)
                    if base is None:
                        continue
                    deltas.append(
                        MetricDelta(
                            scenario=aggregate.scenario,
                            experiment_id=experiment_id,
                            metric=metric,
                            baseline_mean=base.mean,
                            scenario_mean=summary.mean,
                        )
                    )
        return deltas


def _is_numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def aggregate_cells(cells: Iterable[CellResult]) -> SweepReport:
    """Aggregate per-cell results into across-seed metric summaries.

    Scenarios keep their first-appearance order; within a scenario, a
    metric is summarized over every seed where it is numeric (booleans and
    strings are reported per-cell but not aggregated).
    """
    by_scenario: Dict[str, List[CellResult]] = {}
    order: List[str] = []
    for cell in cells:
        if cell.scenario not in by_scenario:
            order.append(cell.scenario)
        by_scenario.setdefault(cell.scenario, []).append(cell)

    aggregates: List[ScenarioAggregate] = []
    for scenario in order:
        scenario_cells = sorted(by_scenario[scenario], key=lambda cell: cell.seed)
        experiments: Dict[str, Dict[str, MetricSummary]] = {}
        experiment_ids: List[str] = []
        for cell in scenario_cells:
            for experiment_id in cell.experiments:
                if experiment_id not in experiment_ids:
                    experiment_ids.append(experiment_id)
        for experiment_id in experiment_ids:
            metrics: Dict[str, List[float]] = {}
            metric_order: List[str] = []
            for cell in scenario_cells:
                for metric, value in cell.experiments.get(experiment_id, {}).items():
                    if not _is_numeric(value):
                        continue
                    if metric not in metrics:
                        metric_order.append(metric)
                    metrics.setdefault(metric, []).append(float(value))
            experiments[experiment_id] = {
                metric: MetricSummary.from_values(metric, metrics[metric])
                for metric in metric_order
            }
        aggregates.append(
            ScenarioAggregate(
                scenario=scenario,
                seeds=[cell.seed for cell in scenario_cells],
                experiments=experiments,
            )
        )
    return SweepReport(scenarios=aggregates)


# ---------------------------------------------------------------------------
# The sweep runner
# ---------------------------------------------------------------------------
@dataclass
class SweepResult:
    """Everything one sweep run produced."""

    cells: List[CellResult]
    wall_time_s: float = 0.0
    store_statistics: Optional[ArtifactStoreStatistics] = None

    @property
    def n_cells(self) -> int:
        """Total number of cells in the sweep."""
        return len(self.cells)

    @property
    def n_from_cache(self) -> int:
        """Cells whose results were served entirely from the cache."""
        return sum(1 for cell in self.cells if cell.from_cache)

    def report(self) -> SweepReport:
        """Aggregate the cells into a :class:`SweepReport`."""
        return aggregate_cells(self.cells)


def _jsonable(value: object) -> object:
    """Coerce a measured value into plain JSON types (numpy included)."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalars
        return _jsonable(item())
    return str(value)


def _execute_cell(
    cell: SweepCell,
    experiment_ids: Sequence[str],
    store: Optional[ArtifactStore],
    shards: int,
    shard_workers: int,
) -> CellResult:
    """Run one sweep cell (cache lookup → suite → experiments → persist).

    Module-level with picklable inputs so the process backend can fan whole
    cells out across cores; the thread/serial schedulers call it with the
    coordinator's shared :class:`ArtifactStore`.
    """
    start = time.monotonic()
    results_fp = cell.stage_fingerprint(
        "results", {"experiments": sorted(experiment_ids)}
    )
    if store is not None:
        cached = store.get("results", results_fp)
        if cached is not None:
            return CellResult(
                cell_id=cell.cell_id,
                scenario=cell.scenario.name,
                seed=cell.seed,
                experiments=cached,
                from_cache=True,
                wall_time_s=time.monotonic() - start,
            )

    corpus = None
    classification = None
    stage_hits: List[str] = []
    if store is not None:
        corpus_payload = store.get("corpus", cell.stage_fingerprint("corpus"))
        if corpus_payload is not None:
            corpus = corpus_from_payload(
                corpus_payload["corpus"], corpus_payload["policies"]
            )
            stage_hits.append("corpus")
        labels_payload = store.get(
            "classification", cell.stage_fingerprint("classification")
        )
        if labels_payload is not None:
            classification = classification_from_payload(labels_payload)
            stage_hits.append("classification")

    suite_config = cell.scenario.suite_config(cell.n_gpts, cell.seed)
    # Execution knobs, applied after the fingerprint payloads were built:
    # sharded/parallel/process runs of a cell are byte-identical, so they
    # must (and do) hit the same cache entries.
    # The sweep's ``backend`` knob is deliberately NOT forwarded here: it
    # schedules whole cells, and a cell's own shard fan-out nesting another
    # pool inside a process-pool worker would oversubscribe the machine.
    # Cells wanting a specific inner backend set it via
    # ``Scenario.suite_overrides['backend']`` instead.
    if shards:
        suite_config.shards = shards
        suite_config.shard_workers = shard_workers
    # The suite is closed on the way out: a cell whose scenario overrides
    # pick an inner process backend owns a warm pool for exactly the
    # cell's duration.
    with MeasurementSuite(
        config=suite_config,
        ecosystem_config=cell.scenario.ecosystem_config(cell.n_gpts, cell.seed),
        corpus=corpus,
        classification=classification,
    ) as suite:
        # Round-trip through canonical JSON so fresh and cache-served cells
        # carry bit-identical values (e.g. numpy scalars become plain floats
        # on both paths).
        experiments: Dict[str, Dict[str, object]] = json.loads(
            canonical_json(
                {
                    experiment_id: _jsonable(
                        EXPERIMENTS[experiment_id](suite).measured_values
                    )
                    for experiment_id in experiment_ids
                }
            )
        )

    # Persist exactly the intermediate stages this cell's experiments
    # materialized — never force an expensive stage (classification, a
    # full crawl) that nothing in the selected experiment set needed.
    if store is not None:
        if corpus is None and suite.stage_materialized("corpus"):
            built = suite.corpus
            store.put(
                "corpus",
                cell.stage_fingerprint("corpus"),
                {
                    "corpus": corpus_to_payload(built),
                    "policies": policies_to_payload(built),
                },
            )
        if classification is None and suite.stage_materialized("classification"):
            store.put(
                "classification",
                cell.stage_fingerprint("classification"),
                classification_to_payload(suite.classification),
            )
        # Provenance manifest, not a preloadable stage: records which
        # generated ecosystem produced this cell's artifacts so a cache
        # directory is inspectable (ArtifactStore.iter_records) without
        # regenerating anything.  The ecosystem itself is deterministic
        # from (config, seed) and is rebuilt on demand by the suite.
        ecosystem_fp = cell.stage_fingerprint("ecosystem")
        if suite.stage_materialized("ecosystem") and not store.has(
            "ecosystem", ecosystem_fp
        ):
            ecosystem = suite.ecosystem
            store.put(
                "ecosystem",
                ecosystem_fp,
                {
                    "cell_id": cell.cell_id,
                    "scenario": cell.scenario.name,
                    "seed": cell.seed,
                    "n_gpts": len(ecosystem.gpts),
                    "n_actions": len(ecosystem.actions),
                    "n_policies": len(ecosystem.policies),
                },
            )
        store.put("results", results_fp, experiments)
    return CellResult(
        cell_id=cell.cell_id,
        scenario=cell.scenario.name,
        seed=cell.seed,
        experiments=experiments,
        stage_hits=stage_hits,
        wall_time_s=time.monotonic() - start,
    )


#: Broadcast key for the sweep-invariant cell context (experiment set,
#: store path, shard knobs) on a process pool.
SWEEP_CTX_KEY = "sweep/cell-context"


def _execute_cell_shared(cell: SweepCell) -> CellResult:
    """Process-pool cell entry point: per-task payload is the cell alone.

    The run-invariant context ships once per worker via the pool
    initializer; workers stay warm across cells (and across repeated
    ``run()`` calls, since the runner broadcasts the same context object).
    :class:`ArtifactStore` holds a lock and therefore doesn't pickle, so the
    worker rebuilds it from its path; the store is content-addressed and
    its writes are atomic (temp names carry the pid), so per-process
    instances over the same directory compose — cache hits and resume
    behave identically, only the coordinator's hit/miss counters stay local
    to each process.
    """
    ctx = shared_state(SWEEP_CTX_KEY)
    store = ArtifactStore(ctx["store_root"]) if ctx["store_root"] is not None else None
    return _execute_cell(
        cell, list(ctx["experiment_ids"]), store, ctx["shards"], ctx["shard_workers"]
    )


class SweepRunner:
    """Runs a sweep grid concurrently with content-addressed caching.

    Parameters
    ----------
    cells:
        The grid to run (see :func:`expand_grid`); cell ids must be unique.
    store:
        Optional :class:`~repro.io.artifacts.ArtifactStore`.  When set,
        each cell's corpus, classification, and experiment results are
        cached under fingerprints of the cell's exact configuration, so
        unchanged cells are skipped on re-runs and a killed sweep resumes.
    workers:
        Worker-pool size for the cell scheduler (``<= 1`` runs cells
        sequentially).  Cells are deterministic per (scenario, seed) and
        outcomes merge in submission order, so aggregated results are
        identical at any worker count.
    experiment_ids:
        Registry experiments to run per cell (default: all of them).
    shards / shard_workers:
        Execution knobs forwarded to every cell's
        :class:`~repro.analysis.suite.SuiteConfig` *after* fingerprinting:
        a sharded cell streams its corpus analyses shard-parallel but
        produces byte-identical results, so the artifact cache is shared
        between sharded and unsharded runs of the same grid.
    backend:
        Execution backend for the **cell scheduler** (``"serial"`` /
        ``"thread"`` / ``"process"``, a borrowed
        :class:`~repro.exec.WorkerPool`, or ``None`` for the worker-count
        default).  The process kind sidesteps the GIL for the pure-Python
        cell pipelines; cells rebuild per-process :class:`ArtifactStore`
        views over the same directory, so caching and resume are unchanged
        (coordinator hit/miss counters excepted).  On threads cells run
        in-process against the runner's own store.
        Cells themselves never inherit this knob — their internal shard
        fan-out stays on the worker-count default so pools don't nest; use
        ``Scenario.suite_overrides['backend']`` to pick a cell-internal
        backend.  Another post-fingerprint execution knob: results are
        byte-identical across backends and share cache entries.
        A name builds a pool for the runner's lifetime — with
        ``"process"``, workers stay warm across cells and across repeated
        ``run()`` calls; close the runner (or use it as a context manager)
        to release them, after which it cannot run again.  A
        ``WorkerPool`` is borrowed and never closed here.
    """

    def __init__(
        self,
        cells: Sequence[SweepCell],
        store: Optional[ArtifactStore] = None,
        workers: int = 0,
        experiment_ids: Optional[Sequence[str]] = None,
        shards: int = 0,
        shard_workers: int = 0,
        backend: Union[str, WorkerPool, None] = None,
    ) -> None:
        self.cells = list(cells)
        ids = [cell.cell_id for cell in self.cells]
        if len(set(ids)) != len(ids):
            raise ValueError("sweep cells must have unique (scenario, seed) pairs")
        self.store = store
        self.experiment_ids = list(experiment_ids if experiment_ids is not None else EXPERIMENTS)
        unknown = [name for name in self.experiment_ids if name not in EXPERIMENTS]
        if unknown:
            raise ValueError(f"unknown experiment id(s): {', '.join(sorted(unknown))}")
        self.shards = max(0, shards)
        self.shard_workers = max(0, shard_workers)
        self._owned_pool: Optional[WorkerPool] = None
        if isinstance(backend, WorkerPool):
            self.pool = backend
        else:
            # One pool for the runner's lifetime: process workers stay up
            # across cells and across repeated run() calls (resume).  Only
            # a process pool holds workers to release; a thread pool holds
            # nothing between runs, so close() leaves the runner usable.
            self.pool = make_pool(backend, workers)
            if self.pool.is_process:
                self._owned_pool = self.pool
        #: Run-invariant context broadcast to warm workers — built once so
        #: repeated run() calls re-broadcast the same object (no pool
        #: restart between runs).
        self._cell_context = {
            "experiment_ids": tuple(self.experiment_ids),
            "store_root": str(self.store.root) if self.store is not None else None,
            "shards": self.shards,
            "shard_workers": self.shard_workers,
        }

    def close(self) -> None:
        """Release the owned warm pool (idempotent; borrowed pools stay up)."""
        if self._owned_pool is not None:
            self._owned_pool.close()
            self._owned_pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _results_fingerprint(self, cell: SweepCell) -> str:
        return cell.stage_fingerprint("results", {"experiments": sorted(self.experiment_ids)})

    def _run_cell(self, cell: SweepCell) -> CellResult:
        return _execute_cell(
            cell, self.experiment_ids, self.store, self.shards, self.shard_workers
        )

    # ------------------------------------------------------------------
    def run(self) -> SweepResult:
        """Run every cell; results come back in grid (submission) order."""
        start = time.monotonic()
        if self.pool.is_process:
            # The invariant context ships once per worker via the pool
            # initializer; each task pickles only its cell.
            self.pool.broadcast(SWEEP_CTX_KEY, self._cell_context)
            run_cell = _execute_cell_shared
        else:
            # In-process: cells share this runner's ArtifactStore, so its
            # hit/miss counters count every cell.
            run_cell = self._run_cell
        tasks = [ExecTask(key=cell.cell_id, fn=run_cell, args=(cell,)) for cell in self.cells]
        outcomes = self.pool.run(tasks)
        results: List[CellResult] = []
        for outcome in outcomes:
            if not outcome.ok:
                raise RuntimeError(f"sweep cell {outcome.key!r} failed: {outcome.error}")
            results.append(outcome.result)
        return SweepResult(
            cells=results,
            wall_time_s=time.monotonic() - start,
            store_statistics=self.store.statistics if self.store is not None else None,
        )


def run_sweep(
    scenario_names: Sequence[str],
    n_seeds: int,
    base_seed: int = 0,
    n_gpts: int = 2000,
    workers: int = 0,
    cache_dir: Optional[str] = None,
    experiment_ids: Optional[Sequence[str]] = None,
    shards: int = 0,
    shard_workers: int = 0,
    backend: Union[str, WorkerPool, None] = None,
) -> SweepResult:
    """Convenience wrapper: expand a grid, build the store, run the sweep."""
    cells = expand_grid(scenario_names, n_seeds, base_seed=base_seed, n_gpts=n_gpts)
    store = ArtifactStore(cache_dir) if cache_dir is not None else None
    with SweepRunner(
        cells,
        store=store,
        workers=workers,
        experiment_ids=experiment_ids,
        shards=shards,
        shard_workers=shard_workers,
        backend=backend,
    ) as runner:
        return runner.run()
