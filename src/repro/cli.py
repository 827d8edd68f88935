"""Command-line interface.

``python -m repro`` (or the ``repro-gpt`` console script) exposes the full
measurement pipeline:

* ``repro-gpt generate`` — generate a synthetic ecosystem and print a summary;
* ``repro-gpt crawl`` — generate + crawl, printing crawl statistics (Table 1).
  The crawl runs on the concurrent engine: ``--workers N`` partitions the
  identifier frontier over N workers, one hash partition each (with
  ``--shards`` the partitions are the store's shards, run on N workers),
  ``--checkpoint-dir DIR`` persists stage progress
  incrementally, and ``--resume`` continues an interrupted crawl from that
  checkpoint without refetching.  ``--epoch N`` crawls the world after N
  rounds of seeded churn; adding ``--parent-store DIR`` (with ``--shards``
  and ``--shard-dir``) re-crawls **incrementally** — unchanged records are
  carried forward from the parent epoch's store without HTTP traffic;
* ``repro-gpt evolve`` — evolve the ecosystem through ``--epochs N`` rounds
  of seeded churn and print each epoch's change feed;
* ``repro-gpt analyze`` — run the full pipeline and print the headline
  measurements;
* ``repro-gpt experiment <id>`` — run one experiment (``table4``,
  ``figure9``, …) and print the paper-vs-measured comparison;
* ``repro-gpt report`` — run every experiment and print the EXPERIMENTS-style
  markdown report (:func:`repro.reporting.render_experiment_report`, the
  renderer the golden tests pin);
* ``repro-gpt export <directory>`` — crawl and write the corpus (and, with
  ``--with-classification``, the per-parameter labels) to a dataset
  directory that :mod:`repro.io` can load back;
* ``repro-gpt sweep`` — run the whole experiment battery across a scenario
  grid (``--scenarios baseline,flaky-hosts --seeds 3``) on the concurrent
  sweep engine (``--workers N``) and print across-seed mean/stdev tables and
  per-scenario deltas (``--report`` for the full markdown report).  With
  ``--cache-dir DIR`` every intermediate artifact is persisted in a
  content-addressed store, so an unchanged cell is never recomputed and a
  killed sweep continues with ``--resume`` (which insists the cache exists).

Global ``--shards N`` / ``--shard-workers M`` / ``--shard-dir DIR`` choose
where the crawled corpus lives: without ``--shards`` it stays in memory as
one shard; with it, it is hash-partitioned into N JSONL shards on disk
(:mod:`repro.io.shards`).  Every command analyzes either layout the same
way, through the shard-parallel runner of :mod:`repro.analysis.streaming`,
which reads the per-shard GPT and policy records and the store counts of
either source, with byte-identical results at any shard or worker count.
``crawl --shards N`` runs the **shard-partitioned crawl**
(:meth:`repro.crawler.pipeline.CrawlPipeline.run_sharded`): the listing
frontier is hash-partitioned, per-shard sub-pipelines stream resolved GPTs
and policies straight into the shard store, and no whole-run corpus is ever
materialized — so crawl memory is bounded by the largest shard.  Commands
that also classify (e.g. ``analyze``) stay on that path: the description
extraction and the classification pass stream shard-by-shard from the same
store, so a sharded run performs exactly one crawl and never rebuilds the
whole corpus in memory.

Global ``--backend {serial,thread,process}`` selects the execution backend
(:mod:`repro.exec`) for all sharded work — the partitioned crawl's
sub-pipelines and the shard-parallel analyses — and, for ``sweep``, the
cell scheduler.  Threads suit I/O-bound and GIL-releasing work; the process
backend unlocks real CPU scaling for pure-Python shard maps.  Like
``--shards``, it is an execution knob: results are byte-identical on every
backend.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.suite import MeasurementSuite, SuiteConfig
from repro.ecosystem.config import EcosystemConfig
from repro.ecosystem.generator import EcosystemGenerator
from repro.exec import BACKEND_NAMES
from repro.experiments.registry import EXPERIMENTS, run_all_experiments, run_experiment
from repro.reporting.markdown import format_table
from repro.reporting.report import render_experiment_report


class _InvalidArguments(Exception):
    """Command-line values a config validator refused; :func:`main` exits 2."""


def _build_suite(args: argparse.Namespace) -> MeasurementSuite:
    crawl_transport = None
    if getattr(args, "deadline", 0.0):
        crawl_transport = {"deadline_s": args.deadline}
    try:
        config = SuiteConfig(
            n_gpts=args.gpts,
            seed=args.seed,
            epoch=getattr(args, "epoch", 0),
            crawl_workers=getattr(args, "workers", 0),
            crawl_checkpoint_dir=getattr(args, "checkpoint_dir", None),
            crawl_resume=getattr(args, "resume", False),
            crawl_hostile={} if getattr(args, "hostile", False) else None,
            crawl_transport=crawl_transport,
            shards=args.shards,
            shard_workers=args.shard_workers,
            shard_dir=args.shard_dir,
            backend=args.backend,
        ).validate()
    except ValueError as error:
        raise _InvalidArguments(str(error)) from None
    return MeasurementSuite(config=config)


def _ecosystem_config(args: argparse.Namespace) -> EcosystemConfig:
    try:
        return EcosystemConfig.paper_calibrated(n_gpts=args.gpts, seed=args.seed)
    except ValueError as error:
        raise _InvalidArguments(str(error)) from None


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _cmd_generate(args: argparse.Namespace) -> int:
    config = _ecosystem_config(args)
    ecosystem = EcosystemGenerator(config).generate()
    print(ecosystem.summary())
    print(f"Action-embedding GPTs: {len(ecosystem.action_gpts())}")
    return 0


def _cmd_crawl(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.parent_store:
        if args.shards < 1 or not args.shard_dir:
            print(
                "--parent-store needs --shards N (N >= 1) and --shard-dir "
                "(the incremental crawl publishes a sharded store)",
                file=sys.stderr,
            )
            return 2
        if args.epoch < 1:
            print(
                "--parent-store needs --epoch N (N >= 1): the incremental "
                "crawl captures the world one epoch after the parent store",
                file=sys.stderr,
            )
            return 2
    # Context-manage the suite so a warm process pool (--backend process)
    # is shut down before interpreter exit; same in the handlers below.
    with _build_suite(args) as suite:
        if args.parent_store:
            try:
                suite.incremental_crawl(args.parent_store, args.shard_dir)
            except ValueError as error:
                print(str(error), file=sys.stderr)
                return 2
            crawl = suite.crawl_statistics
            print(
                f"Incremental epoch {args.epoch}: "
                f"{crawl.n_records_carried} GPT records and "
                f"{crawl.n_policies_carried} policies carried forward "
                f"without HTTP; {crawl.n_http_requests} requests for the delta"
            )
        stats = suite.crawl_stats
        rows = [(store, count) for store, count in stats.sorted_store_counts()]
        print(format_table(["Store", "GPTs crawled"], rows))
        print(f"Total unique GPTs: {stats.total_unique_gpts}")
        print(f"Unique Actions: {stats.n_unique_actions}")
        print(f"Policy availability: {stats.policy_availability:.2%}")
        crawl_statistics = suite.crawl_statistics
        if crawl_statistics is not None and crawl_statistics.host_failure_taxonomy:
            print("Quarantined hosts (failure taxonomy):")
            for host in crawl_statistics.quarantined_hosts:
                kinds = crawl_statistics.host_failure_taxonomy[host]
                summary = ", ".join(
                    f"{kind}={kinds[kind]}" for kind in sorted(kinds)
                )
                print(f"  {host}: {summary}")
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    from repro.ecosystem.evolution import evolve_epochs

    if args.epochs < 1:
        print("--epochs must be >= 1", file=sys.stderr)
        return 2
    config = _ecosystem_config(args)
    ecosystem = EcosystemGenerator(config).generate()
    print(ecosystem.summary())
    evolved, deltas = evolve_epochs(ecosystem, config, args.epochs)
    for delta in deltas:
        print(delta.summary())
    print(evolved.summary())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    with _build_suite(args) as suite:
        collection = suite.collection
        prohibited = suite.prohibited
        disclosure = suite.disclosure
        print(suite.corpus_source.summary())
        print(f"Data categories observed: {collection.n_categories_observed()}")
        print(f"Data types observed: {collection.n_types_observed()}")
        print(f"Actions collecting 5+ items: {collection.share_with_at_least(5):.1%}")
        print(f"Actions collecting 10+ items: {collection.share_with_at_least(10):.1%}")
        print(f"Third-party excess collection: {collection.third_party_excess():.2%}")
        print(f"GPTs with prohibited-data Actions: {prohibited.offending_gpt_share:.1%}")
        print(f"Fully consistent Actions: {disclosure.fully_consistent_share:.1%}")
        print(f"Classifier: {suite.evaluate_classifier().summary()}")
        print(f"Policy framework: {suite.evaluate_policy_framework().summary()}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.experiment_id not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment_id!r}; known ids:", file=sys.stderr)
        print(", ".join(sorted(EXPERIMENTS)), file=sys.stderr)
        return 2
    with _build_suite(args) as suite:
        result = run_experiment(args.experiment_id, suite)
    print(f"# {result.title}")
    rows = [
        (metric, _format_value(paper), _format_value(measured))
        for metric, paper, measured in result.comparison_rows()
    ]
    if rows:
        print(format_table(["Metric", "Paper", "Measured"], rows))
    if result.artifact:
        print()
        print(result.artifact)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.io import save_corpus

    with _build_suite(args) as suite:
        classification = suite.classification if args.with_classification else None
        target = save_corpus(suite.corpus, args.directory, classification=classification)
        print(f"Wrote corpus ({len(suite.corpus.gpts)} GPTs, "
              f"{suite.corpus.n_unique_actions()} Actions) to {target}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.registry import run_all_sweep_experiments
    from repro.experiments.sweep import BUILTIN_SCENARIOS, run_sweep
    from repro.io import ArtifactStore
    from repro.reporting.sweep import render_scenario_deltas, render_sweep_overview

    scenario_names = [name.strip() for name in args.scenarios.split(",") if name.strip()]
    experiment_ids: Optional[List[str]] = None
    if args.experiments:
        experiment_ids = [name.strip() for name in args.experiments.split(",") if name.strip()]
    if args.resume and not args.cache_dir:
        print("--resume requires --cache-dir", file=sys.stderr)
        return 2
    # The is_dir() guard keeps the error path side-effect free: building the
    # store would create the (possibly mistyped) cache directory.
    if args.resume and (
        not Path(args.cache_dir).is_dir() or ArtifactStore(args.cache_dir).count() == 0
    ):
        print(f"--resume: no cached artifacts under {args.cache_dir}", file=sys.stderr)
        return 2
    try:
        result = run_sweep(
            scenario_names,
            args.seeds,
            base_seed=args.seed,
            n_gpts=args.gpts,
            workers=args.workers,
            cache_dir=args.cache_dir,
            experiment_ids=experiment_ids,
            shards=args.shards,
            shard_workers=args.shard_workers,
            backend=args.backend,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        if "scenario" in str(error):
            print(f"known scenarios: {', '.join(sorted(BUILTIN_SCENARIOS))}", file=sys.stderr)
        return 2
    report = result.report()

    print(
        f"Sweep: {len(scenario_names)} scenario(s) x {args.seeds} seed(s) = "
        f"{result.n_cells} cells in {result.wall_time_s:.2f}s "
        f"({args.workers or 1} worker(s))"
    )
    if args.cache_dir:
        statistics = result.store_statistics
        print(
            f"Cache: {result.n_from_cache}/{result.n_cells} cells served from "
            f"{args.cache_dir} (hit rate {statistics.hit_rate:.0%}, "
            f"{statistics.n_writes} artifacts written)"
        )
    for cell in result.cells:
        origin = "cache" if cell.from_cache else "computed"
        hits = f" (+{','.join(cell.stage_hits)} from cache)" if cell.stage_hits else ""
        print(f"  {cell.cell_id}: {origin} in {cell.wall_time_s:.2f}s{hits}")
    print()
    if args.report:
        print("## Across-seed aggregates")
        print(render_sweep_overview(report, experiment_ids))
        print()
        # Use the same reference scenario as the sweep-experiment variants:
        # "baseline" when it ran, otherwise the first listed scenario.
        reference = "baseline" if "baseline" in scenario_names else scenario_names[0]
        print(f"## Scenario deltas vs {reference}")
        print(render_scenario_deltas(report, baseline=reference))
        print()
        print("## Paper comparison (baseline scenario means)")
        for sweep_result in run_all_sweep_experiments(report):
            if experiment_ids and sweep_result.experiment_id.split("@")[0] not in experiment_ids:
                continue
            rows = [
                (metric, _format_value(paper), _format_value(measured))
                for metric, paper, measured in sweep_result.comparison_rows()
            ]
            if rows:
                print(f"### {sweep_result.title}")
                print(format_table(["Metric", "Paper", "Measured (mean)"], rows))
                print()
    else:
        print(render_sweep_overview(report, experiment_ids))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    with _build_suite(args) as suite:
        results = run_all_experiments(suite)
    print(render_experiment_report(results, args.gpts, args.seed))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-gpt",
        description="Reproduction of the IMC 2025 LLM-app data-collection measurement study.",
    )
    parser.add_argument("--gpts", type=int, default=2000, help="number of GPTs to generate")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--shards", type=int, default=0,
        help="shard the corpus on disk and stream analyses (0 = in-memory)",
    )
    parser.add_argument(
        "--shard-workers", type=int, default=0,
        help="worker-pool size for shard-parallel analysis (0 = sequential)",
    )
    parser.add_argument(
        "--shard-dir", default=None,
        help="directory for the sharded corpus store (default: a temp dir)",
    )
    parser.add_argument(
        "--backend", default=None, choices=BACKEND_NAMES,
        help="execution backend for sharded crawls/analyses and the sweep "
             "scheduler (default: serial at <=1 workers, threads above; "
             "process unlocks CPU scaling for pure-Python shard maps)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("generate", help="generate a synthetic ecosystem")
    crawl_parser = subparsers.add_parser(
        "crawl", help="crawl the synthetic stores and print Table 1"
    )
    crawl_parser.add_argument(
        "--workers", type=int, default=0,
        help="crawl-engine worker pool size (0 = sequential)",
    )
    crawl_parser.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for incremental crawl checkpoints",
    )
    crawl_parser.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted crawl from --checkpoint-dir",
    )
    crawl_parser.add_argument(
        "--hostile", action="store_true",
        help="crawl an adversarial web (redirect loops, 429 storms, tarpit "
             "latency, flapping hosts) and report quarantined hosts",
    )
    crawl_parser.add_argument(
        "--deadline", type=float, default=0.0,
        help="per-request accounted-time budget in seconds (0 = unlimited); "
             "pairs with --hostile to quarantine tarpit hosts",
    )
    crawl_parser.add_argument(
        "--epoch", type=int, default=0,
        help="crawl the world after N rounds of seeded churn (0 = base snapshot)",
    )
    crawl_parser.add_argument(
        "--parent-store", default=None,
        help="previous epoch's sharded store: re-crawl incrementally, carrying "
             "unchanged records forward without HTTP (needs --shards, "
             "--shard-dir, and --epoch = parent epoch + 1)",
    )
    evolve_parser = subparsers.add_parser(
        "evolve", help="evolve the ecosystem through seeded churn epochs"
    )
    evolve_parser.add_argument(
        "--epochs", type=int, default=1,
        help="number of churn rounds to apply (each is pure in (seed, epoch))",
    )
    subparsers.add_parser("analyze", help="run the full pipeline and print headline stats")
    experiment_parser = subparsers.add_parser("experiment", help="run one experiment by id")
    experiment_parser.add_argument("experiment_id", help="e.g. table4, figure9")
    subparsers.add_parser("report", help="run every experiment and print comparisons")
    sweep_parser = subparsers.add_parser(
        "sweep", help="run experiments across a multi-seed, multi-scenario grid"
    )
    sweep_parser.add_argument(
        "--scenarios", default="baseline",
        help="comma-separated scenario names (e.g. baseline,flaky-hosts)",
    )
    sweep_parser.add_argument(
        "--seeds", type=int, default=3,
        help="seeds per scenario (numbered from the global --seed upward)",
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=0,
        help="sweep-engine worker pool size (0 = run cells sequentially)",
    )
    sweep_parser.add_argument(
        "--cache-dir", default=None,
        help="content-addressed artifact cache (unchanged cells are reused)",
    )
    sweep_parser.add_argument(
        "--resume", action="store_true",
        help="continue a killed sweep from --cache-dir (must already exist)",
    )
    sweep_parser.add_argument(
        "--report", action="store_true",
        help="print the full markdown report (deltas + paper comparisons)",
    )
    sweep_parser.add_argument(
        "--experiments", default=None,
        help="comma-separated experiment ids to run (default: all)",
    )
    export_parser = subparsers.add_parser("export", help="crawl and write the corpus to disk")
    export_parser.add_argument("directory", help="output directory for the dataset")
    export_parser.add_argument(
        "--with-classification", action="store_true",
        help="also classify data descriptions and store the labels",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "crawl": _cmd_crawl,
        "evolve": _cmd_evolve,
        "analyze": _cmd_analyze,
        "experiment": _cmd_experiment,
        "report": _cmd_report,
        "export": _cmd_export,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except _InvalidArguments as error:
        print(str(error), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
