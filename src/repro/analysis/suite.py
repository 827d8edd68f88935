"""One-stop measurement suite.

:class:`MeasurementSuite` runs the full measurement pipeline the paper
describes — generate (or accept) an ecosystem, crawl it, build the few-shot
seed set, classify every data description, analyze privacy policies — and
exposes every analysis lazily from a single object.  Experiments, benchmarks,
and examples all build on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.analysis.collection import CollectionAnalysis
from repro.analysis.cooccurrence import CooccurrenceAnalysis
from repro.analysis.coverage import CoverageAnalysis
from repro.analysis.crawlstats import CrawlStatsAnalysis
from repro.analysis.disclosure import DisclosureAnalysis
from repro.analysis.multiaction import MultiActionAnalysis
from repro.analysis.party import ActionPartyIndex
from repro.analysis.prevalence import PrevalenceAnalysis
from repro.analysis.prohibited import ProhibitedDataAnalysis
from repro.analysis.streaming import NEEDS_CLASSIFICATION, ShardAnalysisRunner
from repro.analysis.tools import ToolUsageAnalysis
from repro.classification.classifier import ClassifierConfig
from repro.classification.descriptions import (
    DataDescription,
    label_with_ground_truth,
    sample_descriptions,
)
from repro.classification.evaluation import (
    ClassifierEvaluation,
    evaluate_predictions,
    gold_from_ground_truth,
)
from repro.classification.results import ClassificationResult
from repro.crawler.corpus import CrawlCorpus
from repro.crawler.pipeline import CrawlPipeline
from repro.ecosystem.config import EcosystemConfig
from repro.ecosystem.generator import EcosystemGenerator
from repro.ecosystem.models import SyntheticEcosystem
from repro.exec import BACKEND_NAMES, WorkerPool
from repro.io import CorpusSource
from repro.llm.fewshot import FewShotStore
from repro.llm.simulated import SimulatedLLM
from repro.policy.duplicates import DuplicatePolicyReport
from repro.policy.evaluation import PolicyFrameworkEvaluation, evaluate_policy_framework
from repro.policy.framework import PolicyConsistencyReport
from repro.taxonomy.builtin import load_builtin_taxonomy
from repro.taxonomy.schema import DataTaxonomy


@dataclass
class SuiteConfig:
    """Configuration of a full measurement run.

    **Knob naming.**  Knobs are grouped by the stage they configure:
    measurement knobs are bare (``n_gpts``, ``seed``, ``fewshot_k``, …),
    crawl-stage execution knobs are ``crawl_*``, sharded-store knobs are
    ``shard*``, and ``backend`` picks the :mod:`repro.exec` backend for all
    sharded work.  Execution knobs never change measured values — only how
    (and how fast) they are produced.

    **Sharding semantics — the one place they are documented.**
    ``shards`` only chooses where the corpus lives.  ``shards=0`` (the
    default) keeps it in memory: the crawl builds a
    :class:`~repro.crawler.corpus.CrawlCorpus`, which is one shard, and
    ``shard_workers``, ``shard_dir``, and ``backend`` have nothing to act
    on, so :meth:`validate` rejects them.  ``shards=N`` (N >= 1) puts it in
    an N-shard on-disk store that the shard-partitioned crawl streams
    records into.  Either way every stage — corpus analyses, description
    extraction, classification, and the policy analyses — streams the same
    way, through :class:`~repro.analysis.streaming.ShardAnalysisRunner` on
    ``suite.corpus_source``, so the results are byte-identical.
    ``suite.corpus`` stays available as a thin compatibility property (on
    a sharded suite it materializes the store in discovery order; no
    second crawl).
    """

    n_gpts: int = 2000
    seed: int = 0
    seed_example_count: int = 300
    fewshot_k: int = 5
    two_phase: bool = True
    use_fewshot: bool = True
    single_pass_policy: bool = False
    #: Candidate generation for near-duplicate policy detection ("auto" picks
    #: MinHash–LSH at corpus scale; see repro.nlp.similarity.near_duplicates).
    near_duplicate_method: str = "auto"
    #: Worker-pool size for the crawl engine (0/1 crawls sequentially).  An
    #: in-memory crawl splits its frontier into one hash partition per
    #: worker; a sharded crawl partitions by ``shards`` and runs the shards
    #: on this many workers.  Either way the corpus is byte-identical.
    crawl_workers: int = 0
    #: Directory for incremental crawl checkpoints (None disables).
    crawl_checkpoint_dir: Optional[str] = None
    #: Resume a checkpointed crawl instead of starting from scratch.
    crawl_resume: bool = False
    #: Retry/backoff/latency knobs for the crawl transport: a
    #: :class:`~repro.crawler.transport.TransportConfig` or an equivalent
    #: plain mapping (sweep scenarios store JSON; None = defaults).
    crawl_transport: Optional[Union["TransportConfig", Dict[str, object]]] = None
    #: Hostile-host battery for the crawl (None = a well-behaved web).  A
    #: dict of :data:`repro.crawler.hostile.DEFAULT_HOSTILE_SPEC` overrides
    #: ({} = the default battery): seeded adversarial behaviors — redirect
    #: chains/loops, 429 storms, tarpit latency, content flapping — are
    #: installed on a deterministic subset of policy hosts.
    crawl_hostile: Optional[Dict[str, object]] = None
    #: Per-host politeness limits (host → requests/second) for the crawl.
    crawl_rate_limits: Optional[Dict[str, float]] = None
    #: Crawl epoch of the measured world (0 = the base snapshot).  N > 0
    #: evolves the generated ecosystem through N rounds of seeded churn
    #: (:func:`repro.ecosystem.evolution.evolve_epochs`) before crawling —
    #: deterministic in ``(seed, epoch)``, so two suites at the same epoch
    #: measure the same world.  The per-epoch change feeds land in
    #: ``suite.epoch_deltas``; pair with :meth:`MeasurementSuite.incremental_crawl`
    #: to crawl the evolved world as a delta over the previous epoch's store.
    epoch: int = 0
    #: Shard count for the on-disk corpus store (0 = the corpus stays in
    #: memory, as one shard).  When set, crawl checkpoints are
    #: shard-partitioned too.  Every stage streams the same way at any
    #: value (an execution knob: it never changes measured values).
    shards: int = 0
    #: Worker-pool size for shard-parallel analysis (0/1 = sequential).
    shard_workers: int = 0
    #: Directory for the sharded corpus store (None = a private temp dir).
    shard_dir: Optional[str] = None
    #: Execution backend for sharded work ("serial" / "thread" / "process",
    #: None = serial at <=1 workers, threads above).  Applies to the
    #: shard-partitioned crawl and the shard-parallel analyses; like
    #: ``shards``, it is an execution knob that never changes measured
    #: values.  "process" spawns one warm worker pool for the suite's
    #: whole lifetime (crawl through analyses); call ``suite.close()`` —
    #: or use the suite as a context manager — to release it.
    backend: Optional[str] = None

    def validate(self) -> "SuiteConfig":
        """Reject contradictory knob combinations with actionable messages.

        Called by :class:`MeasurementSuite` on construction, so a
        misconfigured run fails at build time instead of deep inside a
        crawl or analysis pass.  Returns ``self`` for chaining.
        """
        problems = []
        if self.n_gpts <= 0:
            problems.append("n_gpts must be positive")
        if self.shards < 0:
            problems.append(
                "shards must be >= 0 (0 = unsharded in-memory corpus, "
                "N >= 1 = N-shard on-disk store)"
            )
        if self.shard_workers < 0 or self.crawl_workers < 0:
            problems.append("worker counts must be >= 0 (0/1 = sequential)")
        if self.epoch < 0:
            problems.append(
                "epoch must be >= 0 (0 = base snapshot, N = the world after "
                "N rounds of seeded churn)"
            )
        if self.shards == 0 and self.shard_workers > 0:
            problems.append(
                "shard_workers has no effect without sharding — "
                "set shards=N (N >= 1) to shard the corpus, or drop shard_workers"
            )
        if self.shards == 0 and self.shard_dir is not None:
            problems.append(
                "shard_dir has no effect without sharding — "
                "set shards=N (N >= 1) to write a sharded store there, or drop shard_dir"
            )
        if self.shards == 0 and self.backend is not None:
            problems.append(
                "backend has no effect without sharding (it only drives the "
                "shard-partitioned crawl and shard-parallel analyses) — "
                "set shards=N (N >= 1), or drop backend"
            )
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            problems.append(
                f"unknown backend {self.backend!r} — pick one of "
                f"{', '.join(map(repr, BACKEND_NAMES))} (or None for the default)"
            )
        if self.backend == "process" and self.crawl_rate_limits:
            problems.append(
                "crawl_rate_limits cannot be combined with backend='process': "
                "per-host token buckets do not span processes — use the "
                "thread backend for rate-limited crawls"
            )
        if self.crawl_hostile is not None and not isinstance(self.crawl_hostile, dict):
            problems.append(
                "crawl_hostile must be a dict of DEFAULT_HOSTILE_SPEC "
                "overrides ({} = the default hostile battery) or None"
            )
        if self.crawl_resume and self.crawl_checkpoint_dir is None:
            problems.append(
                "crawl_resume=True needs crawl_checkpoint_dir — "
                "point it at the directory the interrupted crawl checkpointed into"
            )
        if problems:
            raise ValueError("invalid SuiteConfig: " + "; ".join(problems))
        return self


class MeasurementSuite:
    """Runs and caches the full measurement pipeline."""

    def __init__(
        self,
        config: Optional[SuiteConfig] = None,
        ecosystem_config: Optional[EcosystemConfig] = None,
        ecosystem: Optional[SyntheticEcosystem] = None,
        taxonomy: Optional[DataTaxonomy] = None,
        llm: Optional[SimulatedLLM] = None,
        corpus: Optional[CrawlCorpus] = None,
        classification: Optional[ClassificationResult] = None,
    ) -> None:
        self.config = (config or SuiteConfig()).validate()
        self.taxonomy = taxonomy or load_builtin_taxonomy()
        self.ecosystem_config = ecosystem_config or EcosystemConfig.paper_calibrated(
            n_gpts=self.config.n_gpts, seed=self.config.seed
        )
        self.llm = llm or SimulatedLLM(knowledge_taxonomy=self.taxonomy, seed=self.config.seed)
        self._ecosystem = ecosystem
        # ``corpus`` / ``classification`` preload pipeline stages from a
        # cache (e.g. the sweep engine's artifact store) so only the stages
        # downstream of what changed are recomputed.
        self._corpus: Optional[CrawlCorpus] = corpus
        self._descriptions: Optional[List[DataDescription]] = None
        self._fewshot_store: Optional[FewShotStore] = None
        self._classification: Optional[ClassificationResult] = classification
        #: Analyses by name, plus the ``"party"`` index and the
        #: ``"policy_report"`` that runner results carry beside them.
        self._cache: Dict[str, object] = {}
        self._shard_store = None
        self._shard_tempdir = None
        #: CrawlStatistics from the crawl this suite ran (None when the
        #: corpus was preloaded and no crawl happened here).
        self._crawl_statistics = None
        #: Suite-lifetime warm pool for backend="process": one spawn carries
        #: from the sharded crawl through every analysis pass (see
        #: _execution_backend); released by close().
        self._exec_pool: Optional[WorkerPool] = None
        #: The one analysis runner on ``corpus_source`` (see _shard_runner).
        self._runner: Optional[ShardAnalysisRunner] = None
        #: Per-epoch change feeds (:class:`~repro.ecosystem.evolution.EpochDelta`)
        #: from evolving the generated ecosystem to ``config.epoch``; empty
        #: at epoch 0 or when the ecosystem was supplied pre-built.
        self.epoch_deltas: List = []

    # ------------------------------------------------------------------
    # Pipeline stages (lazy, cached)
    # ------------------------------------------------------------------
    def stage_materialized(self, stage: str) -> bool:
        """Whether a lazy pipeline stage has been computed (or preloaded).

        Lets callers that persist intermediate products (the sweep engine's
        artifact store) cache exactly what a run actually built instead of
        forcing expensive stages nothing asked for.
        """
        attribute = {
            "ecosystem": self._ecosystem,
            "corpus": self._corpus,
            "classification": self._classification,
        }[stage]
        return attribute is not None

    @property
    def ecosystem(self) -> SyntheticEcosystem:
        """The synthetic ecosystem (generated — and evolved — on first access).

        With ``config.epoch > 0`` the base snapshot is churned through that
        many seeded evolution rounds; the change feeds are retained in
        :attr:`epoch_deltas` for delta-aware re-crawls.
        """
        if self._ecosystem is None:
            world = EcosystemGenerator(self.ecosystem_config, self.taxonomy).generate()
            if self.config.epoch > 0:
                from repro.ecosystem.evolution import evolve_epochs

                world, self.epoch_deltas = evolve_epochs(
                    world, self.ecosystem_config, self.config.epoch
                )
            self._ecosystem = world
        return self._ecosystem

    def _execution_backend(self) -> Union[str, WorkerPool, None]:
        """``config.backend``, with ``"process"`` promoted to one warm pool.

        The pool spans the suite's lifetime — the shard-partitioned crawl
        and every shard-parallel analysis pass reuse the same workers
        instead of respawning per stage.  Pipelines and runners borrow it,
        so their own cleanup never tears the suite's workers down;
        :meth:`close` does.
        """
        if self.config.backend != "process":
            return self.config.backend
        if self._exec_pool is None or self._exec_pool._closed:
            workers = max(
                1, self.config.shard_workers, self.config.crawl_workers
            )
            self._exec_pool = WorkerPool(kind="process", workers=workers)
        return self._exec_pool

    def close(self) -> None:
        """Release the suite's warm worker pool (idempotent).

        Cached stages and analyses stay usable.  The analysis runner
        borrowed the pool, so it goes too: a later uncached analysis builds
        a fresh runner (on a fresh pool), which reads the corpus again.
        """
        self._runner = None
        if self._exec_pool is not None:
            self._exec_pool.close()

    def __enter__(self) -> "MeasurementSuite":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _build_pipeline(
        self,
        shards: int = 1,
        backend: Union[str, WorkerPool, None] = None,
    ) -> CrawlPipeline:
        pipeline = CrawlPipeline.from_ecosystem(
            self.ecosystem,
            seed=self.config.seed,
            workers=self.config.crawl_workers,
            transport_config=self.config.crawl_transport,
            rate_limits=self.config.crawl_rate_limits,
            checkpoint_dir=self.config.crawl_checkpoint_dir,
            resume=self.config.crawl_resume,
            shards=shards,
            backend=backend,
        )
        if self.config.crawl_hostile is not None:
            from repro.crawler.hostile import install_hostile_hosts

            install_hostile_hosts(
                pipeline.http,
                self.ecosystem,
                spec=self.config.crawl_hostile,
                seed=self.config.seed,
            )
        return pipeline

    @property
    def corpus(self) -> CrawlCorpus:
        """The materialized corpus — a thin compatibility property.

        On a sharded suite it rebuilds from the shard store in exact
        discovery order (the store records each record's discovery index),
        so there is never a second crawl and downstream seeded sampling
        sees the same record order either way.  Prefer
        :attr:`corpus_source` — materializing defeats bounded-memory
        sharding, and ``make lint`` rejects new ``load_corpus`` calls in
        analysis code.
        """
        if self._corpus is None:
            if self.sharded:
                self._corpus = self.shard_store.load_corpus()  # lint-allow-materialize: the compat property
            else:
                pipeline = self._build_pipeline()
                self._corpus = pipeline.run()
                self._crawl_statistics = pipeline.statistics
        return self._corpus

    @property
    def corpus_source(self) -> CorpusSource:
        """The suite's :class:`~repro.io.CorpusSource`: one record-read API.

        The shard store when sharded, the in-memory corpus (one shard)
        otherwise — every stage streams from it without branching on layout.
        """
        if self.sharded:
            return self.shard_store
        return self.corpus

    @property
    def sharded(self) -> bool:
        """Whether the corpus lives in an on-disk shard store."""
        return self.config.shards > 0

    @property
    def crawl_statistics(self):
        """The :class:`~repro.crawler.pipeline.CrawlStatistics` of the crawl
        this suite ran — retry counters and the per-host failure taxonomy of
        quarantined (hostile/degraded) hosts.  ``None`` when the corpus was
        preloaded, so no crawl happened inside the suite.
        """
        return self._crawl_statistics

    @property
    def shard_store(self):
        """The on-disk sharded corpus store (built on first access).

        Lives under ``config.shard_dir`` when set, otherwise in a private
        temporary directory tied to the suite's lifetime.  When no
        in-memory corpus exists yet, the store comes straight from the
        **shard-partitioned crawl** (:meth:`CrawlPipeline.run_sharded`) —
        no whole-run corpus is ever materialized, which is what makes
        ``crawl``-style workloads memory-bounded at scale.  If the corpus
        was already crawled (or preloaded), it is sharded to disk instead;
        both paths publish byte-identical stores.
        """
        if not self.sharded:
            raise ValueError("SuiteConfig.shards must be > 0 for a shard store")
        if self._shard_store is None:
            from repro.io.shards import ShardedCorpusStore

            directory = self.config.shard_dir
            if directory is None:
                import tempfile

                self._shard_tempdir = tempfile.TemporaryDirectory(prefix="repro-shards-")
                directory = self._shard_tempdir.name
            if self._corpus is None:
                pipeline = self._build_pipeline(
                    shards=self.config.shards, backend=self._execution_backend()
                )
                self._shard_store = pipeline.run_sharded(
                    directory, epoch=self.config.epoch
                )
                self._crawl_statistics = pipeline.statistics
            else:
                self._shard_store = ShardedCorpusStore.write_corpus(
                    self.corpus, directory, n_shards=self.config.shards
                )
        return self._shard_store

    def incremental_crawl(self, parent, shard_dir: str):
        """Crawl this suite's (evolved) world as a delta over ``parent``.

        ``parent`` is the previous epoch's
        :class:`~repro.io.shards.ShardedCorpusStore` (or a path to one);
        the suite's :attr:`epoch_deltas` supply the change feed, so only
        churned records are fetched
        (:meth:`~repro.crawler.pipeline.CrawlPipeline.run_incremental`).
        The published store becomes the suite's shard store, so every
        downstream analysis reads the incremental result.
        """
        from repro.io.shards import ShardedCorpusStore

        if not self.sharded:
            raise ValueError(
                "incremental crawls need a sharded suite — set "
                "SuiteConfig.shards >= 1"
            )
        if not isinstance(parent, ShardedCorpusStore):
            parent = ShardedCorpusStore(parent)
        if parent.manifest.epoch != self.config.epoch - 1:
            raise ValueError(
                f"parent store is epoch {parent.manifest.epoch} but this "
                f"suite's world is epoch {self.config.epoch}; incremental "
                "crawls step one epoch at a time"
            )
        self.ecosystem  # force generation so epoch_deltas is populated
        delta = self.epoch_deltas[-1] if self.epoch_deltas else None
        pipeline = self._build_pipeline(
            shards=self.config.shards, backend=self._execution_backend()
        )
        store = pipeline.run_incremental(
            shard_dir,
            parent,
            changed_gpt_ids=sorted(delta.changed_gpt_ids) if delta else (),
            changed_policy_urls=sorted(delta.changed_policy_urls) if delta else (),
            epoch=self.config.epoch,
        )
        self._shard_store = store
        self._crawl_statistics = pipeline.statistics
        self._runner = None  # it read the replaced store
        return store

    def _shard_runner(self) -> ShardAnalysisRunner:
        """The suite's one analysis runner on its corpus source and pool.

        Built on first use; it reads the GPT records once for every
        analysis (see :class:`~repro.analysis.streaming.ShardAnalysisRunner`).
        """
        if self._runner is None:
            self._runner = ShardAnalysisRunner(
                self.corpus_source,
                workers=self.config.shard_workers,
                backend=self._execution_backend(),
            )
        return self._runner

    @property
    def descriptions(self) -> List[DataDescription]:
        """All data descriptions, in corpus first-occurrence order.

        They are extracted shard-parallel and merged on each record's
        order key, which reproduces the first-occurrence order of the
        discovery-ordered corpus exactly — no corpus materialization.
        """
        if self._descriptions is None:
            self._descriptions = self._shard_runner().extract_descriptions()
        return self._descriptions

    @property
    def fewshot_store(self) -> FewShotStore:
        """The labelled seed-example store (the paper's 1K manual labels)."""
        if self._fewshot_store is None:
            # Cap the seed set well below the corpus size: the paper labels 1K
            # of ~40K descriptions, so the few-shot store must stay a small
            # fraction of what gets classified or accuracy is trivially inflated.
            cap = max(1, len(self.descriptions) // 3)
            seed_sample = sample_descriptions(
                self.descriptions,
                min(self.config.seed_example_count, cap),
                seed=self.config.seed,
            )
            examples = label_with_ground_truth(seed_sample, self.ecosystem.ground_truth)
            self._fewshot_store = FewShotStore(examples, default_k=self.config.fewshot_k)
        return self._fewshot_store

    def _classifier_config(self) -> ClassifierConfig:
        return ClassifierConfig(
            fewshot_k=self.config.fewshot_k,
            two_phase=self.config.two_phase,
            use_fewshot=self.config.use_fewshot,
        )

    @property
    def classification(self) -> ClassificationResult:
        """Classification of every extracted data description.

        Descriptions are classified in batch-aligned chunks fanned out over
        the shard workers (the few-shot store rides the warm pool's
        broadcast channel); labels are byte-identical to one
        ``classify_many`` pass at any worker count or backend.
        """
        if self._classification is None:
            self._classification = self._shard_runner().classify(
                taxonomy=self.taxonomy,
                llm=self.llm,
                fewshot_store=self.fewshot_store,
                config=self._classifier_config(),
                descriptions=self.descriptions,
            )
        return self._classification

    @property
    def policy_report(self) -> PolicyConsistencyReport:
        """Privacy-policy consistency report for the whole corpus.

        It comes from the streamed disclosure pass, which runs the
        framework per policy shard, so the framework runs once and the
        corpus is never materialized.
        """
        self.disclosure  # the disclosure pass caches the report beside it
        return self._cache["policy_report"]  # type: ignore[return-value]

    @property
    def party_index(self) -> ActionPartyIndex:
        """First-/third-party attribution of Actions."""
        return self._cached("party")  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Analyses (lazy, cached)
    # ------------------------------------------------------------------
    def _cached(self, key: str) -> object:
        """One analysis by name, from the suite's runner on first request.

        Only an analysis that needs the classification forces that stage,
        so a corpus-only request never classifies, and neither does
        ``policy_duplicates`` alone.  ``disclosure`` also asks for
        ``policy_duplicates``, which shares its pass over the policy
        shards.  Everything a run returns lands in the cache.
        """
        if key not in self._cache:
            names = [key]
            if key == "disclosure" and "policy_duplicates" not in self._cache:
                names.append("policy_duplicates")
            results = self._shard_runner().run(
                names,
                classification=self.classification if key in NEEDS_CLASSIFICATION else None,
                taxonomy=self.taxonomy,
                llm=self.llm,
                single_pass_policy=self.config.single_pass_policy,
                near_duplicate_method=self.config.near_duplicate_method,
            )
            for name, value in results.items():
                self._cache.setdefault(name, value)
        return self._cache[key]

    @property
    def crawl_stats(self) -> CrawlStatsAnalysis:
        """Table 1 crawl statistics."""
        return self._cached("crawl_stats")  # type: ignore[return-value]

    @property
    def tool_usage(self) -> ToolUsageAnalysis:
        """Table 3 tool usage."""
        return self._cached("tool_usage")  # type: ignore[return-value]

    @property
    def collection(self) -> CollectionAnalysis:
        """Table 4 / Figure 7 collection trends."""
        return self._cached("collection")  # type: ignore[return-value]

    @property
    def coverage(self) -> CoverageAnalysis:
        """Figure 3 taxonomy coverage."""
        return self._cached("coverage")  # type: ignore[return-value]

    @property
    def prohibited(self) -> ProhibitedDataAnalysis:
        """Section 4.2.2 prohibited-data collection."""
        return self._cached("prohibited")  # type: ignore[return-value]

    @property
    def prevalence(self) -> PrevalenceAnalysis:
        """Table 5 prevalent third-party Actions."""
        return self._cached("prevalence")  # type: ignore[return-value]

    @property
    def multi_action(self) -> MultiActionAnalysis:
        """Section 4.4.1 multi-Action statistics."""
        return self._cached("multi_action")  # type: ignore[return-value]

    @property
    def cooccurrence(self) -> CooccurrenceAnalysis:
        """Figure 8 co-occurrence graph."""
        return self._cached("cooccurrence")  # type: ignore[return-value]

    @property
    def disclosure(self) -> DisclosureAnalysis:
        """Figures 9–12 / Table 7 disclosure consistency."""
        return self._cached("disclosure")  # type: ignore[return-value]

    @property
    def policy_duplicates(self) -> DuplicatePolicyReport:
        """Section 5.1.1 / Table 6 duplicate-policy statistics."""
        return self._cached("policy_duplicates")  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Evaluations against generator ground truth
    # ------------------------------------------------------------------
    def evaluate_classifier(self, sample_fraction: float = 1.0) -> ClassifierEvaluation:
        """Score the classifier against generator ground truth."""
        descriptions = self.descriptions
        if 0.0 < sample_fraction < 1.0:
            n = max(1, int(len(descriptions) * sample_fraction))
            descriptions = sample_descriptions(descriptions, n, seed=self.config.seed + 1)
        relevant = {description.key for description in descriptions}
        predictions = [
            label for label in self.classification.labels
            if (label.action_id, label.parameter_name) in relevant
        ]
        gold = gold_from_ground_truth(descriptions, self.ecosystem.ground_truth)
        return evaluate_predictions(predictions, gold)

    def evaluate_policy_framework(self) -> PolicyFrameworkEvaluation:
        """Score the policy framework against generator ground truth."""
        return evaluate_policy_framework(self.policy_report, self.ecosystem.ground_truth)

    # ------------------------------------------------------------------
    def run_all(self) -> Dict[str, object]:
        """Force every stage and analysis to run; return them keyed by name."""
        return {
            "crawl_stats": self.crawl_stats,
            "tool_usage": self.tool_usage,
            "collection": self.collection,
            "coverage": self.coverage,
            "prohibited": self.prohibited,
            "prevalence": self.prevalence,
            "multi_action": self.multi_action,
            "cooccurrence": self.cooccurrence,
            "disclosure": self.disclosure,
            "policy_duplicates": self.policy_duplicates,
        }
