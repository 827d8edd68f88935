"""Discovery-order shard records: reconstruction, read-compat, one crawl.

The PR's contract, tested end to end:

* a schema-2 store streams (and rebuilds) the corpus in **exact discovery
  order** — byte-identical to the unsharded crawl across shard counts,
  backends, fork/spawn, and kill-mid-shard resume;
* schema-1 stores (pre-index; the checked-in fixture) stay readable and
  fall back to shard-major order;
* a sharded mixed workload (corpus analyses + classification) performs
  exactly ONE crawl and never materializes the whole corpus;
* shard-partitioned classification is byte-identical to the in-memory
  ``classify_many`` pass on every backend.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (
    analyze_crawl_stats,
    analyze_multi_action,
    analyze_tool_usage,
    build_party_index,
)
from repro.analysis.streaming import ShardAnalysisRunner
from repro.analysis.suite import MeasurementSuite, SuiteConfig
from repro.classification.descriptions import extract_descriptions
from repro.crawler.pipeline import CrawlPipeline
from repro.ecosystem.config import EcosystemConfig
from repro.ecosystem.generator import EcosystemGenerator
from repro.exec import WorkerPool
from repro.io import (
    CorpusSource,
    canonical_json,
    classification_to_payload,
    corpus_to_payload,
)
from repro.io.shards import ShardedCorpusStore

N_GPTS = 60
SEED = 17

FIXTURE_V1 = Path(__file__).parent / "fixtures" / "shard_store_v1"


@pytest.fixture(scope="module")
def ecosystem():
    config = EcosystemConfig.paper_calibrated(n_gpts=N_GPTS, seed=SEED)
    return EcosystemGenerator(config).generate()


@pytest.fixture(scope="module")
def reference(ecosystem):
    """The unsharded crawl: the discovery-order ground truth."""
    return CrawlPipeline.from_ecosystem(ecosystem, seed=SEED).run()


def _order(gpts):
    return [gpt.gpt_id for gpt in gpts]


class TestDiscoveryOrderReconstruction:
    @pytest.mark.parametrize("n_shards", [1, 3, 5])
    def test_iter_records_streams_discovery_order(
        self, reference, tmp_path, n_shards
    ):
        store = ShardedCorpusStore.write_corpus(
            reference, tmp_path / f"s{n_shards}", n_shards=n_shards
        )
        assert _order(store.iter_records()) == _order(reference.iter_gpts())
        # The indexed stream is strictly increasing (hole-y is fine:
        # unresolved identifiers consume indices too).
        indices = [pair[0] for pair in store.iter_indexed_gpts()]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)

    def test_load_corpus_is_byte_identical(self, reference, tmp_path):
        store = ShardedCorpusStore.write_corpus(reference, tmp_path / "s", n_shards=4)
        rebuilt = store.load_corpus()
        assert canonical_json(corpus_to_payload(rebuilt)) == canonical_json(
            corpus_to_payload(reference)
        )
        assert _order(rebuilt.iter_gpts()) == _order(reference.iter_gpts())
        assert rebuilt.discovery_indices == reference.discovery_indices

    @pytest.mark.parametrize(
        "backend",
        ["serial", "thread", "process-fork", "process-spawn"],
    )
    def test_sharded_crawl_order_matches_unsharded(
        self, ecosystem, reference, tmp_path, backend
    ):
        if backend.startswith("process-"):
            backend = WorkerPool(workers=2, start_method=backend.split("-")[1])
        pipeline = CrawlPipeline.from_ecosystem(
            ecosystem, seed=SEED, shards=3, workers=2, backend=backend
        )
        try:
            store = pipeline.run_sharded(tmp_path / "crawl")
        finally:
            if isinstance(backend, WorkerPool):
                backend.close()
        assert _order(store.iter_records()) == _order(reference.iter_gpts())
        assert store.load_corpus().discovery_indices == reference.discovery_indices

    def test_kill_mid_shard_resume_preserves_order(
        self, ecosystem, reference, tmp_path
    ):
        checkpoint_dir = tmp_path / "checkpoint"
        killed = CrawlPipeline.from_ecosystem(
            ecosystem, seed=SEED, shards=3,
            checkpoint_dir=str(checkpoint_dir), checkpoint_every=5,
        )
        real_get = killed.http.get
        calls = {"n": 0}

        def killer_get(url):
            calls["n"] += 1
            if calls["n"] == 50:
                raise KeyboardInterrupt
            return real_get(url)

        killed.http.get = killer_get
        with pytest.raises(KeyboardInterrupt):
            killed.run_sharded(tmp_path / "dead")

        resumed = CrawlPipeline.from_ecosystem(
            ecosystem, seed=SEED, shards=3,
            checkpoint_dir=str(checkpoint_dir), resume=True,
        )
        store = resumed.run_sharded(tmp_path / "resumed")
        assert resumed.statistics.n_tasks_resumed > 0
        assert _order(store.iter_records()) == _order(reference.iter_gpts())

    def test_corpus_source_protocol(self, reference, tmp_path):
        store = ShardedCorpusStore.write_corpus(reference, tmp_path / "p", n_shards=2)
        assert isinstance(reference, CorpusSource)
        assert isinstance(store, CorpusSource)
        assert store.n_records == reference.n_records == len(reference.gpts)
        assert reference.n_shards == 1
        shard_major = [
            gpt.gpt_id for i in range(store.n_shards) for gpt in store.iter_shard(i)
        ]
        assert sorted(shard_major) == sorted(_order(store.iter_records()))
        assert _order(reference.iter_shard(0)) == _order(reference.iter_records())
        with pytest.raises(IndexError):
            next(reference.iter_shard(1))

    def test_analyzers_consume_store_directly(self, reference, tmp_path):
        """Record-only analyzers accept any CorpusSource — including the
        on-disk store, no materialization step in between."""
        from repro.analysis.multiaction import analyze_multi_action

        store = ShardedCorpusStore.write_corpus(reference, tmp_path / "a", n_shards=3)
        assert analyze_multi_action(store) == analyze_multi_action(reference)


class TestSchema1ReadCompat:
    def test_fixture_is_schema_1(self):
        store = ShardedCorpusStore(FIXTURE_V1)
        assert store.manifest.schema == 1
        assert not store.manifest.supports_discovery_order
        assert store.verify() == []

    def test_legacy_store_reads_shard_major(self):
        store = ShardedCorpusStore(FIXTURE_V1)
        shard_major = [
            gpt.gpt_id
            for i in range(store.n_shards)
            for gpt in store.iter_shard_gpts(i)
        ]
        assert _order(store.iter_records()) == shard_major
        corpus = store.load_corpus()
        assert _order(corpus.iter_gpts()) == shard_major
        assert corpus.discovery_indices == {}
        assert len(corpus.gpts) == store.n_gpts == 8

    def test_legacy_indexed_iteration_refuses_loudly(self):
        store = ShardedCorpusStore(FIXTURE_V1)
        with pytest.raises(ValueError, match="discovery ind"):
            next(store.iter_shard_gpts_indexed(0))
        with pytest.raises(ValueError, match="discovery ind"):
            next(store.iter_indexed_gpts())

    def test_runner_corpus_analyses_read_legacy_store(self):
        """The runner's GPT-record pass reads ``iter_shard``, which legacy
        stores serve, so the corpus analyses work on them; only
        description extraction needs discovery indices, and it says so."""
        store = ShardedCorpusStore(FIXTURE_V1)
        corpus = store.load_corpus()
        with ShardAnalysisRunner(store) as runner:
            results = runner.run(["crawl_stats", "tool_usage", "multi_action"])
            with pytest.raises(RuntimeError, match="discovery ind"):
                runner.extract_descriptions()
        assert results["crawl_stats"] == analyze_crawl_stats(corpus)
        assert results["tool_usage"] == analyze_tool_usage(corpus, build_party_index(corpus))
        assert results["multi_action"] == analyze_multi_action(corpus)


class TestOneCrawlMixedWorkload:
    def test_sharded_suite_crawls_exactly_once(self, tmp_path):
        """Corpus analyses AND classification on one sharded suite: one
        pipeline, one run_sharded, zero run(), no extra HTTP requests, no
        materialized corpus — the double crawl is gone."""
        suite = MeasurementSuite(
            config=SuiteConfig(
                n_gpts=N_GPTS, seed=SEED, shards=3, shard_workers=2,
                shard_dir=str(tmp_path / "shards"),
            )
        )
        calls = {"build": 0, "run": 0, "run_sharded": 0}
        pipelines = []
        original_build = suite._build_pipeline

        def counting_build(*args, **kwargs):
            calls["build"] += 1
            pipeline = original_build(*args, **kwargs)
            pipelines.append(pipeline)
            original_run, original_sharded = pipeline.run, pipeline.run_sharded

            def run(*a, **k):
                calls["run"] += 1
                return original_run(*a, **k)

            def run_sharded(*a, **k):
                calls["run_sharded"] += 1
                return original_sharded(*a, **k)

            pipeline.run = run
            pipeline.run_sharded = run_sharded
            return pipeline

        suite._build_pipeline = counting_build
        stats = suite.crawl_stats
        requests_after_crawl = pipelines[0].http.request_count
        descriptions = suite.descriptions
        classification = suite.classification
        collection = suite.collection
        assert stats is not None and collection is not None
        assert len(descriptions) > 0 and len(classification.labels) > 0
        assert calls == {"build": 1, "run": 0, "run_sharded": 1}
        # The transport counter proves no analysis stage re-crawled.
        assert pipelines[0].http.request_count == requests_after_crawl
        assert suite._corpus is None, "mixed workload materialized the corpus"

        unsharded = MeasurementSuite(config=SuiteConfig(n_gpts=N_GPTS, seed=SEED))
        assert canonical_json(classification_to_payload(classification)) == (
            canonical_json(classification_to_payload(unsharded.classification))
        )
        assert descriptions == unsharded.descriptions


class TestStreamedClassificationByteIdentity:
    @pytest.fixture(scope="class")
    def parts(self, tmp_path_factory):
        suite = MeasurementSuite(config=SuiteConfig(n_gpts=N_GPTS, seed=SEED))
        store = ShardedCorpusStore.write_corpus(
            suite.corpus, tmp_path_factory.mktemp("cls") / "store", n_shards=3
        )
        return {
            "suite": suite,
            "store": store,
            "reference": canonical_json(
                classification_to_payload(suite.classification)
            ),
        }

    @pytest.mark.parametrize(
        "backend",
        ["serial", "thread", "process-fork", "process-spawn"],
    )
    def test_backends_byte_identical(self, parts, backend):
        if backend.startswith("process-"):
            backend = WorkerPool(workers=2, start_method=backend.split("-")[1])
        suite = parts["suite"]
        try:
            with ShardAnalysisRunner(parts["store"], workers=2, backend=backend) as runner:
                result = runner.classify(
                    taxonomy=suite.taxonomy,
                    llm=suite.llm,
                    fewshot_store=suite.fewshot_store,
                    config=suite._classifier_config(),
                )
        finally:
            if isinstance(backend, WorkerPool):
                backend.close()
        assert canonical_json(classification_to_payload(result)) == parts["reference"]

    def test_streamed_extraction_matches_in_memory(self, parts):
        runner = ShardAnalysisRunner(parts["store"], workers=2, backend="thread")
        assert runner.extract_descriptions() == extract_descriptions(
            parts["suite"].corpus
        )

    def test_chunk_boundaries_do_not_leak(self, parts):
        """A batch size that does not divide the description count still
        reproduces the one-pass labels (chunks stay batch-aligned)."""
        from repro.classification.classifier import (
            ClassifierConfig,
            DataCollectionClassifier,
        )

        suite = parts["suite"]
        config = ClassifierConfig(batch_size=5)
        reference = DataCollectionClassifier(
            taxonomy=suite.taxonomy,
            llm=suite.llm,
            fewshot_store=suite.fewshot_store,
            config=config,
        ).classify_many(suite.descriptions)
        with ShardAnalysisRunner(parts["store"], workers=2, backend="thread") as runner:
            result = runner.classify(
                taxonomy=suite.taxonomy,
                llm=suite.llm,
                fewshot_store=suite.fewshot_store,
                config=config,
            )
        assert canonical_json(classification_to_payload(result)) == canonical_json(
            classification_to_payload(reference)
        )
