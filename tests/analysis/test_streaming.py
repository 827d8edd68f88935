"""Tests for the streaming accumulators and the shard-parallel runner.

The load-bearing property: for every corpus-driven analysis, accumulate →
merge → finalize over *any* partitioning of the corpus equals the
single-pass ``analyze_*`` result, and the shard-parallel runner equals the
in-memory path at any shard and worker count.
"""

import pytest

from repro.analysis import (
    STREAMABLE_ANALYSES,
    analyze_collection,
    analyze_cooccurrence,
    analyze_coverage,
    analyze_crawl_stats,
    analyze_multi_action,
    analyze_prevalence,
    analyze_prohibited,
    analyze_tool_usage,
    build_party_index,
)
from repro.analysis.collection import CollectionAccumulator
from repro.analysis.cooccurrence import CooccurrenceAccumulator
from repro.analysis.coverage import CoverageAccumulator
from repro.analysis.crawlstats import CrawlStatsAccumulator
from repro.analysis.multiaction import MultiActionAccumulator
from repro.analysis.party import ActionPartyAccumulator
from repro.analysis.prevalence import PrevalenceAccumulator
from repro.analysis.prohibited import ProhibitedAccumulator, find_offending_actions
from repro.analysis.streaming import ShardAnalysisRunner
from repro.analysis.tools import ToolUsageAccumulator
from repro.classification.classifier import ClassifierConfig
from repro.classification.descriptions import extract_descriptions
from repro.io import (
    CorpusSource,
    corpus_from_payload,
    corpus_to_payload,
    policies_to_payload,
)
from repro.io.shards import ShardedCorpusStore


@pytest.fixture(scope="module")
def shard_store(small_corpus, tmp_path_factory):
    return ShardedCorpusStore.write_corpus(
        small_corpus, tmp_path_factory.mktemp("stream-shards"), n_shards=5
    )


@pytest.fixture(scope="module")
def classification(small_corpus, taxonomy, simulated_llm):
    """A real classification of the small corpus (shared by merge tests)."""
    from repro.analysis.suite import MeasurementSuite, SuiteConfig

    suite = MeasurementSuite(
        config=SuiteConfig(n_gpts=600, seed=11),
        taxonomy=taxonomy,
        llm=simulated_llm,
        corpus=small_corpus,
    )
    return suite.classification


def _chunked_merge(accumulators, items, unpack=False):
    """Accumulate items split over several accumulators, then merge.

    With ``unpack``, each item is a row of ``update`` arguments.
    """
    for index, item in enumerate(items):
        accumulator = accumulators[index % len(accumulators)]
        if unpack:
            accumulator.update(*item)
        else:
            accumulator.update(item)
    first = accumulators[0]
    for other in accumulators[1:]:
        first.merge(other)
    return first


def _embedding_rows(corpus):
    """Each GPT's ``(gpt id, action ids)``: what collection and prohibited fold."""
    return [
        (gpt.gpt_id, [action.action_id for action in gpt.actions])
        for gpt in corpus.iter_gpts()
    ]


class TestAccumulatorMergeEquivalence:
    """Partitioned accumulate+merge == single-pass analyze_*."""

    def test_party(self, small_corpus):
        merged = _chunked_merge(
            [ActionPartyAccumulator() for _ in range(3)], small_corpus.iter_gpts()
        )
        assert merged.finalize() == build_party_index(small_corpus)

    def test_crawl_stats(self, small_corpus):
        merged = _chunked_merge(
            [CrawlStatsAccumulator() for _ in range(3)], small_corpus.iter_gpts()
        )
        available = {
            url
            for url, result in small_corpus.policies.items()
            if result.ok and result.text is not None
        }
        result = merged.finalize(
            store_counts=small_corpus.store_counts,
            unresolved_gpt_ids=small_corpus.unresolved_gpt_ids,
            available_policy_urls=available,
        )
        assert result == analyze_crawl_stats(small_corpus)

    def test_tool_usage(self, small_corpus):
        party = build_party_index(small_corpus)
        merged = _chunked_merge(
            [ToolUsageAccumulator() for _ in range(4)], small_corpus.iter_gpts()
        )
        assert merged.finalize(party) == analyze_tool_usage(small_corpus, party)

    def test_multi_action(self, small_corpus):
        merged = _chunked_merge(
            [MultiActionAccumulator() for _ in range(4)], small_corpus.iter_gpts()
        )
        assert merged.finalize() == analyze_multi_action(small_corpus)

    def test_cooccurrence(self, small_corpus):
        merged = _chunked_merge(
            [CooccurrenceAccumulator() for _ in range(4)], small_corpus.iter_gpts()
        )
        finalized = merged.finalize()
        single = analyze_cooccurrence(small_corpus)
        assert finalized.names == single.names
        assert finalized.neighbors == single.neighbors

    def test_collection(self, small_corpus, classification):
        party = build_party_index(small_corpus)
        collected = classification.action_data_types()
        merged = _chunked_merge(
            [CollectionAccumulator(collected) for _ in range(3)],
            _embedding_rows(small_corpus),
            unpack=True,
        )
        assert merged.finalize(party) == analyze_collection(
            small_corpus, classification, party
        )

    def test_prohibited(self, small_corpus, classification, taxonomy):
        offending = find_offending_actions(classification, taxonomy)
        collected = classification.action_data_types()
        merged = _chunked_merge(
            [ProhibitedAccumulator(offending, collected) for _ in range(3)],
            _embedding_rows(small_corpus),
            unpack=True,
        )
        assert merged.finalize() == analyze_prohibited(
            small_corpus, classification, taxonomy
        )

    def test_prevalence(self, small_corpus, classification):
        party = build_party_index(small_corpus)
        merged = _chunked_merge(
            [PrevalenceAccumulator() for _ in range(3)], small_corpus.iter_gpts()
        )
        assert merged.finalize(classification, party) == analyze_prevalence(
            small_corpus, classification, party
        )

    def test_coverage_label_chunks(self, classification):
        merged = _chunked_merge(
            [CoverageAccumulator() for _ in range(4)], classification.labels
        )
        assert merged.finalize() == analyze_coverage(classification)


class TestShardAnalysisRunner:
    @pytest.mark.parametrize("workers", [0, 4])
    def test_corpus_group_matches_in_memory(self, shard_store, small_corpus, workers):
        with ShardAnalysisRunner(shard_store, workers=workers) as runner:
            results = runner.run(
                ["crawl_stats", "tool_usage", "multi_action", "cooccurrence"]
            )
        party = build_party_index(small_corpus)
        assert results["crawl_stats"] == analyze_crawl_stats(small_corpus)
        assert results["tool_usage"] == analyze_tool_usage(small_corpus, party)
        assert results["multi_action"] == analyze_multi_action(small_corpus)
        assert results["party"] == party

    def test_classified_group_matches_in_memory(
        self, shard_store, small_corpus, classification, taxonomy
    ):
        with ShardAnalysisRunner(shard_store, workers=2) as runner:
            results = runner.run(
                ["collection", "coverage", "prohibited", "prevalence"],
                classification=classification,
                taxonomy=taxonomy,
            )
        party = build_party_index(small_corpus)
        assert results["collection"] == analyze_collection(
            small_corpus, classification, party
        )
        assert results["coverage"] == analyze_coverage(classification)
        assert results["prohibited"] == analyze_prohibited(
            small_corpus, classification, taxonomy
        )
        assert results["prevalence"] == analyze_prevalence(
            small_corpus, classification, party
        )

    def test_identical_across_shard_counts(self, small_corpus, tmp_path):
        baseline = None
        for n_shards in (1, 3, 8):
            store = ShardedCorpusStore.write_corpus(
                small_corpus, tmp_path / f"s{n_shards}", n_shards=n_shards
            )
            with ShardAnalysisRunner(store) as runner:
                results = runner.run(["crawl_stats", "multi_action"])
            if baseline is None:
                baseline = results
            else:
                assert results["crawl_stats"] == baseline["crawl_stats"]
                assert results["multi_action"] == baseline["multi_action"]

    def test_unknown_analysis_rejected(self, shard_store):
        with ShardAnalysisRunner(shard_store) as runner:
            with pytest.raises(ValueError, match="unknown streaming analyses"):
                runner.run(["nope"])

    def test_classification_required(self, shard_store):
        with ShardAnalysisRunner(shard_store) as runner:
            with pytest.raises(ValueError, match="classification required"):
                runner.run(["collection"])

    def test_party_only(self, shard_store, small_corpus):
        runner = ShardAnalysisRunner(shard_store, workers=2)
        results = runner.run(["party"])
        assert results["party"] == build_party_index(small_corpus)


class TestLayoutsAgree:
    """The runner reads any CorpusSource: an in-memory corpus (one shard)
    and that corpus written to 1 and to 3 on-disk shards give equal results."""

    @pytest.fixture(params=["crawled", "payload-round-trip"])
    def corpus(self, request, small_corpus):
        if request.param == "crawled":
            return small_corpus
        # The payload round trip drops the discovery indices, as the sweep
        # cache does; insertion order is then the only record order.
        rebuilt = corpus_from_payload(
            corpus_to_payload(small_corpus), policies_to_payload(small_corpus)
        )
        assert not rebuilt.discovery_indices
        return rebuilt

    def test_in_memory_and_on_disk_sources_agree(
        self, corpus, classification, taxonomy, simulated_llm, tmp_path
    ):
        sources = [corpus] + [
            ShardedCorpusStore.write_corpus(corpus, tmp_path / f"s{n}", n_shards=n)
            for n in (1, 3)
        ]
        outputs = []
        for source in sources:
            assert isinstance(source, CorpusSource)
            with ShardAnalysisRunner(source, workers=2) as runner:
                descriptions = runner.extract_descriptions()
                labels = runner.classify(
                    taxonomy=taxonomy,
                    llm=simulated_llm,
                    fewshot_store=None,
                    config=ClassifierConfig(use_fewshot=False),
                    descriptions=descriptions,
                ).labels
                results = runner.run(
                    STREAMABLE_ANALYSES,
                    classification=classification,
                    taxonomy=taxonomy,
                    llm=simulated_llm,
                )
            outputs.append((descriptions, labels, results))
        reference_descriptions, reference_labels, reference = outputs[0]
        assert reference_descriptions == extract_descriptions(corpus)
        for descriptions, labels, results in outputs[1:]:
            assert descriptions == reference_descriptions
            assert labels == reference_labels
            for name in STREAMABLE_ANALYSES + ("party",):
                assert results[name] == reference[name], name
            assert list(results["policy_report"].analyses.items()) == list(
                reference["policy_report"].analyses.items()
            )


class TestWarmPoolStreaming:
    """One persistent WorkerPool across streaming passes (the warm path)."""

    @pytest.mark.process_smoke
    def test_owned_pool_spans_multiple_passes(self, shard_store, small_corpus):
        """backend="process" builds one warm pool; repeated run() calls on
        the same runner reuse it, stay equal to the in-memory path, and the
        pool is torn down when the runner closes."""
        party = build_party_index(small_corpus)
        with ShardAnalysisRunner(shard_store, workers=2, backend="process") as runner:
            pool = runner.pool
            assert pool is not None and pool.is_process
            first = runner.run(["crawl_stats", "multi_action"])
            second = runner.run(["tool_usage"])
            assert runner.pool is pool  # same warm pool across passes
        assert first["crawl_stats"] == analyze_crawl_stats(small_corpus)
        assert first["multi_action"] == analyze_multi_action(small_corpus)
        assert second["tool_usage"] == analyze_tool_usage(small_corpus, party)
        assert pool._closed
        assert runner._owned_pool is None

    @pytest.mark.process_smoke
    def test_borrowed_pool_survives_runner_exit(
        self, shard_store, small_corpus, classification, taxonomy
    ):
        """A borrowed pool instance runs both the GPT and the policy pass
        and is NOT closed when the runner's ``with`` block exits."""
        from repro.exec import WorkerPool

        with WorkerPool(kind="process", workers=2) as pool:
            with ShardAnalysisRunner(shard_store, backend=pool) as runner:
                results = runner.run(
                    ["crawl_stats", "collection", "prohibited"],
                    classification=classification,
                    taxonomy=taxonomy,
                )
            assert not pool._closed
            # Reuse after the analysis proves the workers are still alive.
            with ShardAnalysisRunner(shard_store, backend=pool) as runner:
                again = runner.run(["multi_action"])
        party = build_party_index(small_corpus)
        assert results["crawl_stats"] == analyze_crawl_stats(small_corpus)
        assert results["collection"] == analyze_collection(
            small_corpus, classification, party
        )
        assert results["prohibited"] == analyze_prohibited(
            small_corpus, classification, taxonomy
        )
        assert again["multi_action"] == analyze_multi_action(small_corpus)

    def test_borrowed_pool_outlives_runner_close_and_sweep_exit(
        self, shard_store, small_corpus
    ):
        """Consumers borrow a pool they were handed: neither
        ``ShardAnalysisRunner.close()`` nor leaving a ``SweepRunner``
        ``with`` block closes it, and it keeps running work afterwards."""
        from repro.exec import ExecTask, WorkerPool
        from repro.experiments.sweep import SweepRunner, expand_grid

        with WorkerPool(kind="process", workers=1) as pool:
            runner = ShardAnalysisRunner(shard_store, backend=pool)
            stats = runner.run(["crawl_stats"])["crawl_stats"]
            runner.close()
            assert not pool._closed
            assert runner.run(["crawl_stats"])["crawl_stats"] == stats
            with SweepRunner(expand_grid(["baseline"], 1, n_gpts=20), backend=pool):
                pass
            assert not pool._closed
            assert pool.run([ExecTask(key="alive", fn=len, args=("ok",))])[0].result == 2
        assert stats == analyze_crawl_stats(small_corpus)

    @pytest.mark.parametrize("backend", [None, "serial", "thread"])
    def test_thread_runner_usable_after_close(self, shard_store, small_corpus, backend):
        """A thread pool built from a name holds nothing to release, so
        closing the runner leaves it usable; only process pools are owned."""
        from repro.experiments.sweep import SweepRunner, expand_grid

        runner = ShardAnalysisRunner(shard_store, workers=2, backend=backend)
        runner.close()
        stats = runner.run(["crawl_stats"])["crawl_stats"]
        assert stats == analyze_crawl_stats(small_corpus)
        cells = expand_grid(["baseline"], 1, n_gpts=20)
        with SweepRunner(cells, workers=2, backend=backend) as sweep:
            pass
        assert not sweep.pool._closed


class TestShardedSuite:
    """MeasurementSuite with shards > 0 routes analyses through streaming."""

    def test_suite_results_identical(self, tmp_path):
        from repro.analysis.suite import MeasurementSuite, SuiteConfig
        from repro.experiments.registry import EXPERIMENTS
        from repro.experiments.sweep import _jsonable
        from repro.io import canonical_json

        plain = MeasurementSuite(config=SuiteConfig(n_gpts=150, seed=23))
        sharded = MeasurementSuite(
            config=SuiteConfig(
                n_gpts=150, seed=23, shards=3, shard_workers=2,
                shard_dir=str(tmp_path / "suite-shards"),
            )
        )
        # Streamed analyses compare equal object-for-object…
        plain_all = plain.run_all()
        sharded_all = sharded.run_all()
        for name in ("crawl_stats", "tool_usage", "collection", "coverage",
                     "prohibited", "prevalence", "multi_action"):
            assert plain_all[name] == sharded_all[name], name
        # …and the reported experiment values are the byte-level contract.
        plain_values = {
            eid: _jsonable(EXPERIMENTS[eid](plain).measured_values) for eid in EXPERIMENTS
        }
        sharded_values = {
            eid: _jsonable(EXPERIMENTS[eid](sharded).measured_values) for eid in EXPERIMENTS
        }
        assert canonical_json(plain_values) == canonical_json(sharded_values)

    def test_corpus_only_access_skips_classification(self, tmp_path):
        from repro.analysis.suite import MeasurementSuite, SuiteConfig

        suite = MeasurementSuite(config=SuiteConfig(n_gpts=80, seed=2, shards=2))
        suite.crawl_stats
        suite.multi_action
        assert not suite.stage_materialized("classification")

    def test_shard_store_requires_sharding(self):
        from repro.analysis.suite import MeasurementSuite, SuiteConfig

        suite = MeasurementSuite(config=SuiteConfig(n_gpts=10, seed=1))
        with pytest.raises(ValueError):
            suite.shard_store

    def test_shard_dir_is_used(self, tmp_path):
        from repro.analysis.suite import MeasurementSuite, SuiteConfig

        target = tmp_path / "explicit"
        suite = MeasurementSuite(
            config=SuiteConfig(n_gpts=60, seed=4, shards=2, shard_dir=str(target))
        )
        suite.crawl_stats
        assert (target / "manifest.json").exists()

    @pytest.mark.process_smoke
    def test_process_suite_shares_one_pool_crawl_through_analyses(self, tmp_path):
        """backend="process" gives the suite ONE warm pool spanning the
        sharded crawl and every streamed analysis pass, results identical to
        the thread-backend suite; close() releases it idempotently, and an
        analysis first asked for after close() runs on a fresh pool."""
        from repro.analysis.suite import MeasurementSuite, SuiteConfig

        plain = MeasurementSuite(
            config=SuiteConfig(n_gpts=120, seed=9, shards=3, shard_workers=2)
        )
        with MeasurementSuite(
            config=SuiteConfig(
                n_gpts=120, seed=9, shards=3, shard_workers=2, backend="process",
            )
        ) as pooled:
            first_stats = pooled.crawl_stats  # crawls via the pool
            pool = pooled._exec_pool
            assert pool is not None and pool.is_process
            assert pooled.multi_action == plain.multi_action  # streams via it
            assert pooled._exec_pool is pool  # same pool across stages
            assert first_stats == plain.crawl_stats
        assert pool._closed
        pooled.close()  # second close is a no-op
        assert pooled.policy_duplicates == plain.policy_duplicates  # on a fresh pool
        assert pooled._exec_pool is not pool and not pooled._exec_pool._closed
        pooled.close()
        assert pooled._exec_pool._closed
