"""One analysis dataflow: every suite stage runs through ``ShardAnalysisRunner``.

An unsharded suite keeps its corpus in memory, and that corpus is one shard
of the same runner a sharded suite uses.  The in-memory entry points
(the ``analyze_*`` functions, ``build_party_index``, ``extract_descriptions``,
``PrivacyPolicyAnalyzer.analyze_corpus`` and ``analyze_policy_corpus``) stay
as public API and as reference implementations: the suite never calls them,
and everything it computes equals what they compute from ``suite.corpus``.
"""

import importlib
import sys
from collections import Counter

import pytest

from repro.analysis import (
    analyze_collection,
    analyze_cooccurrence,
    analyze_coverage,
    analyze_crawl_stats,
    analyze_disclosure,
    analyze_multi_action,
    analyze_prevalence,
    analyze_prohibited,
    analyze_tool_usage,
    build_party_index,
)
from repro.analysis.streaming import STREAMABLE_ANALYSES, ShardAnalysisRunner
from repro.analysis.suite import MeasurementSuite, SuiteConfig
from repro.classification.classifier import DataCollectionClassifier
from repro.classification.descriptions import extract_descriptions
from repro.crawler.corpus import CrawlCorpus
from repro.experiments.registry import EXPERIMENTS, run_all_experiments
from repro.io.shards import ShardedCorpusStore
from repro.policy.duplicates import analyze_policy_corpus
from repro.policy.framework import PrivacyPolicyAnalyzer

#: The first golden world (``tests/reporting/golden/report_120gpts_seed3.md``).
N_GPTS, SEED = 120, 3

#: ``(module, function)`` of every in-memory entry point the suite must not call.
IN_MEMORY_ENTRY_POINTS = (
    ("repro.analysis.crawlstats", "analyze_crawl_stats"),
    ("repro.analysis.tools", "analyze_tool_usage"),
    ("repro.analysis.collection", "analyze_collection"),
    ("repro.analysis.coverage", "analyze_coverage"),
    ("repro.analysis.prohibited", "analyze_prohibited"),
    ("repro.analysis.prevalence", "analyze_prevalence"),
    ("repro.analysis.multiaction", "analyze_multi_action"),
    ("repro.analysis.cooccurrence", "analyze_cooccurrence"),
    ("repro.analysis.disclosure", "analyze_disclosure"),
    ("repro.policy.duplicates", "analyze_policy_corpus"),
    ("repro.analysis.party", "build_party_index"),
    ("repro.classification.descriptions", "extract_descriptions"),
)


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"the suite called the in-memory entry point {name}")

    return refuse


def _block_in_memory_entry_points(monkeypatch):
    """Replace each entry point in its module and wherever it was imported."""
    for module_name, name in IN_MEMORY_ENTRY_POINTS:
        original = getattr(importlib.import_module(module_name), name)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attribute, _refuse(name))
    monkeypatch.setattr(
        PrivacyPolicyAnalyzer, "analyze_corpus", _refuse("PrivacyPolicyAnalyzer.analyze_corpus")
    )


def test_suite_never_calls_the_in_memory_entry_points(monkeypatch):
    _block_in_memory_entry_points(monkeypatch)
    suite = MeasurementSuite(config=SuiteConfig(n_gpts=N_GPTS, seed=SEED))
    suite.run_all()
    results = run_all_experiments(suite)
    assert [result.experiment_id for result in results] == list(EXPERIMENTS)


@pytest.fixture(scope="module")
def suite():
    suite = MeasurementSuite(config=SuiteConfig(n_gpts=N_GPTS, seed=SEED))
    suite.run_all()
    return suite


class TestSuiteEqualsInMemoryOracles:
    def test_descriptions(self, suite):
        assert suite.descriptions == extract_descriptions(suite.corpus)

    def test_classification_labels(self, suite):
        classifier = DataCollectionClassifier(
            taxonomy=suite.taxonomy,
            llm=suite.llm,
            fewshot_store=suite.fewshot_store,
            config=suite._classifier_config(),
        )
        reference = classifier.classify_many(extract_descriptions(suite.corpus))
        assert suite.classification.labels == reference.labels

    def test_party_index(self, suite):
        assert suite.party_index == build_party_index(suite.corpus)

    def test_corpus_analyses(self, suite):
        corpus, party = suite.corpus, build_party_index(suite.corpus)
        assert suite.crawl_stats == analyze_crawl_stats(corpus)
        assert suite.tool_usage == analyze_tool_usage(corpus, party)
        assert suite.multi_action == analyze_multi_action(corpus)
        assert suite.cooccurrence == analyze_cooccurrence(corpus)

    def test_classified_analyses(self, suite):
        corpus, classification = suite.corpus, suite.classification
        party = build_party_index(corpus)
        assert suite.collection == analyze_collection(corpus, classification, party)
        assert suite.coverage == analyze_coverage(classification)
        assert suite.prohibited == analyze_prohibited(corpus, classification, suite.taxonomy)
        assert suite.prevalence == analyze_prevalence(corpus, classification, party)

    def test_policy_report_action_for_action(self, suite):
        analyzer = PrivacyPolicyAnalyzer(
            suite.taxonomy, suite.llm, single_pass=suite.config.single_pass_policy
        )
        reference = analyzer.analyze_corpus(suite.corpus, suite.classification)
        assert list(suite.policy_report.analyses.items()) == list(
            reference.analyses.items()
        )

    def test_policy_analyses(self, suite):
        assert suite.disclosure == analyze_disclosure(suite.policy_report, suite.corpus)
        assert suite.policy_duplicates == analyze_policy_corpus(
            suite.corpus, near_duplicate_method=suite.config.near_duplicate_method
        )


# ---------------------------------------------------------------------------
# One GPT-record pass: how often each GPT shard is opened
# ---------------------------------------------------------------------------
#: The two ways a runner reads GPT records: the analyses' pass and
#: description extraction.
GPT_ITERATORS = ("iter_shard", "iter_shard_gpts_indexed")

#: The corpus-only sequence of an epoch re-crawl (``perfbench`` epoch_recrawl).
CORPUS_ONLY_SEQUENCE = (
    "crawl_stats",
    "tool_usage",
    "multi_action",
    "cooccurrence",
    "policy_duplicates",
)


@pytest.fixture
def gpt_reads(monkeypatch):
    """Count every GPT-shard open, by ``(iterator, shard)``, on both sources."""
    reads = Counter()
    for source_class in (CrawlCorpus, ShardedCorpusStore):
        for name in GPT_ITERATORS:
            original = getattr(source_class, name)

            def counting(self, index, _original=original, _name=name):
                reads[_name, index] += 1
                return _original(self, index)

            monkeypatch.setattr(source_class, name, counting)
    return reads


def _golden_suite(shards, tmp_path):
    shard_dir = str(tmp_path / "store") if shards else None
    return MeasurementSuite(
        config=SuiteConfig(n_gpts=N_GPTS, seed=SEED, shards=shards, shard_dir=shard_dir)
    )


@pytest.mark.parametrize("shards", [0, 3])
def test_full_run_opens_each_gpt_shard_once_per_iterator(gpt_reads, shards, tmp_path):
    """``run_all()`` and every experiment: one analysis pass and one
    extraction pass over each GPT shard, nothing more."""
    suite = _golden_suite(shards, tmp_path)
    suite.run_all()
    run_all_experiments(suite)
    assert dict(gpt_reads) == {
        (name, index): 1 for name in GPT_ITERATORS for index in range(max(1, shards))
    }


@pytest.mark.parametrize("shards", [0, 3])
def test_corpus_only_sequence_opens_each_gpt_shard_once(gpt_reads, shards, tmp_path):
    """The corpus analyses and ``policy_duplicates`` share the one analysis
    pass, never extract descriptions and never force classification."""
    suite = _golden_suite(shards, tmp_path)
    for name in CORPUS_ONLY_SEQUENCE:
        getattr(suite, name)
    assert dict(gpt_reads) == {("iter_shard", index): 1 for index in range(max(1, shards))}
    assert not suite.stage_materialized("classification")


def test_second_run_reads_no_gpt_record(suite, gpt_reads):
    runner = ShardAnalysisRunner(suite.corpus_source)
    inputs = dict(classification=suite.classification, taxonomy=suite.taxonomy, llm=suite.llm)
    first = runner.run(STREAMABLE_ANALYSES, **inputs)
    assert dict(gpt_reads) == {("iter_shard", 0): 1}
    second = runner.run(STREAMABLE_ANALYSES, **inputs)
    assert dict(gpt_reads) == {("iter_shard", 0): 1}
    for name in STREAMABLE_ANALYSES + ("party",):
        assert second[name] == first[name], name
    assert list(second["policy_report"].analyses.items()) == list(
        first["policy_report"].analyses.items()
    )
