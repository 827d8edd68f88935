"""Tests for the disclosure analysis and the measurement suite."""

import math
import random

import pytest

from repro.analysis.disclosure import (
    LABEL_ORDER,
    DisclosureAnalysis,
    analyze_disclosure,
    spearman_correlation,
)
from repro.policy.labels import ConsistencyLabel


@pytest.fixture(scope="module")
def disclosure(suite, suite_policy_report):
    return analyze_disclosure(suite_policy_report, suite.corpus)


class TestDisclosureAnalysis:
    def test_category_distributions_sum_to_one(self, disclosure):
        for category, distribution in disclosure.category_distributions.items():
            assert sum(distribution.values()) == pytest.approx(1.0), category

    def test_overall_distribution_dominated_by_omissions(self, disclosure):
        overall = disclosure.overall_distribution()
        assert sum(overall.values()) == pytest.approx(1.0)
        assert overall[ConsistencyLabel.OMITTED] > 0.4
        assert overall[ConsistencyLabel.OMITTED] == max(overall.values())

    def test_type_label_counts_match_actions(self, disclosure, suite_policy_report):
        total_from_types = sum(
            sum(counts.values()) for counts in disclosure.type_label_counts.values()
        )
        total_from_report = len(suite_policy_report.all_results())
        assert total_from_types == total_from_report

    def test_action_label_fractions_sum_to_one(self, disclosure):
        for fractions in disclosure.action_label_fractions.values():
            assert sum(fractions.values()) == pytest.approx(1.0)

    def test_label_fraction_cdf_monotonic(self, disclosure):
        for label in LABEL_ORDER:
            cdf = disclosure.label_fraction_cdf(label)
            fractions = [y for _, y in cdf]
            assert fractions == sorted(fractions)

    def test_fully_consistent_share_in_paper_range(self, disclosure):
        assert 0.0 <= disclosure.fully_consistent_share <= 0.25

    def test_spearman_correlation_weak(self, disclosure):
        correlation = disclosure.spearman_consistency_vs_items()
        assert -0.6 <= correlation <= 0.6

    def test_consistent_actions_sorted(self, disclosure):
        totals = [row.clear + row.vague for row in disclosure.consistent_actions]
        assert totals == sorted(totals, reverse=True)

    def test_prevalent_type_rows_threshold(self, disclosure):
        rows = disclosure.prevalent_type_rows(min_occurrences=5)
        assert all(total >= 5 for _, _, total in rows)

    def test_omitted_share_helpers(self, disclosure):
        assert 0.0 <= disclosure.omitted_share() <= 1.0
        if "Query" in disclosure.category_distributions:
            assert 0.0 <= disclosure.omitted_share("Query") <= 1.0
        assert disclosure.omitted_share("No such category") == 0.0


class TestMeasurementSuite:
    def test_pipeline_stages_cached(self, suite):
        assert suite.corpus is suite.corpus
        assert suite.classification is suite.classification
        assert suite.policy_report is suite.policy_report
        assert suite.disclosure is suite.disclosure

    def test_run_all_returns_every_analysis(self, suite):
        results = suite.run_all()
        assert set(results) == {
            "crawl_stats", "tool_usage", "collection", "coverage", "prohibited",
            "prevalence", "multi_action", "cooccurrence", "disclosure", "policy_duplicates",
        }

    def test_classifier_evaluation_close_to_paper(self, suite):
        evaluation = suite.evaluate_classifier()
        assert evaluation.n_evaluated > 100
        assert evaluation.category_accuracy > 0.85
        assert evaluation.type_accuracy > 0.82

    def test_fewshot_store_is_a_strict_subset(self, suite):
        assert 0 < len(suite.fewshot_store) <= len(suite.descriptions) // 3 + 1

    def test_policy_framework_evaluation_shape(self, suite):
        evaluation = suite.evaluate_policy_framework()
        assert evaluation.recall >= evaluation.precision - 0.1
        assert 0.7 <= evaluation.accuracy <= 1.0


class TestSuiteConfigValidate:
    """validate() rejects contradictory knob combinations at build time."""

    def test_valid_configs_pass_through(self):
        from repro.analysis.suite import SuiteConfig

        assert SuiteConfig().validate() is not None
        assert SuiteConfig(shards=3, shard_workers=2, backend="thread").validate()

    @pytest.mark.parametrize(
        ("kwargs", "fragment"),
        [
            ({"n_gpts": 0}, "n_gpts"),
            ({"shards": -1}, "shards must be >= 0"),
            ({"shard_workers": -2, "shards": 2}, "worker counts"),
            ({"shard_workers": 2}, "shard_workers has no effect without sharding"),
            ({"shard_dir": "/tmp/x"}, "shard_dir has no effect without sharding"),
            ({"backend": "thread"}, "backend has no effect without sharding"),
            ({"backend": "gpu", "shards": 2}, "unknown backend"),
            (
                {
                    "backend": "process",
                    "shards": 2,
                    "crawl_rate_limits": {"api.example.com": 2.0},
                },
                "do not span processes",
            ),
            ({"crawl_resume": True}, "needs crawl_checkpoint_dir"),
        ],
    )
    def test_contradictory_combos_rejected(self, kwargs, fragment):
        from repro.analysis.suite import MeasurementSuite, SuiteConfig

        config = SuiteConfig(**kwargs)
        with pytest.raises(ValueError, match=fragment):
            config.validate()
        # The suite constructor validates too — misconfiguration fails at
        # build time, not deep inside a crawl.
        with pytest.raises(ValueError, match="invalid SuiteConfig"):
            MeasurementSuite(config=config)


class TestSpearmanCorrelation:
    """The numpy Spearman that replaced ``scipy.stats.spearmanr``."""

    @staticmethod
    def _tied_samples(seed):
        rng = random.Random(seed)
        n = rng.randint(3, 60)
        # Few distinct values per sample, so most ranks are ties.
        items = [rng.randint(1, rng.randint(1, 6)) for _ in range(n)]
        steps = rng.randint(1, 4)
        consistency = [rng.randint(0, steps) / steps for _ in range(n)]
        return items, consistency

    def test_matches_scipy_on_tied_samples(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        compared = 0
        for seed in range(300):
            items, consistency = self._tied_samples(seed)
            if len(set(items)) < 2 or len(set(consistency)) < 2:
                continue
            expected = float(scipy_stats.spearmanr(items, consistency)[0])
            assert spearman_correlation(items, consistency) == pytest.approx(
                expected, abs=1e-12
            ), seed
            compared += 1
        assert compared > 200

    def test_average_ranks_of_ties(self):
        # Ranks of x: 1.5, 1.5, 3, 4.5, 4.5; of y: 1, 2, 3, 4, 5.
        x = [1, 1, 2, 3, 3]
        y = [1, 2, 3, 4, 5]
        ranks = [1.5, 1.5, 3.0, 4.5, 4.5]
        mean = sum(ranks) / len(ranks)
        covariance = sum((a - mean) * (b - 3.0) for a, b in zip(ranks, y))
        spread_x = sum((a - mean) ** 2 for a in ranks) ** 0.5
        spread_y = sum((b - 3.0) ** 2 for b in y) ** 0.5
        expected = covariance / (spread_x * spread_y)
        assert spearman_correlation(x, y) == pytest.approx(expected, abs=1e-12)

    def test_nan_for_constant_or_nan_samples(self):
        assert math.isnan(spearman_correlation([2, 2, 2], [1, 2, 3]))
        assert math.isnan(spearman_correlation([1, 2, float("nan")], [1, 2, 3]))

    def test_early_returns(self):
        analysis = DisclosureAnalysis()
        analysis.consistency_vs_items = [(1, 0.5), (2, 1.0)]
        assert analysis.spearman_consistency_vs_items() == 0.0
        analysis.consistency_vs_items = [(3, 0.1), (3, 0.5), (3, 0.9)]
        assert analysis.spearman_consistency_vs_items() == 0.0
        analysis.consistency_vs_items = [(1, 0.5), (2, 0.5), (4, 0.5)]
        assert analysis.spearman_consistency_vs_items() == 0.0
        analysis.consistency_vs_items = [(1, 0.0), (2, 0.5), (4, 1.0)]
        assert analysis.spearman_consistency_vs_items() == pytest.approx(1.0)
