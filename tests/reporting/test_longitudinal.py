"""Tests for the longitudinal epoch-churn views (``repro.reporting.longitudinal``).

The report must agree with the :class:`EpochDelta` ground truth that
produced the epochs: records the evolution added/removed/changed show up in
exactly those columns, content-identical records never count as churn even
though their ``discovery_index``/``source_stores`` stamps moved, and both
in-memory corpora and sharded stores are accepted as epoch sources.
"""

from __future__ import annotations

import pytest

from repro.crawler.pipeline import CrawlPipeline
from repro.crawler.transport import TransportConfig
from repro.ecosystem.config import EcosystemConfig
from repro.ecosystem.evolution import evolve_ecosystem
from repro.ecosystem.generator import EcosystemGenerator
from repro.reporting.longitudinal import (
    analyze_epochs,
    render_longitudinal,
)

N_GPTS = 120
SEED = 7


@pytest.fixture(scope="module")
def epoch_data(tmp_path_factory):
    config = EcosystemConfig.paper_calibrated(n_gpts=N_GPTS, seed=SEED)
    base = EcosystemGenerator(config).generate()
    evolved = evolve_ecosystem(base, config, epoch=1)

    def crawl(world):
        return CrawlPipeline.from_ecosystem(
            world, seed=SEED, transport_config=TransportConfig(max_attempts=3, seed=SEED)
        ).run()

    def crawl_sharded(world, name):
        root = tmp_path_factory.mktemp(name)
        return CrawlPipeline.from_ecosystem(
            world,
            seed=SEED,
            transport_config=TransportConfig(max_attempts=3, seed=SEED),
            shards=3,
        ).run_sharded(root / "store")

    return {
        "delta": evolved.delta,
        "corpora": [crawl(base), crawl(evolved.ecosystem)],
        "stores": [crawl_sharded(base, "e0"), crawl_sharded(evolved.ecosystem, "e1")],
    }


class TestAnalyzeEpochs:
    def test_agrees_with_evolution_delta(self, epoch_data):
        report = analyze_epochs(epoch_data["corpora"])
        assert len(report.transitions) == 1
        transition = report.transitions[0]
        delta = epoch_data["delta"]

        resolved_0 = {gpt.gpt_id for gpt in epoch_data["corpora"][0].iter_records()}
        resolved_1 = {gpt.gpt_id for gpt in epoch_data["corpora"][1].iter_records()}
        assert transition.epoch == 1
        assert transition.n_records == len(resolved_1)
        assert transition.records_added == len(resolved_1 - resolved_0)
        assert transition.records_removed == len(resolved_0 - resolved_1)
        # Content churn in both epochs' resolved sets: re-described or
        # Action-churned records (additions are counted as added).
        expected_changed = (
            set(delta.redescribed_gpt_ids) | set(delta.action_changed_gpt_ids)
        ) & resolved_0 & resolved_1
        assert transition.records_changed == len(expected_changed)
        assert 0.0 < transition.churn_rate < 0.5
        assert transition.records_carried == (
            transition.n_records - transition.records_added - transition.records_changed
        )

    def test_policy_drift_detected(self, epoch_data):
        report = analyze_epochs(epoch_data["corpora"])
        transition = report.transitions[0]
        # Every drifted URL that was fetched in both epochs counts once.
        fetched = set(epoch_data["corpora"][0].policies) & set(
            epoch_data["corpora"][1].policies
        )
        expected = {u for u in epoch_data["delta"].changed_policy_urls if u in fetched}
        assert transition.policies_drifted >= len(expected)
        assert 0.0 < transition.policy_availability <= 1.0

    def test_sharded_stores_match_corpora(self, epoch_data):
        from_corpora = analyze_epochs(epoch_data["corpora"])
        from_stores = analyze_epochs(epoch_data["stores"])
        assert from_stores.transitions == from_corpora.transitions

    def test_mixed_layouts_match_corpora(self, epoch_data):
        """Raw-line store keys equal in-memory payload keys, in either order."""
        corpora, stores = epoch_data["corpora"], epoch_data["stores"]
        from_corpora = analyze_epochs(corpora)
        assert analyze_epochs([corpora[0], stores[1]]).transitions == from_corpora.transitions
        assert analyze_epochs([stores[0], corpora[1]]).transitions == from_corpora.transitions
        same_epoch = analyze_epochs([stores[0], corpora[0]]).transitions[0]
        assert (same_epoch.records_added, same_epoch.records_removed) == (0, 0)
        assert same_epoch.records_changed == 0

    def test_identical_epochs_zero_churn(self, epoch_data):
        corpus = epoch_data["corpora"][0]
        report = analyze_epochs([corpus, corpus])
        transition = report.transitions[0]
        assert transition.records_added == 0
        assert transition.records_removed == 0
        assert transition.records_changed == 0
        assert transition.policies_drifted == 0
        assert transition.churn_rate == 0.0

    def test_needs_two_epochs(self, epoch_data):
        with pytest.raises(ValueError, match="at least two epochs"):
            analyze_epochs([epoch_data["corpora"][0]])


class TestRendering:
    def test_table_and_summaries(self, epoch_data):
        report = analyze_epochs(epoch_data["corpora"], first_epoch=1)
        table = render_longitudinal(report)
        assert "Epoch" in table and "Churn" in table and "Availability" in table
        lines = report.summary_lines()
        assert len(lines) == 1
        assert lines[0].startswith("epoch 1:")
        assert len(report.availability_series()) == 1
        assert report.total_records_changed == (
            report.transitions[0].records_added + report.transitions[0].records_changed
        )
