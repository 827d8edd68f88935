"""Tests for the master ecosystem generator and its calibration."""

from collections import Counter

import pytest

from repro.ecosystem.config import EcosystemConfig
from repro.ecosystem.generator import EcosystemGenerator
from repro.ecosystem.models import ToolType


class TestGeneratorBasics:
    def test_generates_requested_number_of_gpts(self, small_ecosystem, small_config):
        assert small_ecosystem.n_gpts() == small_config.n_gpts

    def test_every_gpt_has_manifest_fields(self, small_ecosystem):
        for gpt in small_ecosystem.iter_gpts():
            assert gpt.gpt_id.startswith("g-")
            assert gpt.name
            assert gpt.description
            assert gpt.author.display_name

    def test_action_gpt_share_close_to_calibration(self, small_ecosystem, small_config):
        share = len(small_ecosystem.action_gpts()) / small_ecosystem.n_gpts()
        target = small_config.tool_adoption["actions"]
        assert abs(share - target) < 0.03

    def test_tool_adoption_close_to_calibration(self, small_ecosystem, small_config):
        n = small_ecosystem.n_gpts()
        browser = sum(1 for gpt in small_ecosystem.iter_gpts() if gpt.has_tool(ToolType.BROWSER)) / n
        dalle = sum(1 for gpt in small_ecosystem.iter_gpts() if gpt.has_tool(ToolType.DALLE)) / n
        assert abs(browser - small_config.tool_adoption["browser"]) < 0.06
        assert abs(dalle - small_config.tool_adoption["dalle"]) < 0.06

    def test_knowledge_tool_implies_files(self, small_ecosystem):
        for gpt in small_ecosystem.iter_gpts():
            if gpt.has_tool(ToolType.KNOWLEDGE):
                assert gpt.files

    def test_actions_registered_globally(self, small_ecosystem):
        for gpt in small_ecosystem.action_gpts():
            for action in gpt.actions():
                assert action.action_id in small_ecosystem.actions

    def test_ground_truth_covers_all_action_parameters(self, small_ecosystem):
        ground_truth = small_ecosystem.ground_truth
        for action_id, action in small_ecosystem.actions.items():
            for parameter in action.parameters():
                assert (action_id, parameter.name) in ground_truth.parameter_labels
            assert action_id in ground_truth.action_collected_types

    def test_policies_reachable_from_actions(self, small_ecosystem):
        available = 0
        total = 0
        for action in small_ecosystem.actions.values():
            assert action.legal_info_url
            total += 1
            if action.legal_info_url in small_ecosystem.policies:
                available += 1
        assert available / total > 0.8

    def test_store_listings_cover_all_stores(self, small_ecosystem, small_config):
        assert set(small_ecosystem.store_listings.keys()) == {
            store.name for store in small_config.stores
        }

    def test_determinism_for_same_seed(self):
        config = EcosystemConfig.paper_calibrated(n_gpts=150, seed=21)
        first = EcosystemGenerator(config).generate()
        second = EcosystemGenerator(EcosystemConfig.paper_calibrated(n_gpts=150, seed=21)).generate()
        assert sorted(first.gpts.keys()) == sorted(second.gpts.keys())
        assert sorted(first.actions.keys()) == sorted(second.actions.keys())

    def test_different_seeds_differ(self):
        first = EcosystemGenerator(EcosystemConfig.paper_calibrated(n_gpts=100, seed=1)).generate()
        second = EcosystemGenerator(EcosystemConfig.paper_calibrated(n_gpts=100, seed=2)).generate()
        assert sorted(first.gpts.keys()) != sorted(second.gpts.keys())


class TestGeneratorCalibration:
    @pytest.fixture(scope="class")
    def larger(self):
        config = EcosystemConfig.paper_calibrated(n_gpts=2500, seed=13)
        return EcosystemGenerator(config).generate(), config

    def test_party_split_close_to_calibration(self, larger):
        ecosystem, config = larger
        parties = Counter(ecosystem.ground_truth.action_party.values())
        total = parties["first"] + parties["third"]
        assert total > 0
        third_share = parties["third"] / total
        assert abs(third_share - config.third_party_action_share) < 0.12

    def test_item_count_calibration(self, larger):
        ecosystem, _ = larger
        counts = [len(types) for types in ecosystem.ground_truth.action_collected_types.values()]
        share_5_plus = sum(1 for count in counts if count >= 5) / len(counts)
        share_10_plus = sum(1 for count in counts if count >= 10) / len(counts)
        assert 0.35 < share_5_plus < 0.65
        assert 0.08 < share_10_plus < 0.35

    def test_multi_action_distribution(self, larger):
        ecosystem, _ = larger
        counts = Counter(len(gpt.actions()) for gpt in ecosystem.action_gpts())
        total = sum(counts.values())
        assert counts[1] / total > 0.75
        assert sum(count for size, count in counts.items() if size >= 2) / total < 0.25

    def test_prevalent_actions_embedded_in_many_gpts(self, larger):
        ecosystem, _ = larger
        embeddings = Counter()
        for gpt in ecosystem.action_gpts():
            for action in gpt.actions():
                embeddings[action.title] += 1
        assert embeddings.get("webPilot", 0) >= 2

    def test_prohibited_collection_share_in_range(self, larger):
        ecosystem, _ = larger
        gpt_offending = 0
        action_gpts = ecosystem.action_gpts()
        for gpt in action_gpts:
            collects_credentials = any(
                category == "Security credentials"
                for action in gpt.actions()
                for category, _ in ecosystem.ground_truth.action_collected_types.get(action.action_id, [])
            )
            if collects_credentials:
                gpt_offending += 1
        share = gpt_offending / len(action_gpts)
        assert 0.02 < share < 0.35


class TestStreamingGeneration:
    """The lazy path must match the eager path draw-for-draw."""

    def test_stream_manifests_identical_to_generate(self):
        config = EcosystemConfig.paper_calibrated(n_gpts=150, seed=21)
        eager = EcosystemGenerator(config).generate()
        stream = EcosystemGenerator(config).stream()
        streamed = list(stream)
        assert stream.n_gpts == 150
        assert [item.manifest.to_json() for item in streamed] == [
            gpt.to_json() for gpt in eager.iter_gpts()
        ]
        assert [item.index for item in streamed] == list(range(150))

    def test_stream_policy_coverage_identical(self):
        config = EcosystemConfig.paper_calibrated(n_gpts=150, seed=21)
        eager = EcosystemGenerator(config).generate()
        stream = EcosystemGenerator(config).stream()
        policies = dict(stream.prevalent_policies)
        unavailable = set(stream.prevalent_unavailable_urls)
        for item in stream:
            policies.update(item.policies)
            unavailable.update(item.unavailable_policy_urls)
        assert set(policies) == set(eager.policies)
        assert all(policies[url].text == eager.policies[url].text for url in policies)
        # Unavailable URLs are exactly the legal_info_urls with no document.
        eager_unavailable = {
            action.legal_info_url
            for action in eager.actions.values()
            if action.legal_info_url and action.legal_info_url not in eager.policies
        }
        assert unavailable == eager_unavailable

    def test_stream_retains_nothing_per_item(self):
        config = EcosystemConfig.paper_calibrated(n_gpts=40, seed=5)
        stream = EcosystemGenerator(config).stream()
        for item in stream:
            # Bespoke policies travel with their item, never accumulate on
            # the stream object.
            assert set(stream.prevalent_policies).isdisjoint(item.policies)


class TestGenerateShardedCorpus:
    def test_direct_ingest_matches_eager_world(self, tmp_path):
        from repro.ecosystem.generator import generate_sharded_corpus

        config = EcosystemConfig.paper_calibrated(n_gpts=120, seed=13)
        store = generate_sharded_corpus(tmp_path / "store", config=config, n_shards=4)
        eager = EcosystemGenerator(config).generate()

        corpus = store.load_corpus()
        assert set(corpus.gpts) == set(eager.gpts)
        # Every action with an available policy resolves to its text; every
        # withheld policy is recorded as the crawl-observable HTTP 500.
        for action in eager.actions.values():
            url = action.legal_info_url
            if not url:
                continue
            if url in eager.policies:
                assert corpus.policy_text(url) == eager.policies[url].text
            else:
                assert corpus.policies[url].status == 500
                assert corpus.policy_text(url) is None

    def test_direct_ingest_is_deterministic(self, tmp_path):
        from repro.ecosystem.generator import generate_sharded_corpus

        config = EcosystemConfig.paper_calibrated(n_gpts=80, seed=3)
        first = generate_sharded_corpus(tmp_path / "a", config=config, n_shards=3)
        second = generate_sharded_corpus(tmp_path / "b", config=config, n_shards=3)
        assert first.fingerprint() == second.fingerprint()

    def test_streaming_analysis_over_direct_ingest(self, tmp_path):
        from repro.analysis import analyze_crawl_stats
        from repro.analysis.streaming import ShardAnalysisRunner
        from repro.ecosystem.generator import generate_sharded_corpus

        config = EcosystemConfig.paper_calibrated(n_gpts=120, seed=13)
        store = generate_sharded_corpus(tmp_path / "store", config=config, n_shards=4)
        with ShardAnalysisRunner(store, workers=2) as runner:
            streamed = runner.run(["crawl_stats"])
        single = analyze_crawl_stats(store.load_corpus())
        assert streamed["crawl_stats"] == single
        assert single.total_unique_gpts == 120
