"""Tests for manifest parsing, the crawl corpus, and the end-to-end pipeline."""

import json


from repro.crawler.corpus import CrawlCorpus, CrawledAction, CrawledGPT
from repro.crawler.pipeline import CrawlPipeline
from repro.crawler.policy_fetcher import PolicyFetchResult
from repro.ecosystem.models import ToolType


class TestCrawledGPTParsing:
    def test_parse_manifest_roundtrip(self, small_ecosystem):
        gpt = next(iter(small_ecosystem.action_gpts()))
        manifest = json.loads(gpt.to_json())
        crawled = CrawledGPT.from_manifest(manifest, source_store="test-store")
        assert crawled.gpt_id == gpt.gpt_id
        assert crawled.name == gpt.name
        assert crawled.author_name == gpt.author.display_name
        assert crawled.has_actions == bool(gpt.actions())
        assert crawled.source_stores == ["test-store"]
        assert len(crawled.actions) == len(gpt.actions())

    def test_parsed_action_preserves_parameters(self, small_ecosystem):
        gpt = next(iter(small_ecosystem.action_gpts()))
        action = gpt.actions()[0]
        crawled = CrawledGPT.from_manifest(json.loads(gpt.to_json()))
        crawled_action = crawled.actions[0]
        assert crawled_action.action_id == action.action_id
        assert crawled_action.server_url == action.server_url
        assert crawled_action.legal_info_url == action.legal_info_url
        assert len(crawled_action.parameters) == len(action.parameters())
        assert crawled_action.data_descriptions() == action.data_descriptions()

    def test_tool_type_detection(self, small_ecosystem):
        gpt = next(gpt for gpt in small_ecosystem.iter_gpts() if gpt.has_tool(ToolType.BROWSER))
        crawled = CrawledGPT.from_manifest(json.loads(gpt.to_json()))
        assert crawled.has_tool("browser")

    def test_parse_tolerates_missing_fields(self):
        crawled = CrawledGPT.from_manifest({"gizmo": {"id": "g-x"}, "tools": [{"type": "browser"}]})
        assert crawled.gpt_id == "g-x"
        assert crawled.tool_types == ["browser"]
        assert crawled.actions == []

    def test_empty_description_falls_back_to_name(self):
        action = CrawledAction(
            action_id="a", title="t", description="", server_url="https://x.example",
            legal_info_url=None, functionality="", auth_type="none",
            parameters=[("dbconfig", "null"), ("query", "The search query")],
        )
        descriptions = action.data_descriptions()
        assert descriptions[0] == "dbconfig"
        assert descriptions[1] == "query: The search query"


class TestCrawlCorpus:
    def test_policy_text_lookup(self):
        corpus = CrawlCorpus()
        corpus.policies["https://x.example/p"] = PolicyFetchResult(
            url="https://x.example/p", status=200, text="policy"
        )
        corpus.policies["https://x.example/broken"] = PolicyFetchResult(
            url="https://x.example/broken", status=500, error="HTTP 500"
        )
        assert corpus.policy_text("https://x.example/p") == "policy"
        assert corpus.policy_text("https://x.example/broken") is None
        assert corpus.policy_text(None) is None
        assert corpus.policy_text("https://unknown.example") is None


class TestCrawlPipeline:
    def test_pipeline_recovers_all_public_gpts(self, small_ecosystem, small_corpus):
        assert len(small_corpus.gpts) == small_ecosystem.n_gpts()
        assert set(small_corpus.gpts.keys()) == set(small_ecosystem.gpts.keys())

    def test_dead_links_unresolved(self, small_corpus):
        assert small_corpus.unresolved_gpt_ids
        assert all(gpt_id.startswith("g-dead") for gpt_id in small_corpus.unresolved_gpt_ids)

    def test_unique_actions_match_ecosystem(self, small_ecosystem, small_corpus):
        assert small_corpus.n_unique_actions() == len(
            {a.action_id for gpt in small_ecosystem.action_gpts() for a in gpt.actions()}
        )

    def test_store_counts_cover_all_stores(self, small_ecosystem, small_corpus):
        assert set(small_corpus.store_counts) == set(small_ecosystem.store_listings.keys())
        largest_store = max(small_corpus.store_counts, key=small_corpus.store_counts.get)
        assert largest_store == "Casanpir GitHub GPT List"

    def test_policy_availability_in_expected_range(self, small_corpus):
        availability = small_corpus.policy_availability()
        assert 0.75 <= availability <= 1.0

    def test_statistics_populated(self, small_ecosystem):
        pipeline = CrawlPipeline.from_ecosystem(small_ecosystem, seed=3)
        corpus = pipeline.run()
        stats = pipeline.statistics
        assert stats.n_unique_identifiers >= len(corpus.gpts)
        assert stats.n_resolved == len(corpus.gpts)
        assert stats.n_http_requests > 0
        assert 0.9 <= stats.resolution_rate <= 1.0

    def test_corpus_summary_mentions_counts(self, small_corpus):
        summary = small_corpus.summary()
        assert "GPTs" in summary and "Actions" in summary
