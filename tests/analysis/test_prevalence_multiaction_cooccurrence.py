"""Tests for prevalent-Action, multi-Action, and co-occurrence analyses."""

import pytest

from repro.analysis.cooccurrence import analyze_cooccurrence
from repro.analysis.multiaction import analyze_multi_action
from repro.analysis.prevalence import analyze_prevalence


class TestPrevalenceAnalysis:
    def test_rows_sorted_by_share(self, suite, suite_classification):
        analysis = analyze_prevalence(suite.corpus, suite_classification, suite.party_index)
        shares = [row.gpt_share for row in analysis.rows]
        assert shares == sorted(shares, reverse=True)

    def test_prevalent_catalogue_actions_detected(self, suite, suite_classification):
        analysis = analyze_prevalence(suite.corpus, suite_classification, suite.party_index)
        names = " ".join(row.name for row in analysis.rows)
        assert "webPilot" in names or "Zapier" in names

    def test_rows_only_third_party_and_min_gpts(self, suite, suite_classification):
        analysis = analyze_prevalence(
            suite.corpus, suite_classification, suite.party_index, min_gpts=2, third_party_only=True
        )
        for row in analysis.rows:
            assert row.n_gpts >= 2
            assert suite.party_index.party_of_action(row.action_id) == "third"

    def test_shares_relative_to_action_gpts(self, suite, suite_classification):
        analysis = analyze_prevalence(suite.corpus, suite_classification, suite.party_index)
        for row in analysis.rows:
            assert row.gpt_share == pytest.approx(row.n_gpts / analysis.n_action_gpts)

    def test_row_lookup_by_name(self, suite, suite_classification):
        analysis = analyze_prevalence(suite.corpus, suite_classification, suite.party_index)
        if analysis.rows:
            first = analysis.rows[0]
            assert analysis.row_by_name(first.name.split()[0]) is not None
        assert analysis.row_by_name("definitely-not-an-action") is None


class TestMultiActionAnalysis:
    def test_distribution_sums_to_action_gpts(self, suite):
        analysis = analyze_multi_action(suite.corpus)
        assert sum(analysis.action_count_distribution.values()) == analysis.n_action_gpts

    def test_single_action_dominates(self, suite):
        analysis = analyze_multi_action(suite.corpus)
        assert analysis.share_with_n_actions(1) > 0.7
        assert analysis.share_with_at_least(2) < 0.3
        assert analysis.share_with_at_least(1) == pytest.approx(1.0)

    def test_cross_domain_share_bounded(self, suite):
        analysis = analyze_multi_action(suite.corpus)
        assert 0.0 <= analysis.cross_domain_share <= 1.0

    def test_cooccurring_share_bounded(self, suite):
        analysis = analyze_multi_action(suite.corpus)
        assert 0.0 <= analysis.cooccurring_action_share <= 1.0

    def test_empty_corpus(self):
        from repro.crawler.corpus import CrawlCorpus

        analysis = analyze_multi_action(CrawlCorpus())
        assert analysis.n_action_gpts == 0
        assert analysis.share_with_n_actions(1) == 0.0


class TestCooccurrenceAnalysis:
    def test_graph_edges_come_from_multi_action_gpts(self, suite):
        cooccurrence = analyze_cooccurrence(suite.corpus)
        multi = analyze_multi_action(suite.corpus)
        multi_action_gpts = sum(
            count for size, count in multi.action_count_distribution.items() if size >= 2
        )
        if multi_action_gpts == 0:
            assert cooccurrence.n_edges == 0
        else:
            assert cooccurrence.n_edges >= 1

    def test_edge_weights_positive(self, suite):
        cooccurrence = analyze_cooccurrence(suite.corpus)
        for partners in cooccurrence.neighbors.values():
            for weight in partners.values():
                assert weight >= 1

    def test_weighted_degree_at_least_degree(self, suite):
        cooccurrence = analyze_cooccurrence(suite.corpus)
        for node in cooccurrence.neighbors:
            assert cooccurrence.weighted_degree(node) >= cooccurrence.degree(node)

    def test_top_hubs_and_partners(self, suite):
        cooccurrence = analyze_cooccurrence(suite.corpus)
        hubs = cooccurrence.top_by_weighted_degree(5)
        assert len(hubs) <= 5
        if hubs:
            action_id, name, weight = hubs[0]
            assert weight >= 1
            partners = cooccurrence.partners_of(action_id)
            assert partners
            assert sum(count for _, _, count in partners) == weight

    def test_largest_component_is_connected_subgraph(self, suite):
        cooccurrence = analyze_cooccurrence(suite.corpus)
        component = cooccurrence.largest_component()
        if component:
            reached = {component[0]}
            frontier = [component[0]]
            while frontier:
                for partner in cooccurrence.neighbors[frontier.pop()]:
                    if partner not in reached:
                        reached.add(partner)
                        frontier.append(partner)
            assert reached == set(component)

    def test_unknown_nodes_have_zero_degree(self, suite):
        cooccurrence = analyze_cooccurrence(suite.corpus)
        assert cooccurrence.weighted_degree("missing") == 0
        assert cooccurrence.cooccurrence_count("missing", "also-missing") == 0
        assert cooccurrence.partners_of("missing") == []
