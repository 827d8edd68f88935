"""Benchmark E-F8 — Figure 8: Action co-occurrence graph."""

from repro.analysis.cooccurrence import analyze_cooccurrence
from repro.analysis.multiaction import analyze_multi_action


def test_bench_figure8(benchmark, suite):
    cooccurrence = benchmark(analyze_cooccurrence, suite.corpus)
    multi = analyze_multi_action(suite.corpus)

    # Multi-Action GPTs produce a non-trivial co-occurrence graph.
    assert cooccurrence.n_nodes > 0
    assert cooccurrence.n_edges > 0
    # Widely-embedded third-party services (webPilot, AdIntelli, Zapier, …)
    # co-occur with other Actions across GPTs.  At the synthetic corpus scale
    # their weighted degrees are in the single digits (the paper's 93/29 come
    # from a 119K-GPT crawl), but the structural property — prevalent services
    # acting as cross-GPT connectors — must hold.
    prevalent_ids = [
        action_id
        for name in ("webPilot", "AdIntelli", "Zapier", "Gapier", "Link Reader", "Adzedek")
        if (action_id := cooccurrence.find_by_name(name)) is not None
        and action_id in cooccurrence.neighbors
    ]
    assert prevalent_ids, "at least one prevalent Action must appear in the graph"
    best_prevalent = max(cooccurrence.weighted_degree(action_id) for action_id in prevalent_ids)
    assert best_prevalent >= 2
    # The largest connected component contains the top hub.
    hubs = cooccurrence.top_by_weighted_degree(6)
    component = cooccurrence.largest_component()
    assert hubs[0][0] in component
    assert len(component) >= 3
    # A noticeable share of Actions co-occur with at least one other Action
    # (paper: 23.9%).
    assert 0.05 <= multi.cooccurring_action_share <= 0.7
