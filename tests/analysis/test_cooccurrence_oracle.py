"""The co-occurrence graph against networkx, the library it replaced.

:class:`~repro.analysis.cooccurrence.CooccurrenceAnalysis` keeps a plain
adjacency map.  Built from the same edge-weight map, every method must
return what the ``nx.Graph`` code returned, orders included: ties in
weighted degree, partner weight and component size break in node order.
networkx is only a test oracle here, so the test skips without it.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.cooccurrence import CooccurrenceAccumulator

nx = pytest.importorskip("networkx")

NODES = [f"a{index:02d}" for index in range(10)]
#: Every unordered node pair as ``(smaller, larger)``, the accumulator's key.
PAIRS = [(a, b) for index, a in enumerate(NODES) for b in NODES[index + 1 :]]

#: Sparse ``(a, b) → weight`` maps over few nodes and small weights, so
#: isolated pairs, equal-sized components and weight ties are common.
edge_maps = st.dictionaries(
    st.sampled_from(PAIRS), st.integers(min_value=1, max_value=3), max_size=14
)


def _networkx_graph(edge_weights):
    """The graph the networkx code built: edges added in sorted order."""
    graph = nx.Graph()
    for action_a, action_b in sorted(edge_weights):
        graph.add_edge(action_a, action_b, weight=edge_weights[(action_a, action_b)])
    return graph


def _networkx_top(graph, names, n):
    ranked = sorted(
        ((node, int(graph.degree(node, weight="weight"))) for node in graph.nodes),
        key=lambda item: -item[1],
    )
    return [(node, names.get(node, node), weight) for node, weight in ranked[:n]]


def _networkx_partners(graph, names, node):
    if node not in graph:
        return []
    partners = [
        (neighbor, names.get(neighbor, neighbor), int(graph[node][neighbor]["weight"]))
        for neighbor in graph.neighbors(node)
    ]
    partners.sort(key=lambda item: -item[2])
    return partners


def _networkx_largest_component(graph):
    """The largest component's nodes, in node order (first found on a tie)."""
    if graph.number_of_nodes() == 0:
        return []
    largest = max(nx.connected_components(graph), key=len)
    return [node for node in graph.nodes if node in largest]


@settings(max_examples=300, deadline=None)
@given(edge_weights=edge_maps, named=st.sets(st.sampled_from(NODES)))
@example(edge_weights={}, named=set())
# Two isolated pairs: equal-sized components, the first found must win.
@example(edge_weights={("a05", "a06"): 1, ("a01", "a02"): 1}, named=set())
# Two equal triangles whose nodes interleave in sorted order, and weight ties.
@example(
    edge_weights={
        ("a00", "a02"): 2,
        ("a00", "a04"): 2,
        ("a02", "a04"): 1,
        ("a01", "a03"): 2,
        ("a01", "a05"): 2,
        ("a03", "a05"): 1,
    },
    named={"a00", "a03"},
)
def test_matches_networkx(edge_weights, named):
    accumulator = CooccurrenceAccumulator()
    accumulator.names = {node: f"Action {node}" for node in sorted(named)}
    accumulator.edge_weights = dict(edge_weights)
    analysis = accumulator.finalize()
    graph = _networkx_graph(edge_weights)
    names = analysis.names

    assert analysis.n_nodes == graph.number_of_nodes()
    assert analysis.n_edges == graph.number_of_edges()
    assert list(analysis.neighbors) == list(graph.nodes)
    for node in NODES:
        present = node in graph
        assert analysis.weighted_degree(node) == (
            int(graph.degree(node, weight="weight")) if present else 0
        )
        assert analysis.degree(node) == (int(graph.degree(node)) if present else 0)
        assert analysis.partners_of(node) == _networkx_partners(graph, names, node)
        for other in NODES:
            expected = (
                int(graph[node][other]["weight"]) if graph.has_edge(node, other) else 0
            )
            assert analysis.cooccurrence_count(node, other) == expected
    for n in (1, 3, len(NODES) + 1):
        assert analysis.top_by_weighted_degree(n) == _networkx_top(graph, names, n)
    assert analysis.largest_component() == _networkx_largest_component(graph)
