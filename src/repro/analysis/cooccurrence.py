"""Action co-occurrence graph analysis (Figure 8, Section 4.4.2).

Builds an undirected weighted graph whose nodes are Actions and whose edges
connect Actions that co-occur inside the same GPT; edge weights count the
number of GPTs in which the pair co-occurs.  The paper analyzes weighted
degrees, the largest connected component, and which Actions co-occur most
often with the advertising/analytics services.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.io import CorpusSource


@dataclass
class CooccurrenceAnalysis:
    """The co-occurrence graph and derived statistics."""

    #: Adjacency map: action id → {partner id → co-occurrence count}.  Node
    #: order, and each node's partner order, is the order edges first name
    #: them; ties in :meth:`top_by_weighted_degree`, :meth:`partners_of`
    #: and :meth:`largest_component` break in that order.
    neighbors: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Action id → human-readable name (for labelling prominent nodes).
    names: Dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of Actions appearing in at least one co-occurrence."""
        return len(self.neighbors)

    @property
    def n_edges(self) -> int:
        """Number of distinct co-occurring Action pairs."""
        return sum(len(partners) for partners in self.neighbors.values()) // 2

    def weighted_degree(self, action_id: str) -> int:
        """Weighted degree (sum of co-occurrence counts) of an Action."""
        return sum(self.neighbors.get(action_id, {}).values())

    def degree(self, action_id: str) -> int:
        """Unweighted degree (number of distinct partners) of an Action."""
        return len(self.neighbors.get(action_id, ()))

    def top_by_weighted_degree(self, n: int = 10) -> List[Tuple[str, str, int]]:
        """The ``n`` Actions with the highest weighted degree."""
        ranked = sorted(
            ((node, self.weighted_degree(node)) for node in self.neighbors),
            key=lambda item: -item[1],
        )
        return [
            (action_id, self.names.get(action_id, action_id), weight)
            for action_id, weight in ranked[:n]
        ]

    def largest_component(self) -> List[str]:
        """Node ids of the largest connected component, in node order.

        This is the subgraph Figure 8 plots.  Components are found by a
        walk from each unseen node in node order; of equal-sized
        components, the one found first wins.
        """
        seen: Set[str] = set()
        largest: Set[str] = set()
        for start in self.neighbors:
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            while frontier:
                for partner in self.neighbors[frontier.pop()]:
                    if partner not in component:
                        component.add(partner)
                        frontier.append(partner)
            seen |= component
            if len(component) > len(largest):
                largest = component
        return [node for node in self.neighbors if node in largest]

    def cooccurrence_count(self, action_a: str, action_b: str) -> int:
        """In how many GPTs two Actions co-occur."""
        return self.neighbors.get(action_a, {}).get(action_b, 0)

    def partners_of(self, action_id: str) -> List[Tuple[str, str, int]]:
        """Partners of an Action sorted by co-occurrence weight."""
        partners = [
            (neighbor, self.names.get(neighbor, neighbor), weight)
            for neighbor, weight in self.neighbors.get(action_id, {}).items()
        ]
        partners.sort(key=lambda item: -item[2])
        return partners

    def find_by_name(self, name: str) -> Optional[str]:
        """Find an Action id by (case-insensitive) name substring."""
        wanted = name.lower()
        for action_id, action_name in self.names.items():
            if wanted in action_name.lower():
                return action_id
        return None


class CooccurrenceAccumulator:
    """Streaming builder of :class:`CooccurrenceAnalysis`.

    Accumulates edge weights as a plain ``(a, b) → count`` map (O(#pairs))
    and builds the adjacency map only at :meth:`finalize`, adding edges in
    sorted order so sharded and unsharded runs build identical graphs.
    """

    def __init__(self) -> None:
        #: action id → title, first occurrence wins (titles are identical
        #: across embeddings of the same Action).
        self.names: Dict[str, str] = {}
        self.edge_weights: Dict[Tuple[str, str], int] = {}

    def update(self, gpt) -> None:
        """Fold one GPT's Action pairs into the edge weights."""
        for action in gpt.actions:
            self.names.setdefault(action.action_id, action.title)
        action_ids = sorted({action.action_id for action in gpt.actions})
        if len(action_ids) < 2:
            return
        for index, action_a in enumerate(action_ids):
            for action_b in action_ids[index + 1:]:
                key = (action_a, action_b)
                self.edge_weights[key] = self.edge_weights.get(key, 0) + 1

    def merge(self, other: "CooccurrenceAccumulator") -> None:
        """Fold another shard's partial edge weights into this one."""
        for action_id, title in other.names.items():
            self.names.setdefault(action_id, title)
        for key, weight in other.edge_weights.items():
            self.edge_weights[key] = self.edge_weights.get(key, 0) + weight

    def finalize(self) -> CooccurrenceAnalysis:
        """Build the adjacency map (edges added in canonical order)."""
        analysis = CooccurrenceAnalysis()
        for action_id in sorted(self.names):
            analysis.names[action_id] = self.names[action_id]
        neighbors = analysis.neighbors
        for (action_a, action_b) in sorted(self.edge_weights):
            weight = self.edge_weights[(action_a, action_b)]
            # ``action_a`` is registered before ``action_b``: node order.
            neighbors.setdefault(action_a, {})[action_b] = weight
            neighbors.setdefault(action_b, {})[action_a] = weight
        return analysis


def analyze_cooccurrence(corpus: CorpusSource) -> CooccurrenceAnalysis:
    """Build the Action co-occurrence graph for a corpus."""
    accumulator = CooccurrenceAccumulator()
    for gpt in corpus.iter_records():
        accumulator.update(gpt)
    return accumulator.finalize()
