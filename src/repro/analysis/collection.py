"""Data-collection trend analysis (Table 4, Figure 7, Section 4.2.1).

Given the classification result, measures which data types are collected by
first- and third-party Actions, how many distinct data items each Action
collects, and the headline statistics the paper reports (≈50% of Actions
collect 5+ items, ≈20% collect 10+, third-party Actions collect ≈6% more on
average).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.party import ActionPartyIndex, build_party_index
from repro.classification.results import ClassificationResult
from repro.io import CorpusSource


@dataclass(frozen=True)
class DataTypeCollectionRow:
    """One row of Table 4."""

    category: str
    data_type: str
    first_party_share: float
    third_party_share: float
    gpt_share: float

    def as_tuple(self) -> Tuple[str, str, float, float, float]:
        """The row as a plain tuple (for table rendering)."""
        return (
            self.category,
            self.data_type,
            self.first_party_share,
            self.third_party_share,
            self.gpt_share,
        )


@dataclass
class CollectionAnalysis:
    """Corpus-wide data-collection statistics."""

    #: Distinct data items per Action id.
    items_per_action: Dict[str, int] = field(default_factory=dict)
    #: Action id → party ("first"/"third").
    action_party: Dict[str, str] = field(default_factory=dict)
    #: Table 4 rows (all observed data types).
    rows: List[DataTypeCollectionRow] = field(default_factory=list)
    #: Fraction of Action-embedding GPTs collecting data per category.
    category_gpt_shares: Dict[str, float] = field(default_factory=dict)
    n_action_gpts: int = 0

    # ------------------------------------------------------------------
    def item_counts(self, party: Optional[str] = None) -> List[int]:
        """Distinct item counts per Action, optionally filtered by party."""
        counts = []
        for action_id, count in self.items_per_action.items():
            if party is not None and self.action_party.get(action_id) != party:
                continue
            counts.append(count)
        return counts

    def share_with_at_least(self, threshold: int, party: Optional[str] = None) -> float:
        """Fraction of Actions collecting at least ``threshold`` data items."""
        counts = self.item_counts(party)
        if not counts:
            return 0.0
        return sum(1 for count in counts if count >= threshold) / len(counts)

    def mean_items(self, party: Optional[str] = None) -> float:
        """Mean number of distinct data items per Action."""
        counts = self.item_counts(party)
        return float(np.mean(counts)) if counts else 0.0

    def third_party_excess(self) -> float:
        """Relative excess of third- over first-party mean item counts.

        The paper reports third-party Actions collecting 6.03% more data on
        average (Section 4.2.1).
        """
        first = self.mean_items("first")
        third = self.mean_items("third")
        if first <= 0:
            return 0.0
        return (third - first) / first

    def item_count_cdf(self, party: Optional[str] = None) -> List[Tuple[int, float]]:
        """The CDF plotted in Figure 7 as ``(count, fraction ≤ count)`` points."""
        counts = sorted(self.item_counts(party))
        if not counts:
            return []
        total = len(counts)
        cdf: List[Tuple[int, float]] = []
        for threshold in range(0, max(counts) + 1):
            cdf.append((threshold, sum(1 for count in counts if count <= threshold) / total))
        return cdf

    def top_rows(self, min_gpt_share: float = 0.001) -> List[DataTypeCollectionRow]:
        """Rows whose GPT share clears the paper's 0.1% frequency threshold."""
        return [row for row in self.rows if row.gpt_share >= min_gpt_share]

    def row_for(self, category: str, data_type: str) -> Optional[DataTypeCollectionRow]:
        """Look up one Table 4 row."""
        for row in self.rows:
            if row.category == category and row.data_type == data_type:
                return row
        return None

    def n_categories_observed(self) -> int:
        """Number of distinct categories observed in the corpus."""
        return len({row.category for row in self.rows})

    def n_types_observed(self) -> int:
        """Number of distinct data types observed in the corpus."""
        return len({(row.category, row.data_type) for row in self.rows})


class CollectionAccumulator:
    """Streaming builder of the per-GPT half of :class:`CollectionAnalysis`.

    ``collected_by_action`` (the classification rollup) is a fixed lookup
    shared by every shard worker; the accumulator itself only keeps type /
    category counters and the set of Action ids seen, so memory is bounded
    by the number of distinct Actions and data types, never by the corpus.
    :meth:`finalize` is order-canonical (sorted key iteration), making
    sharded and unsharded runs byte-identical.
    """

    def __init__(self, collected_by_action: Dict[str, List[Tuple[str, str]]]) -> None:
        self.collected_by_action = collected_by_action
        self.n_action_gpts = 0
        self.gpt_counts: Counter = Counter()
        self.category_gpt_counts: Counter = Counter()
        self.seen_action_ids: set = set()

    def update(self, gpt_id: str, action_ids: Sequence[str]) -> None:
        """Fold one GPT's collected-type footprint into the counters.

        Takes all this analysis reads of a GPT record: its id and the ids
        of its Actions.  :func:`analyze_collection` passes that projection
        of each record; the shard runner folds the party index's
        ``(gpt id, action id)`` embeddings instead of re-reading records.
        """
        if not action_ids:
            return
        self.n_action_gpts += 1
        gpt_types = set()
        gpt_categories = set()
        for action_id in action_ids:
            self.seen_action_ids.add(action_id)
            for key in self.collected_by_action.get(action_id, []):
                gpt_types.add(key)
                gpt_categories.add(key[0])
        for key in gpt_types:
            self.gpt_counts[key] += 1
        for category in gpt_categories:
            self.category_gpt_counts[category] += 1

    def merge(self, other: "CollectionAccumulator") -> None:
        """Fold another shard's partial counters into this one."""
        self.n_action_gpts += other.n_action_gpts
        self.gpt_counts.update(other.gpt_counts)
        self.category_gpt_counts.update(other.category_gpt_counts)
        self.seen_action_ids.update(other.seen_action_ids)

    def finalize(self, party_index: ActionPartyIndex) -> CollectionAnalysis:
        """Combine the streamed counters with the action-level rollups."""
        analysis = CollectionAnalysis()
        collected_by_action = self.collected_by_action
        for action_id, types in collected_by_action.items():
            analysis.items_per_action[action_id] = len(types)
            analysis.action_party[action_id] = party_index.party_of_action(action_id)

        # Actions that appear in the corpus but whose descriptions all fell to
        # ``Other`` still count as Actions collecting zero classified items.
        for action_id in sorted(self.seen_action_ids):
            analysis.items_per_action.setdefault(action_id, 0)
            analysis.action_party.setdefault(action_id, party_index.party_of_action(action_id))

        first_actions = [a for a, party in analysis.action_party.items() if party == "first"]
        third_actions = [a for a, party in analysis.action_party.items() if party == "third"]
        analysis.n_action_gpts = self.n_action_gpts

        # Per-type collection shares (action-level: no GPT iteration needed).
        first_counts: Counter = Counter()
        third_counts: Counter = Counter()
        for action_id, types in collected_by_action.items():
            target = (
                first_counts if analysis.action_party.get(action_id) == "first" else third_counts
            )
            for key in types:
                target[key] += 1

        observed_types = set(first_counts) | set(third_counts) | set(self.gpt_counts)
        n_first = max(1, len(first_actions))
        n_third = max(1, len(third_actions))
        n_gpts = max(1, self.n_action_gpts)
        rows = []
        for category, data_type in sorted(observed_types):
            rows.append(
                DataTypeCollectionRow(
                    category=category,
                    data_type=data_type,
                    first_party_share=first_counts[(category, data_type)] / n_first,
                    third_party_share=third_counts[(category, data_type)] / n_third,
                    gpt_share=self.gpt_counts[(category, data_type)] / n_gpts,
                )
            )
        rows.sort(key=lambda row: -row.gpt_share)
        analysis.rows = rows
        analysis.category_gpt_shares = {
            category: self.category_gpt_counts[category] / n_gpts
            for category in sorted(self.category_gpt_counts)
        }
        return analysis


def analyze_collection(
    corpus: CorpusSource,
    classification: ClassificationResult,
    party_index: Optional[ActionPartyIndex] = None,
) -> CollectionAnalysis:
    """Compute Table 4 / Figure 7 statistics from a classified corpus."""
    party_index = party_index or build_party_index(corpus)
    accumulator = CollectionAccumulator(classification.action_data_types())
    for gpt in corpus.iter_records():
        accumulator.update(gpt.gpt_id, [action.action_id for action in gpt.actions])
    return accumulator.finalize(party_index)
