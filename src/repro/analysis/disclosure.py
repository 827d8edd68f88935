"""Disclosure-consistency analysis (Figures 9–12, Table 7, Section 5.2).

Aggregates the privacy-policy framework's output into:

* per-category and per-data-type label distributions (Figures 9 and 10);
* the per-Action CDF of label fractions (Figure 11);
* per-Action consistency versus collected-item count with the Spearman
  correlation the paper reports (Figure 12, :func:`spearman_correlation`);
* the Actions with five or more clearly disclosed data types (Table 7) and the
  share of Actions whose whole data collection is consistent (Section 5.2.3).

:class:`DisclosureAccumulator` is the streaming core: per-Action analyses
(:class:`~repro.policy.framework.ActionPolicyAnalysis`) fold in one at a
time — in **any** order — and :meth:`~DisclosureAccumulator.finalize` emits
an order-canonical :class:`DisclosureAnalysis` (actions, categories, and
data types iterate sorted, ties broken by id).  That is what lets the
shard-partitioned policy analyzer (:mod:`repro.analysis.streaming`) compute
disclosure over policy shards, where Actions arrive in shard order, and
still match the in-memory path byte for byte: :func:`analyze_disclosure`
runs on the same accumulator, so both paths share one canonical ordering.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.crawler.corpus import CrawlCorpus
from repro.policy.framework import PolicyConsistencyReport
from repro.policy.labels import ConsistencyLabel

#: Label order used for rendering distributions.
LABEL_ORDER: Tuple[ConsistencyLabel, ...] = (
    ConsistencyLabel.CLEAR,
    ConsistencyLabel.VAGUE,
    ConsistencyLabel.AMBIGUOUS,
    ConsistencyLabel.INCORRECT,
    ConsistencyLabel.OMITTED,
)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``; tied values share their average rank."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    # Each run of equal values spans sorted positions [start, end).
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman_correlation(x, y) -> float:
    """Spearman's rank correlation of two paired samples.

    Pearson's correlation of the average ranks, computed as
    :func:`scipy.stats.spearmanr` computes it.  NaN when either sample is
    constant or contains NaN, as there.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    ranks = np.column_stack((_average_ranks(x), _average_ranks(y)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.corrcoef(ranks, rowvar=False)[1, 0])


@dataclass(frozen=True)
class ConsistentActionRow:
    """One row of Table 7 (Actions with many consistent disclosures)."""

    action_id: str
    name: str
    clear: int
    vague: int
    total: int


@dataclass
class DisclosureAnalysis:
    """Aggregated disclosure-consistency measurements."""

    #: Category → label → fraction (rows of the Figure 9 heat map).
    category_distributions: Dict[str, Dict[ConsistencyLabel, float]] = field(default_factory=dict)
    #: ``(category, type)`` → label → count (Figure 10, for prevalent types).
    type_label_counts: Dict[Tuple[str, str], Dict[ConsistencyLabel, int]] = field(default_factory=dict)
    #: Per-Action fraction of each label (Figure 11).
    action_label_fractions: Dict[str, Dict[ConsistencyLabel, float]] = field(default_factory=dict)
    #: Per-Action (item count, consistency fraction) pairs (Figure 12).
    consistency_vs_items: List[Tuple[int, float]] = field(default_factory=list)
    #: Table 7 rows.
    consistent_actions: List[ConsistentActionRow] = field(default_factory=list)
    n_actions_analyzed: int = 0
    fully_consistent_share: float = 0.0
    majority_consistent_share: float = 0.0

    # ------------------------------------------------------------------
    def overall_distribution(self) -> Dict[ConsistencyLabel, float]:
        """Corpus-wide fraction of each label."""
        counts: Counter = Counter()
        for label_counts in self.type_label_counts.values():
            for label, count in label_counts.items():
                counts[label] += count
        total = sum(counts.values())
        if not total:
            return {label: 0.0 for label in LABEL_ORDER}
        return {label: counts[label] / total for label in LABEL_ORDER}

    def omitted_share(self, category: Optional[str] = None) -> float:
        """Fraction of omitted disclosures overall or for one category."""
        if category is None:
            return self.overall_distribution()[ConsistencyLabel.OMITTED]
        return self.category_distributions.get(category, {}).get(ConsistencyLabel.OMITTED, 0.0)

    def prevalent_type_rows(
        self, min_occurrences: int = 20
    ) -> List[Tuple[Tuple[str, str], Dict[ConsistencyLabel, int], int]]:
        """Figure 10 rows: data types with at least ``min_occurrences`` disclosures."""
        rows = []
        for key, counts in self.type_label_counts.items():
            total = sum(counts.values())
            if total >= min_occurrences:
                rows.append((key, counts, total))
        rows.sort(key=lambda row: -row[2])
        return rows

    def label_fraction_cdf(self, label: ConsistencyLabel) -> List[Tuple[float, float]]:
        """Figure 11's CDF of per-Action fractions for one label."""
        fractions = sorted(
            fractions_by_label.get(label, 0.0)
            for fractions_by_label in self.action_label_fractions.values()
        )
        if not fractions:
            return []
        total = len(fractions)
        return [
            (fraction, (index + 1) / total) for index, fraction in enumerate(fractions)
        ]

    def spearman_consistency_vs_items(self) -> float:
        """Spearman correlation between item count and consistency (Figure 12)."""
        if len(self.consistency_vs_items) < 3:
            return 0.0
        items = [count for count, _ in self.consistency_vs_items]
        consistency = [fraction for _, fraction in self.consistency_vs_items]
        if len(set(items)) < 2 or len(set(consistency)) < 2:
            return 0.0
        coefficient = spearman_correlation(items, consistency)
        return coefficient if not np.isnan(coefficient) else 0.0

    def top_consistent_actions(self, min_clear: int = 5) -> List[ConsistentActionRow]:
        """Table 7: Actions with at least ``min_clear`` consistent disclosures."""
        return [
            row for row in self.consistent_actions if (row.clear + row.vague) >= min_clear
        ]


class DisclosureAccumulator:
    """Streaming, order-insensitive builder of :class:`DisclosureAnalysis`.

    Holds one compact row per analyzed Action (label counts, item count,
    consistency fraction) plus global per-category / per-type counters —
    never the per-sentence results, and never the policy report.  ``update``
    order does not matter: :meth:`finalize` iterates actions, categories,
    and data types in sorted order and breaks the Table 7 ranking's ties by
    action id, so any shard partitioning of the update stream produces the
    same analysis bytes.
    """

    def __init__(self) -> None:
        #: action id → (name, label counts, n_types, consistency fraction,
        #: fully-consistent flag); one analyzed Action each.
        self._actions: Dict[str, Tuple[str, Counter, int, float, bool]] = {}
        self._category_counts: Dict[str, Counter] = {}
        self._type_counts: Dict[Tuple[str, str], Counter] = {}

    def update(self, action_analysis, name: Optional[str] = None) -> None:
        """Fold one Action's policy analysis in (skips unavailable policies)."""
        if not action_analysis.policy_available:
            return
        label_counter: Counter = Counter()
        for result in action_analysis.results:
            label_counter[result.final_label] += 1
            self._category_counts.setdefault(result.category, Counter())[
                result.final_label
            ] += 1
            self._type_counts.setdefault(
                (result.category, result.data_type), Counter()
            )[result.final_label] += 1
        self._actions[action_analysis.action_id] = (
            name if name is not None else action_analysis.action_id,
            label_counter,
            action_analysis.n_types,
            action_analysis.consistency_fraction(),
            action_analysis.is_fully_consistent(),
        )

    def merge(self, other: "DisclosureAccumulator") -> None:
        """Fold another shard's partial state into this one.

        Shards partition the Action set, so per-action rows never collide;
        category and type counters sum.
        """
        self._actions.update(other._actions)
        for category, counts in other._category_counts.items():
            self._category_counts.setdefault(category, Counter()).update(counts)
        for key, counts in other._type_counts.items():
            self._type_counts.setdefault(key, Counter()).update(counts)

    def finalize(self) -> DisclosureAnalysis:
        """Emit the order-canonical analysis (see class docstring)."""
        analysis = DisclosureAnalysis()
        analysis.n_actions_analyzed = len(self._actions)
        fully_consistent = 0
        majority_consistent = 0
        for action_id in sorted(self._actions):
            name, label_counter, n_types, consistency, fully = self._actions[action_id]
            total = sum(label_counter.values())
            if not total:
                continue
            analysis.action_label_fractions[action_id] = {
                label: label_counter[label] / total for label in LABEL_ORDER
            }
            analysis.consistency_vs_items.append((n_types, consistency))
            if fully:
                fully_consistent += 1
            if consistency > 0.5:
                majority_consistent += 1
            analysis.consistent_actions.append(
                ConsistentActionRow(
                    action_id=action_id,
                    name=name,
                    clear=label_counter[ConsistencyLabel.CLEAR],
                    vague=label_counter[ConsistencyLabel.VAGUE],
                    total=total,
                )
            )
        for category in sorted(self._category_counts):
            counts = self._category_counts[category]
            total = sum(counts.values())
            analysis.category_distributions[category] = {
                label: counts[label] / total for label in LABEL_ORDER
            }
        for key in sorted(self._type_counts):
            counts = self._type_counts[key]
            analysis.type_label_counts[key] = {
                label: counts[label] for label in LABEL_ORDER
            }
        if self._actions:
            analysis.fully_consistent_share = fully_consistent / len(self._actions)
            analysis.majority_consistent_share = majority_consistent / len(self._actions)
        # Stable sort over action-id-sorted rows: ties rank by action id,
        # identically for the in-memory and shard-streamed paths.
        analysis.consistent_actions.sort(key=lambda row: -(row.clear + row.vague))
        return analysis


def analyze_disclosure(
    report: PolicyConsistencyReport,
    corpus: Optional[CrawlCorpus] = None,
) -> DisclosureAnalysis:
    """Aggregate a policy-consistency report into the paper's disclosure metrics.

    Runs on :class:`DisclosureAccumulator`, so the output is byte-identical
    to streaming the same per-Action analyses over policy shards.
    """
    action_names: Dict[str, str] = {}
    if corpus is not None:
        action_names = {
            action_id: action.title for action_id, action in corpus.unique_actions().items()
        }
    accumulator = DisclosureAccumulator()
    for action_analysis in report.actions_with_policies():
        accumulator.update(
            action_analysis, action_names.get(action_analysis.action_id)
        )
    return accumulator.finalize()
