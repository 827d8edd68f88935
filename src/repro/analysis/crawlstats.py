"""Crawl statistics (Table 1 and Section 4.1.1 crawl numbers)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.crawler.corpus import CrawlCorpus, CrawledGPT


@dataclass
class CrawlStatsAnalysis:
    """Per-store and corpus-wide crawl statistics."""

    per_store_counts: Dict[str, int] = field(default_factory=dict)
    total_unique_gpts: int = 0
    n_unique_actions: int = 0
    n_action_gpts: int = 0
    n_unresolved_identifiers: int = 0
    policy_availability: float = 0.0

    def sorted_store_counts(self) -> List[Tuple[str, int]]:
        """Store counts sorted descending, as Table 1 presents them."""
        return sorted(self.per_store_counts.items(), key=lambda item: (-item[1], item[0]))

    @property
    def action_gpt_share(self) -> float:
        """Fraction of crawled GPTs that embed Actions."""
        if not self.total_unique_gpts:
            return 0.0
        return self.n_action_gpts / self.total_unique_gpts


class CrawlStatsAccumulator:
    """Streaming builder of :class:`CrawlStatsAnalysis`.

    Per-GPT state is reduced to counters and id sets (memory is O(#unique
    Actions), not O(corpus)); corpus-level inputs — store counts, unresolved
    identifiers, which policy URLs resolved — arrive at :meth:`finalize`
    because they live in the shard manifest / policy shards rather than in
    GPT records.
    """

    def __init__(self) -> None:
        self.n_gpts = 0
        self.n_action_gpts = 0
        #: action id → its ``legal_info_url`` (first occurrence; duplicate
        #: embeddings of an Action carry identical specifications).
        self.action_legal_urls: Dict[str, Optional[str]] = {}

    def update(self, gpt: CrawledGPT) -> None:
        """Fold one GPT record into the counters."""
        self.n_gpts += 1
        if gpt.has_actions:
            self.n_action_gpts += 1
        for action in gpt.actions:
            self.action_legal_urls.setdefault(action.action_id, action.legal_info_url)

    def merge(self, other: "CrawlStatsAccumulator") -> None:
        """Fold another shard's partial counters into this one."""
        self.n_gpts += other.n_gpts
        self.n_action_gpts += other.n_action_gpts
        for action_id, url in other.action_legal_urls.items():
            self.action_legal_urls.setdefault(action_id, url)

    def finalize(
        self,
        store_counts: Dict[str, int],
        unresolved_gpt_ids: List[str],
        available_policy_urls: Set[str],
    ) -> CrawlStatsAnalysis:
        """Combine streamed counters with corpus-level metadata."""
        with_policy_url = [url for url in self.action_legal_urls.values() if url]
        available = sum(1 for url in with_policy_url if url in available_policy_urls)
        return CrawlStatsAnalysis(
            per_store_counts=dict(store_counts),
            total_unique_gpts=self.n_gpts,
            n_unique_actions=len(self.action_legal_urls),
            n_action_gpts=self.n_action_gpts,
            n_unresolved_identifiers=len(unresolved_gpt_ids),
            policy_availability=available / len(with_policy_url) if with_policy_url else 0.0,
        )


def analyze_crawl_stats(corpus: CrawlCorpus) -> CrawlStatsAnalysis:
    """Compute Table 1-style crawl statistics for a corpus."""
    accumulator = CrawlStatsAccumulator()
    for gpt in corpus.iter_gpts():
        accumulator.update(gpt)
    return accumulator.finalize(
        store_counts=corpus.store_counts,
        unresolved_gpt_ids=corpus.unresolved_gpt_ids,
        available_policy_urls=corpus.available_policy_urls(),
    )
