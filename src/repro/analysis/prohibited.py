"""Prohibited-data collection analysis (Section 4.2.2).

OpenAI's usage policies forbid collecting sensitive credentials such as API
keys and passwords; the paper finds 9.1% of Action-embedding GPTs include
Actions that collect security credentials.  This analysis flags every GPT and
Action collecting prohibited or sensitive data types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.classification.results import ClassificationResult
from repro.io import CorpusSource
from repro.taxonomy.builtin import PROHIBITED_CATEGORIES
from repro.taxonomy.schema import DataTaxonomy


@dataclass
class ProhibitedDataAnalysis:
    """Who collects data that platform policy prohibits."""

    #: GPT ids embedding at least one Action that collects prohibited data.
    offending_gpts: List[str] = field(default_factory=list)
    #: Action ids collecting prohibited data and the offending types.
    offending_actions: Dict[str, List[Tuple[str, str]]] = field(default_factory=dict)
    #: GPT ids embedding Actions that collect health data (case study).
    health_collecting_gpts: List[str] = field(default_factory=list)
    n_action_gpts: int = 0

    @property
    def offending_gpt_share(self) -> float:
        """Fraction of Action-embedding GPTs collecting prohibited data."""
        if not self.n_action_gpts:
            return 0.0
        return len(self.offending_gpts) / self.n_action_gpts

    @property
    def health_gpt_share(self) -> float:
        """Fraction of Action-embedding GPTs collecting health data."""
        if not self.n_action_gpts:
            return 0.0
        return len(self.health_collecting_gpts) / self.n_action_gpts


def find_offending_actions(
    classification: ClassificationResult,
    taxonomy: Optional[DataTaxonomy] = None,
    prohibited_categories: Tuple[str, ...] = PROHIBITED_CATEGORIES,
) -> Dict[str, List[Tuple[str, str]]]:
    """Action id → offending ``(category, type)`` pairs (action-level rollup)."""
    prohibited_types: Set[Tuple[str, str]] = set()
    if taxonomy is not None:
        prohibited_types = {data_type.key for data_type in taxonomy.prohibited_types()}

    def is_prohibited(key: Tuple[str, str]) -> bool:
        if key in prohibited_types:
            return True
        return key[0] in prohibited_categories

    offending_actions: Dict[str, List[Tuple[str, str]]] = {}
    for action_id, types in classification.action_data_types().items():
        offending = [key for key in types if is_prohibited(key)]
        if offending:
            offending_actions[action_id] = offending
    return offending_actions


class ProhibitedAccumulator:
    """Streaming builder of :class:`ProhibitedDataAnalysis`.

    The action-level rollups (which Actions offend, which collect health
    data) are fixed lookups computed once from the classification; the
    accumulator only collects the ids of GPTs touching them, so memory is
    bounded by the number of flagged GPTs.  :meth:`finalize` sorts the id
    lists, making sharded and unsharded runs byte-identical.
    """

    def __init__(
        self,
        offending_actions: Dict[str, List[Tuple[str, str]]],
        collected_by_action: Dict[str, List[Tuple[str, str]]],
    ) -> None:
        self.offending_actions = offending_actions
        self._offending_ids = set(offending_actions)
        self._health_ids = {
            action_id
            for action_id, types in collected_by_action.items()
            if any(key[0] == "Health information" for key in types)
        }
        self.n_action_gpts = 0
        self.offending_gpts: List[str] = []
        self.health_collecting_gpts: List[str] = []

    def update(self, gpt_id: str, action_ids: Sequence[str]) -> None:
        """Check one GPT's Actions against the flagged-action rollups.

        Takes all this analysis reads of a GPT record: its id and the ids
        of its Actions.  :func:`analyze_prohibited` passes that projection
        of each record; the shard runner folds the party index's
        ``(gpt id, action id)`` embeddings instead of re-reading records.
        """
        if not action_ids:
            return
        self.n_action_gpts += 1
        if not self._offending_ids.isdisjoint(action_ids):
            self.offending_gpts.append(gpt_id)
        if not self._health_ids.isdisjoint(action_ids):
            self.health_collecting_gpts.append(gpt_id)

    def merge(self, other: "ProhibitedAccumulator") -> None:
        """Fold another shard's partial id lists into this one."""
        self.n_action_gpts += other.n_action_gpts
        self.offending_gpts.extend(other.offending_gpts)
        self.health_collecting_gpts.extend(other.health_collecting_gpts)

    def finalize(self) -> ProhibitedDataAnalysis:
        """Emit the analysis with canonically ordered GPT id lists."""
        return ProhibitedDataAnalysis(
            offending_gpts=sorted(self.offending_gpts),
            offending_actions=dict(self.offending_actions),
            health_collecting_gpts=sorted(self.health_collecting_gpts),
            n_action_gpts=self.n_action_gpts,
        )


def analyze_prohibited(
    corpus: CorpusSource,
    classification: ClassificationResult,
    taxonomy: Optional[DataTaxonomy] = None,
    prohibited_categories: Tuple[str, ...] = PROHIBITED_CATEGORIES,
) -> ProhibitedDataAnalysis:
    """Find GPTs and Actions collecting prohibited (and health) data."""
    accumulator = ProhibitedAccumulator(
        find_offending_actions(classification, taxonomy, prohibited_categories),
        classification.action_data_types(),
    )
    for gpt in corpus.iter_records():
        accumulator.update(gpt.gpt_id, [action.action_id for action in gpt.actions])
    return accumulator.finalize()
