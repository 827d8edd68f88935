"""Longitudinal views across crawl epochs: churn and disclosure drift.

The paper measures one snapshot of the GPT ecosystem; a longitudinal
deployment re-crawls it on a cadence and asks *what moved*.  This module
takes a sequence of crawled epochs — any mix of
:class:`~repro.io.CorpusSource` layouts (in-memory corpora, sharded
stores, incremental stores) — and derives per-transition churn metrics:

* **corpus churn** — GPT records added, removed, and content-changed
  between consecutive epochs.  "Changed" compares record *content*: the
  canonical shard line with the two re-stamped facts normalized
  (``discovery_index`` 0, ``source_stores`` empty), so a record that
  merely moved within the listing frontier or shifted stores does not
  count as churn.  A sharded store's keys are hashed from its raw lines,
  shard by shard (:meth:`~repro.io.shards.ShardedCorpusStore.iter_content_keys`);
  an in-memory corpus's from the same canonical payload;
* **policy churn and drift** — policy URLs added/removed, documents whose
  bytes drifted (revision rotations, vendor re-issues), and per-epoch
  availability, the Section 5.1.1 metric tracked over time.

Everything streams record-by-record (one 32-byte content digest per record
is retained, never the records themselves), so a longitudinal series of
sharded epochs is analyzed in bounded memory.  Only keys are compared, so
records are read in storage order, never merged into discovery order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.io.corpus import gpt_to_payload
from repro.io.shards import ShardedCorpusStore, gpt_content_key
from repro.reporting.markdown import format_table


def _record_content_keys(source) -> Dict[str, bytes]:
    """``gpt_id → content key`` of every GPT record of one epoch."""
    if isinstance(source, ShardedCorpusStore):
        return dict(source.iter_content_keys())
    return {gpt.gpt_id: gpt_content_key(gpt_to_payload(gpt)) for gpt in source.iter_records()}


def _policy_signature(result) -> Tuple[int, bytes]:
    """(status, text digest) pair identifying one policy fetch outcome."""
    text = result.text if result.text is not None else ""
    return (
        result.status,
        hashlib.sha256(text.encode("utf-8")).digest(),
    )


def _iter_policies(source):
    """Policy records of any corpus layout (store or in-memory corpus)."""
    iterator = getattr(source, "iter_policies", None)
    if iterator is not None:
        return iterator()
    return iter(source.policies.values())


@dataclass(frozen=True)
class EpochTransition:
    """Churn between two consecutive crawled epochs."""

    epoch: int
    n_records: int
    records_added: int
    records_removed: int
    records_changed: int
    n_policies: int
    policies_added: int
    policies_removed: int
    policies_drifted: int
    policy_availability: float

    @property
    def records_carried(self) -> int:
        """Records present in both epochs with unchanged content."""
        return self.n_records - self.records_added - self.records_changed

    @property
    def churn_rate(self) -> float:
        """Share of this epoch's records that are new or content-changed."""
        if not self.n_records:
            return 0.0
        return (self.records_added + self.records_changed) / self.n_records

    def summary(self) -> str:
        """One human-readable drift line for this transition."""
        return (
            f"epoch {self.epoch}: +{self.records_added} -{self.records_removed} "
            f"~{self.records_changed} GPT records (churn {self.churn_rate:.1%}); "
            f"{self.policies_drifted} policies drifted, "
            f"availability {self.policy_availability:.1%}"
        )


@dataclass(frozen=True)
class LongitudinalReport:
    """Churn metrics for a whole epoch sequence."""

    transitions: List[EpochTransition]

    @property
    def total_records_changed(self) -> int:
        return sum(t.records_added + t.records_changed for t in self.transitions)

    def availability_series(self) -> List[float]:
        """Policy availability per epoch transition (drift over time)."""
        return [t.policy_availability for t in self.transitions]

    def summary_lines(self) -> List[str]:
        return [transition.summary() for transition in self.transitions]


def _epoch_inventory(source) -> Tuple[Dict[str, bytes], Dict[str, Tuple[int, bytes]], float]:
    """Content digests and policy signatures of one epoch (one streaming pass)."""
    records = _record_content_keys(source)
    policies: Dict[str, Tuple[int, bytes]] = {}
    n_available = 0
    for result in _iter_policies(source):
        policies[result.url] = _policy_signature(result)
        if result.text is not None:
            n_available += 1
    availability = n_available / len(policies) if policies else 0.0
    return records, policies, availability


def analyze_epochs(sources: Sequence, first_epoch: int = 1) -> LongitudinalReport:
    """Derive per-transition churn across an ordered epoch sequence.

    ``sources`` is the epoch series oldest-first (at least two entries);
    ``first_epoch`` numbers the first *transition* (epoch 0 → 1 by default,
    matching :func:`repro.ecosystem.evolution.evolve_epochs` numbering).
    """
    if len(sources) < 2:
        raise ValueError("longitudinal analysis needs at least two epochs")
    transitions: List[EpochTransition] = []
    previous_records, previous_policies, _ = _epoch_inventory(sources[0])
    for offset, source in enumerate(sources[1:]):
        records, policies, availability = _epoch_inventory(source)
        changed = sum(
            1
            for gpt_id, content in records.items()
            if gpt_id in previous_records and previous_records[gpt_id] != content
        )
        drifted = sum(
            1
            for url, signature in policies.items()
            if url in previous_policies and previous_policies[url] != signature
        )
        transitions.append(
            EpochTransition(
                epoch=first_epoch + offset,
                n_records=len(records),
                records_added=len(records.keys() - previous_records.keys()),
                records_removed=len(previous_records.keys() - records.keys()),
                records_changed=changed,
                n_policies=len(policies),
                policies_added=len(policies.keys() - previous_policies.keys()),
                policies_removed=len(previous_policies.keys() - policies.keys()),
                policies_drifted=drifted,
                policy_availability=availability,
            )
        )
        previous_records, previous_policies = records, policies
    return LongitudinalReport(transitions=transitions)


def render_longitudinal(report: LongitudinalReport) -> str:
    """The epoch-churn table: one row per transition."""
    rows = [
        (
            transition.epoch,
            transition.n_records,
            f"+{transition.records_added}",
            f"-{transition.records_removed}",
            f"~{transition.records_changed}",
            f"{transition.churn_rate:.1%}",
            f"~{transition.policies_drifted}",
            f"{transition.policy_availability:.1%}",
        )
        for transition in report.transitions
    ]
    return format_table(
        [
            "Epoch",
            "Records",
            "Added",
            "Removed",
            "Changed",
            "Churn",
            "Policies drifted",
            "Availability",
        ],
        rows,
    )
