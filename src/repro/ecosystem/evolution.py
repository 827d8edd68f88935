"""Seeded ecosystem churn: evolve a synthetic world from epoch N to N+1.

The paper measures one batch snapshot of the GPT store, but the real store
churns continuously — GPTs appear, disappear, and get re-described; Actions
are bolted on and dropped; privacy policies rotate revisions.  This module
models that churn as a **pure function of** ``(seed, epoch)``:

* :func:`evolve_ecosystem` takes the epoch-N world and returns the epoch-N+1
  world plus an :class:`EpochDelta` naming exactly which GPT ids and policy
  URLs changed — the synthetic analog of a sitemap ``lastmod`` feed;
* the evolved world is a first-class :class:`SyntheticEcosystem`, so a
  *cold* crawl of it is well-defined (``CrawlPipeline.from_ecosystem``
  works unchanged) and serves as the byte-identity oracle for the
  delta-aware incremental crawl (:meth:`CrawlPipeline.run_incremental`);
* the parent world is **never mutated**: changed manifests and policies are
  rebuilt with :func:`dataclasses.replace`, unchanged ones are shared by
  reference, so epoch N and epoch N+1 can be crawled side by side.

Every sampling decision draws from one epoch RNG seeded by a SHA-256 of
``(config.seed, epoch)`` over *sorted* id lists, so evolution is stable
across processes, platforms, and dict iteration orders.  New GPTs and
Actions come from a child :class:`EcosystemGenerator` with an epoch-derived
seed, reusing the parent's prevalent Action specs — additions embed the
same shared services the base world does (the Figure 8 hub structure
persists across epochs).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.ecosystem.actions import PREVALENT_ACTIONS, PrevalentActionTemplate
from repro.ecosystem.config import EcosystemConfig
from repro.ecosystem.generator import EcosystemGenerator
from repro.ecosystem.models import (
    ActionSpecification,
    GPTManifest,
    SyntheticEcosystem,
    Tool,
    ToolType,
)
from repro.ecosystem.stores import assign_listings


@dataclass(frozen=True)
class EvolutionConfig:
    """Churn rates applied per epoch (defaults target ~5% record churn).

    The rates are fractions of the *current* population: with the defaults,
    one epoch re-describes 2.5% of surviving GPTs, adds 1.5% new ones,
    removes 1%, toggles Actions on 0.5%, and rotates 5% of policy
    revisions — so an incremental re-crawl pays for roughly one record in
    twenty.
    """

    removal_rate: float = 0.01
    addition_rate: float = 0.015
    redescription_rate: float = 0.025
    action_churn_rate: float = 0.005
    policy_drift_rate: float = 0.05

    def __post_init__(self) -> None:
        for name in (
            "removal_rate",
            "addition_rate",
            "redescription_rate",
            "action_churn_rate",
            "policy_drift_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value}")


@dataclass
class EpochDelta:
    """Exactly what changed between epoch N and epoch N+1.

    ``changed_gpt_ids`` is the crawl's change feed: every id whose manifest
    bytes differ from the parent epoch (new, re-described, or
    Action-churned).  Removed ids are listed separately — they simply drop
    out of the listing frontier and need no fetch.
    """

    epoch: int
    added_gpt_ids: List[str] = field(default_factory=list)
    removed_gpt_ids: List[str] = field(default_factory=list)
    redescribed_gpt_ids: List[str] = field(default_factory=list)
    action_changed_gpt_ids: List[str] = field(default_factory=list)
    changed_policy_urls: List[str] = field(default_factory=list)

    @property
    def changed_gpt_ids(self) -> Set[str]:
        """Ids whose manifest must be re-fetched at this epoch."""
        return set(self.added_gpt_ids) | set(self.redescribed_gpt_ids) | set(
            self.action_changed_gpt_ids
        )

    @property
    def n_changed(self) -> int:
        """Total records touched (manifests changed + removed + policies)."""
        return (
            len(self.changed_gpt_ids)
            + len(self.removed_gpt_ids)
            + len(self.changed_policy_urls)
        )

    def to_payload(self) -> Dict[str, object]:
        """JSON-serializable form (sorted, fingerprint-stable)."""
        return {
            "epoch": self.epoch,
            "added_gpt_ids": sorted(self.added_gpt_ids),
            "removed_gpt_ids": sorted(self.removed_gpt_ids),
            "redescribed_gpt_ids": sorted(self.redescribed_gpt_ids),
            "action_changed_gpt_ids": sorted(self.action_changed_gpt_ids),
            "changed_policy_urls": sorted(self.changed_policy_urls),
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"epoch {self.epoch}: +{len(self.added_gpt_ids)} "
            f"-{len(self.removed_gpt_ids)} GPTs, "
            f"{len(self.redescribed_gpt_ids)} re-described, "
            f"{len(self.action_changed_gpt_ids)} Action-churned, "
            f"{len(self.changed_policy_urls)} policies drifted"
        )


@dataclass
class EvolvedEpoch:
    """The evolved world and the delta that produced it."""

    ecosystem: SyntheticEcosystem
    delta: EpochDelta


def epoch_seed(seed: int, epoch: int) -> int:
    """Stable per-epoch seed (a pure function of the base seed and epoch)."""
    digest = hashlib.sha256(f"{seed}:evolution:{epoch}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _copy_ground_truth(ecosystem: SyntheticEcosystem) -> SyntheticEcosystem:
    """A shallow structural copy: new containers, shared unchanged objects."""
    evolved = SyntheticEcosystem(
        gpts=dict(ecosystem.gpts),
        actions=dict(ecosystem.actions),
        policies=dict(ecosystem.policies),
        store_listings={},
    )
    source = ecosystem.ground_truth
    target = evolved.ground_truth
    target.parameter_labels = dict(source.parameter_labels)
    target.action_party = dict(source.action_party)
    target.disclosure_labels = dict(source.disclosure_labels)
    target.action_collected_types = dict(source.action_collected_types)
    target.controlled_policy_actions = set(source.controlled_policy_actions)
    target.policy_kinds = dict(source.policy_kinds)
    return evolved


def _recover_prevalent_specs(
    ecosystem: SyntheticEcosystem,
) -> Dict[str, Tuple[PrevalentActionTemplate, ActionSpecification]]:
    """Match the parent world's prevalent Action specs back to their templates.

    ``EcosystemGenerator._build_prevalent_actions`` titles each prevalent
    spec with its template name and serves it from the template domain, so
    the mapping is recoverable from the ecosystem alone — new GPTs added by
    evolution embed the *same* shared Actions the base world does instead
    of minting per-epoch duplicates.
    """
    by_title: Dict[str, ActionSpecification] = {}
    for action_id in sorted(ecosystem.actions):
        specification = ecosystem.actions[action_id]
        by_title.setdefault(specification.title, specification)
    specs: Dict[str, Tuple[PrevalentActionTemplate, ActionSpecification]] = {}
    for template in PREVALENT_ACTIONS:
        specification = by_title.get(template.name)
        if specification is not None and specification.domain == template.domain:
            specs[template.name] = (template, specification)
    return specs


def _sample(rng: random.Random, population: List[str], rate: float) -> List[str]:
    """Sample ``rate`` of a sorted population (stable given the RNG state)."""
    k = min(len(population), int(round(rate * len(population))))
    if k <= 0:
        return []
    return sorted(rng.sample(population, k=k))


def _without_action(
    manifest: GPTManifest, rng: random.Random
) -> Optional[GPTManifest]:
    """A copy of ``manifest`` with one Action dropped (None if it has none)."""
    action_slots = [
        index
        for index, tool in enumerate(manifest.tools)
        if tool.tool_type is ToolType.ACTION
    ]
    if not action_slots:
        return None
    drop = rng.choice(action_slots)
    tools = [tool for index, tool in enumerate(manifest.tools) if index != drop]
    tags = list(manifest.tags)
    if not any(tool.tool_type is ToolType.ACTION for tool in tools):
        tags = [tag for tag in tags if tag != "uses_function_calls"]
    return replace(manifest, tools=tools, tags=tags)


def _with_action(manifest: GPTManifest, specification: ActionSpecification) -> GPTManifest:
    """A copy of ``manifest`` embedding one more Action."""
    tools = list(manifest.tools) + [Tool(tool_type=ToolType.ACTION, action=specification)]
    tags = list(manifest.tags)
    if "uses_function_calls" not in tags:
        tags.append("uses_function_calls")
    return replace(manifest, tools=tools, tags=tags)


def evolve_ecosystem(
    ecosystem: SyntheticEcosystem,
    config: EcosystemConfig,
    epoch: int,
    evolution: Optional[EvolutionConfig] = None,
) -> EvolvedEpoch:
    """Evolve ``ecosystem`` one epoch forward; the parent is left untouched.

    ``config`` is the *base* ecosystem configuration (its seed and store
    sizes parameterize the churn); ``epoch`` is the 1-based epoch being
    produced.  Calling with the same inputs always yields the same world —
    evolution is a pure function, so cold crawls of the evolved world are
    reproducible anywhere.
    """
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1 (epoch 0 is the generated base), got {epoch}")
    evolution = evolution or EvolutionConfig()
    rng = random.Random(epoch_seed(config.seed, epoch))
    evolved = _copy_ground_truth(ecosystem)
    delta = EpochDelta(epoch=epoch)

    surviving = sorted(evolved.gpts)

    # 1. Removals: the GPT vanishes from every listing (its Actions and
    # policies linger as web debris, exactly like a real takedown).
    delta.removed_gpt_ids = _sample(rng, surviving, evolution.removal_rate)
    for gpt_id in delta.removed_gpt_ids:
        del evolved.gpts[gpt_id]
    surviving = sorted(evolved.gpts)

    # 2. Re-descriptions: a deterministic revision sentence, so the manifest
    # bytes change while everything else stays put.
    delta.redescribed_gpt_ids = _sample(rng, surviving, evolution.redescription_rate)
    for gpt_id in delta.redescribed_gpt_ids:
        manifest = evolved.gpts[gpt_id]
        evolved.gpts[gpt_id] = replace(
            manifest,
            description=f"{manifest.description} Refreshed in catalog update {epoch}.",
        )

    # A child generator with an epoch-derived seed mints every new GPT and
    # Action this epoch; it shares the parent's prevalent specs so shared
    # services stay shared.
    child_config = replace(
        config,
        seed=epoch_seed(config.seed, epoch) % (2**31),
        n_gpts=max(1, int(round(evolution.addition_rate * len(surviving)))),
    )
    child = EcosystemGenerator(child_config, None)
    prevalent_specs = _recover_prevalent_specs(ecosystem)

    # 3. Action churn: half the sampled GPTs lose an Action, half gain one.
    redescribed = set(delta.redescribed_gpt_ids)
    churn_pool = [g for g in surviving if g not in redescribed]
    churned = _sample(rng, churn_pool, evolution.action_churn_rate)
    for position, gpt_id in enumerate(churned):
        manifest = evolved.gpts[gpt_id]
        if position % 2 == 0:
            slimmed = _without_action(manifest, rng)
            if slimmed is not None:
                evolved.gpts[gpt_id] = slimmed
                delta.action_changed_gpt_ids.append(gpt_id)
                continue
        topic, _, functionality = child.names.theme()
        specification, labels = child.action_factory.build_custom(
            third_party=True,
            vendor_domain=manifest.vendor_domain or child.names.vendor_domain(),
            functionality=functionality,
            topic=topic,
        )
        child._register_action(specification, labels, evolved, evolved.ground_truth)
        evolved.gpts[gpt_id] = _with_action(manifest, specification)
        delta.action_changed_gpt_ids.append(gpt_id)
    delta.action_changed_gpt_ids.sort()

    # 4. Additions: brand-new GPTs from the child generator (bespoke Actions
    # and policies register into the evolved world as usual).
    n_added = int(round(evolution.addition_rate * len(surviving)))
    for _ in range(n_added):
        embeds = child._rng.random() < config.tool_adoption.get("actions", 0.0)
        gpt = child._build_gpt(
            embeds_actions=embeds,
            prevalent_specs=prevalent_specs,
            ecosystem=evolved,
            ground_truth=evolved.ground_truth,
        )
        while gpt.gpt_id in evolved.gpts:  # pragma: no cover - ~2^-60 collision
            gpt = child._build_gpt(
                embeds_actions=embeds,
                prevalent_specs=prevalent_specs,
                ecosystem=evolved,
                ground_truth=evolved.ground_truth,
            )
        evolved.gpts[gpt.gpt_id] = gpt
        delta.added_gpt_ids.append(gpt.gpt_id)
    delta.added_gpt_ids.sort()

    # 5. Policy drift: rotated revisions append a deterministic marker, the
    # static-host analog of the flapping-host ``policy-rev`` markers.
    drifted = _sample(rng, sorted(evolved.policies), evolution.policy_drift_rate)
    for url in drifted:
        document = evolved.policies[url]
        evolved.policies[url] = replace(
            document,
            text=f"{document.text}\n<p>Policy revision {epoch} issued by the vendor.</p>",
        )
    delta.changed_policy_urls = drifted

    # 6. Fresh listings: the store indices re-crawl the evolved population
    # (new shuffle, new dead links) — exactly what the next crawl frontier
    # would observe.
    evolved.store_listings = assign_listings(
        list(evolved.gpts.values()),
        config.stores,
        rng,
        dead_link_rate=config.dead_link_rate,
    )
    return EvolvedEpoch(ecosystem=evolved, delta=delta)


def evolve_epochs(
    ecosystem: SyntheticEcosystem,
    config: EcosystemConfig,
    n_epochs: int,
    evolution: Optional[EvolutionConfig] = None,
) -> Tuple[SyntheticEcosystem, List[EpochDelta]]:
    """Apply ``n_epochs`` successive evolutions; returns (world, deltas)."""
    deltas: List[EpochDelta] = []
    for epoch in range(1, n_epochs + 1):
        evolved = evolve_ecosystem(ecosystem, config, epoch, evolution)
        ecosystem = evolved.ecosystem
        deltas.append(evolved.delta)
    return ecosystem, deltas
