"""The crawled measurement corpus.

A :class:`CrawlCorpus` contains only what a crawler could observe: manifest
JSON documents (parsed into :class:`CrawledGPT` / :class:`CrawledAction`),
fetched privacy-policy documents, and per-store crawl statistics.  It contains
no generator ground truth, so every analysis that runs on it exercises the same
inference steps the paper performs on live data.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.crawler.policy_fetcher import PolicyFetchResult
from repro.web.urls import url_host


@dataclass
class CrawledAction:
    """An Action as reconstructed from a crawled GPT manifest."""

    action_id: str
    title: str
    description: str
    server_url: str
    legal_info_url: Optional[str]
    functionality: str
    auth_type: str
    #: ``(parameter name, parameter description)`` pairs across all endpoints.
    parameters: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def domain(self) -> str:
        """The API server host of the Action."""
        return url_host(self.server_url)

    def data_descriptions(self) -> List[str]:
        """Combined name-and-description strings for every parameter.

        Mirrors :meth:`repro.ecosystem.models.ActionParameter.name_and_description`
        but works from the crawled representation.
        """
        descriptions: List[str] = []
        for name, description in self.parameters:
            text = (description or "").strip()
            if not text or text.lower() in ("null", "none", "n/a", "-"):
                descriptions.append(name)
            else:
                descriptions.append(f"{name}: {text}")
        return descriptions

    @classmethod
    def from_manifest_tool(cls, tool: Mapping[str, object]) -> "CrawledAction":
        """Parse an Action from a manifest ``tools`` entry."""
        metadata = tool.get("metadata", {}) or {}
        spec = tool.get("json_spec", {}) or {}
        info = spec.get("info", {}) if isinstance(spec, Mapping) else {}
        servers = spec.get("servers", []) if isinstance(spec, Mapping) else []
        server_url = ""
        if servers and isinstance(servers, list) and isinstance(servers[0], Mapping):
            server_url = str(servers[0].get("url", ""))
        parameters: List[Tuple[str, str]] = []
        paths = spec.get("paths", {}) if isinstance(spec, Mapping) else {}
        if isinstance(paths, Mapping):
            for path_item in paths.values():
                if not isinstance(path_item, Mapping):
                    continue
                for operation in path_item.values():
                    if not isinstance(operation, Mapping):
                        continue
                    for parameter in operation.get("parameters", []) or []:
                        if isinstance(parameter, Mapping):
                            parameters.append(
                                (
                                    str(parameter.get("name", "")),
                                    str(parameter.get("description", "")),
                                )
                            )
        return cls(
            action_id=str(tool.get("id", "")),
            title=str(info.get("title", "")) if isinstance(info, Mapping) else "",
            description=str(info.get("description", "")) if isinstance(info, Mapping) else "",
            server_url=server_url,
            legal_info_url=(
                str(metadata.get("privacy_policy_url"))
                if isinstance(metadata, Mapping) and metadata.get("privacy_policy_url")
                else None
            ),
            functionality=(
                str(metadata.get("functionality", "")) if isinstance(metadata, Mapping) else ""
            ),
            auth_type=(
                str((metadata.get("auth") or {}).get("type", "none"))
                if isinstance(metadata, Mapping) and isinstance(metadata.get("auth"), Mapping)
                else "none"
            ),
            parameters=parameters,
        )


@dataclass
class CrawledGPT:
    """A GPT as reconstructed from its crawled manifest."""

    gpt_id: str
    name: str
    description: str
    author_name: str
    author_website: Optional[str]
    vendor_domain: Optional[str]
    tags: List[str] = field(default_factory=list)
    tool_types: List[str] = field(default_factory=list)
    actions: List[CrawledAction] = field(default_factory=list)
    n_files: int = 0
    source_stores: List[str] = field(default_factory=list)

    @property
    def has_actions(self) -> bool:
        """Whether the GPT embeds at least one Action."""
        return bool(self.actions)

    def has_tool(self, tool_type: str) -> bool:
        """Whether the GPT enables a tool type (manifest ``type`` string)."""
        return tool_type in self.tool_types

    @classmethod
    def from_manifest(
        cls, manifest: Mapping[str, object], source_store: Optional[str] = None
    ) -> "CrawledGPT":
        """Parse a gizmo manifest JSON document."""
        gizmo = manifest.get("gizmo", {}) or {}
        display = gizmo.get("display", {}) if isinstance(gizmo, Mapping) else {}
        author = gizmo.get("author", {}) if isinstance(gizmo, Mapping) else {}
        tools = manifest.get("tools", []) or []
        tool_types: List[str] = []
        actions: List[CrawledAction] = []
        for tool in tools:
            if not isinstance(tool, Mapping):
                continue
            tool_type = str(tool.get("type", ""))
            tool_types.append(tool_type)
            if tool_type.startswith("action"):
                actions.append(CrawledAction.from_manifest_tool(tool))
        return cls(
            gpt_id=str(gizmo.get("id", "")) if isinstance(gizmo, Mapping) else "",
            name=str(display.get("name", "")) if isinstance(display, Mapping) else "",
            description=(
                str(display.get("description", "")) if isinstance(display, Mapping) else ""
            ),
            author_name=str(author.get("display_name", "")) if isinstance(author, Mapping) else "",
            author_website=(
                str(author.get("link_to")) if isinstance(author, Mapping) and author.get("link_to") else None
            ),
            vendor_domain=(
                str(gizmo.get("vendor_domain"))
                if isinstance(gizmo, Mapping) and gizmo.get("vendor_domain")
                else None
            ),
            tags=[str(tag) for tag in (gizmo.get("tags", []) if isinstance(gizmo, Mapping) else [])],
            tool_types=tool_types,
            actions=actions,
            n_files=len(manifest.get("files", []) or []),
            source_stores=[source_store] if source_store else [],
        )


def _check_one_shard(index: int) -> None:
    if index != 0:
        raise IndexError(f"in-memory corpus has exactly one shard, not {index + 1}")


@dataclass
class CrawlCorpus:
    """Everything a crawl produced."""

    gpts: Dict[str, CrawledGPT] = field(default_factory=dict)
    policies: Dict[str, PolicyFetchResult] = field(default_factory=dict)
    #: Store name → number of GPTs successfully crawled from that store.
    store_counts: Dict[str, int] = field(default_factory=dict)
    #: Store name → number of listing links collected from that store.
    store_link_counts: Dict[str, int] = field(default_factory=dict)
    #: GPT identifiers that failed to resolve on the gizmo API.
    unresolved_gpt_ids: List[str] = field(default_factory=list)
    #: GPT id → global discovery index: the identifier's position in the
    #: coordinator's listing order.  Unresolved identifiers consume an
    #: index too, so indices may have holes.  Stamped by the crawl
    #: pipeline (and by ``ShardedCorpusStore.load_corpus``); empty on
    #: hand-built corpora, where insertion order is the discovery order.
    discovery_indices: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Record access.  A corpus is filled in one go: by the crawl's
    # in-memory sink (repro.crawler.pipeline) or by a loader
    # (ShardedCorpusStore.load_corpus, repro.io.corpus_from_payload).
    # Records come in discovery order and policies in URL order.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.gpts)

    def iter_gpts(self) -> Iterator[CrawledGPT]:
        """Iterate over crawled GPTs."""
        return iter(self.gpts.values())

    # ------------------------------------------------------------------
    # CorpusSource protocol (see repro.io.CorpusSource)
    # ------------------------------------------------------------------
    def iter_records(self) -> Iterator[CrawledGPT]:
        """Stream every GPT record in discovery order.

        Insertion order *is* discovery order for a crawled corpus (the
        crawl's in-memory sink inserts records by discovery index), so
        this is plain dict iteration.
        """
        return iter(self.gpts.values())

    def iter_shard(self, index: int) -> Iterator[CrawledGPT]:
        """Stream one shard's records: an in-memory corpus is one shard."""
        _check_one_shard(index)
        return iter(self.gpts.values())

    def iter_shard_gpts_indexed(self, index: int) -> Iterator[Tuple[int, CrawledGPT]]:
        """Stream ``(position, gpt)`` pairs in insertion order.

        Insertion order is discovery order for a crawled corpus, and the
        order :func:`~repro.classification.descriptions.extract_descriptions`
        uses for a hand-built or cache-loaded one, which carries no
        discovery indices.
        """
        _check_one_shard(index)
        return enumerate(self.gpts.values())

    def iter_shard_policies(self, index: int) -> Iterator[PolicyFetchResult]:
        """Stream the policy records (the one shard's)."""
        _check_one_shard(index)
        return iter(self.policies.values())

    def available_policy_urls(self) -> Set[str]:
        """URLs whose policy was fetched successfully (text present)."""
        return {
            url for url, result in self.policies.items() if result.ok and result.text is not None
        }

    @property
    def n_shards(self) -> int:
        """An in-memory corpus always presents as a single shard."""
        return 1

    @property
    def n_records(self) -> int:
        """Total GPT records."""
        return len(self.gpts)

    def fingerprint(self) -> str:
        """Content address of the corpus (records + policies + metadata)."""
        # Imported lazily: repro.io.corpus imports this module.
        from repro.io.artifacts import config_fingerprint
        from repro.io.corpus import corpus_to_payload, policies_to_payload

        return config_fingerprint(
            {"corpus": corpus_to_payload(self), "policies": policies_to_payload(self)}
        )

    def action_embedding_gpts(self) -> List[CrawledGPT]:
        """GPTs that embed at least one Action."""
        return [gpt for gpt in self.gpts.values() if gpt.has_actions]

    def unique_actions(self) -> Dict[str, CrawledAction]:
        """Distinct Actions across the corpus, keyed by action id."""
        actions: Dict[str, CrawledAction] = {}
        for gpt in self.gpts.values():
            for action in gpt.actions:
                actions.setdefault(action.action_id, action)
        return actions

    def n_unique_actions(self) -> int:
        """Number of distinct Actions."""
        return len(self.unique_actions())

    def policy_text(self, url: Optional[str]) -> Optional[str]:
        """The fetched text of a policy URL (``None`` when unavailable)."""
        if not url:
            return None
        result = self.policies.get(url)
        if result is None or not result.ok:
            return None
        return result.text

    def policy_availability(self) -> float:
        """Fraction of Actions with a ``legal_info_url`` whose policy was retrieved."""
        total = 0
        available = 0
        for action in self.unique_actions().values():
            if not action.legal_info_url:
                continue
            total += 1
            if self.policy_text(action.legal_info_url) is not None:
                available += 1
        return available / total if total else 0.0

    def total_unique_gpts(self) -> int:
        """Number of unique GPTs successfully crawled."""
        return len(self.gpts)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"CrawlCorpus: {len(self.gpts)} GPTs from {len(self.store_counts)} stores, "
            f"{self.n_unique_actions()} unique Actions, {len(self.policies)} policy URLs fetched"
        )
