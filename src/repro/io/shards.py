"""Sharded, memory-bounded corpus storage.

A single ``corpus.json`` works at the paper's scale (a few thousand GPTs)
but a 100k-GPT ecosystem cannot be loaded — let alone analyzed — as one
in-memory object.  :class:`ShardedCorpusStore` is the data layer the
streaming analysis engine (:mod:`repro.analysis.streaming`) and the lazy
ecosystem generator build on:

* GPT records and policy fetch results are **hash-sharded** into ``N``
  JSONL shard files (:func:`shard_index` — a stable SHA-256 route, so the
  same key always lands in the same shard at a given shard count);
* writes are **atomic per shard**: a writer appends to ``*.part`` files and
  promotes every shard with ``os.replace`` at :meth:`ShardedCorpusWriter.close`,
  so a killed ingest never leaves a half-visible store;
* reads are **iterator-based** (:meth:`ShardedCorpusStore.iter_shard_gpts`)
  — a consumer holds one record at a time, never the whole corpus;
* every shard carries a **content fingerprint** (SHA-256 of its bytes) in
  ``manifest.json``; :meth:`ShardedCorpusStore.fingerprint` combines them
  into a content address that plugs straight into the PR-3
  :class:`~repro.io.artifacts.ArtifactStore`
  (:meth:`ShardedCorpusStore.register_in`).

Layout::

    <root>/
      manifest.json        # schema, shard count, per-shard fingerprints, corpus metadata
      gpts-00000.jsonl     # one GPT record per line (see repro.io.corpus.gpt_to_payload)
      policies-00000.jsonl # one policy fetch record per line

The store is a *serialization* of a :class:`~repro.crawler.corpus.CrawlCorpus`.
Since schema 2, every GPT record carries its **global discovery index** — the
record's position in the crawl coordinator's identifier listing order (the
same order an unsharded crawl merges records into the corpus; unresolved
identifiers consume an index, so indices may have holes).  Both write paths
stamp identical indices, which makes two things possible:

* :meth:`ShardedCorpusStore.iter_records` streams the whole store in exact
  discovery order with O(n_shards) memory (each shard file is written
  index-ascending, so a k-way heap merge suffices — no sort);
* :meth:`ShardedCorpusStore.load_corpus` rebuilds a corpus whose record
  order is byte-identical to the unsharded crawl, so order-sensitive
  consumers (seeded description sampling, classification batching) no
  longer need a second, unsharded crawl.

Policy records carry no index: the crawl fetches policies in sorted-URL
order, so the discovery order of policies is reconstructed by sorting.
Schema-1 stores (no per-record index) remain readable; their iteration
order falls back to shard-major, exactly as before the schema bump.

Since schema 3 the manifest additionally records **epoch lineage** —
``(epoch, parent_fingerprint)`` — so a store produced by the incremental
crawl (:meth:`repro.crawler.pipeline.CrawlPipeline.run_incremental`)
names exactly which prior store it was derived from, and
:meth:`ShardedCorpusStore.register_delta_in` publishes the epoch as a
*delta* over its parent in the :class:`~repro.io.artifacts.ArtifactStore`
(only the shards whose fingerprints changed).  Lineage fields are emitted
only at schema >= 3, so schema-1/2 manifests — and therefore their
content fingerprints — are unchanged.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.crawler.corpus import CrawlCorpus, CrawledAction, CrawledGPT
from repro.crawler.policy_fetcher import PolicyFetchResult
from repro.io.artifacts import ArtifactStore, canonical_json, config_fingerprint
from repro.io.corpus import gpt_to_payload, policy_from_payload, policy_to_payload

#: Bump when the shard file layout changes; readers refuse newer schemas.
#: Schema history: 1 = hash-sharded JSONL records; 2 = every GPT record
#: additionally carries its global ``discovery_index``; 3 = the manifest
#: carries epoch lineage (``epoch``, ``parent_fingerprint``).
SHARD_SCHEMA_VERSION = 3

#: Extra key stamped onto each GPT record payload (schema >= 2).
DISCOVERY_INDEX_KEY = "discovery_index"

_MANIFEST_FILE = "manifest.json"

#: Artifact-store kind under which shard manifests are registered.
SHARD_ARTIFACT_KIND = "corpus-shards"

#: Artifact-store kind under which epoch deltas are registered.
SHARD_DELTA_ARTIFACT_KIND = "corpus-shard-delta"


def shard_index(key: str, n_shards: int) -> int:
    """Deterministic shard route for a record key.

    Uses the first 8 bytes of SHA-256 so the route is stable across Python
    processes and versions (``hash()`` is salted per process and therefore
    unusable for on-disk partitioning).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


def _shard_name(kind: str, index: int) -> str:
    return f"{kind}-{index:05d}.jsonl"


def _gpt_from_trusted_payload(payload: Dict[str, object]) -> CrawledGPT:
    """Rebuild a GPT from a shard record without defensive coercion.

    Shard files are written by this module (full canonical payloads, every
    field present and correctly typed) and are fingerprint-verified, so the
    hot read path skips the ``str()``/``get()`` defenses of the interchange
    parser (:func:`repro.io.corpus.gpt_from_payload`) — roughly halving
    per-record decode cost, which dominates streaming analysis time.
    """
    return CrawledGPT(
        gpt_id=payload["gpt_id"],
        name=payload["name"],
        description=payload["description"],
        author_name=payload["author_name"],
        author_website=payload["author_website"],
        vendor_domain=payload["vendor_domain"],
        tags=payload["tags"],
        tool_types=payload["tool_types"],
        actions=[
            CrawledAction(
                action_id=entry["action_id"],
                title=entry["title"],
                description=entry["description"],
                server_url=entry["server_url"],
                legal_info_url=entry["legal_info_url"],
                functionality=entry["functionality"],
                auth_type=entry["auth_type"],
                parameters=[tuple(parameter) for parameter in entry["parameters"]],
            )
            for entry in payload["actions"]
        ],
        n_files=payload["n_files"],
        source_stores=payload["source_stores"],
    )


# ---------------------------------------------------------------------------
# Raw shard lines: scans and splices that skip the JSON round trip
# ---------------------------------------------------------------------------
#: Structural key markers in canonical-JSON shard lines.  canonical_json
#: escapes quotes inside string values, so the unescaped marker can only
#: occur as the record's own key — a substring scan replaces a full JSON
#: parse on the incremental crawl's carry path and the longitudinal
#: inventory.
_GPT_ID_MARKER = '"gpt_id":"'
_POLICY_URL_MARKER = '"url":"'


def _scan_string_field(line: str, marker: str, key: str) -> str:
    """Extract one top-level string field from a canonical-JSON line."""
    start = line.find(marker)
    if start >= 0:
        start += len(marker)
        end = line.index('"', start)
        value = line[start:end]
        if "\\" not in value:
            return value
    # Escaped or missing value: fall back to a real parse (never hit by
    # generated ids/URLs, which are plain ASCII without quotes).
    return str(json.loads(line)[key])


def _payload_gpt_id(line: str) -> str:
    """``gpt_id`` of one GPT shard line, without parsing the record."""
    return _scan_string_field(line, _GPT_ID_MARKER, "gpt_id")


def _payload_policy_url(line: str) -> str:
    """``url`` of one policy shard line, without parsing the record."""
    return _scan_string_field(line, _POLICY_URL_MARKER, "url")


_DISCOVERY_INDEX_MARKER = '"discovery_index":'
_SOURCE_STORES_MARKER = '"source_stores":['
_LEGAL_INFO_MARKER = '"legal_info_url":"'


def _serialize_store_list(stores: Sequence[str]) -> Optional[str]:
    """``canonical_json`` of a flat store-name list, without the encoder.

    Valid only for names that need no JSON escaping (anything the generator
    produces; ``ensure_ascii=False`` keeps non-ASCII raw, so only quotes,
    backslashes, and control characters disqualify a name).  Returns
    ``None`` when a name would need escaping — callers fall back to the
    real encoder path.
    """
    for store in stores:
        if '"' in store or "\\" in store or any(ord(char) < 0x20 for char in store):
            return None
    return "[" + ",".join(f'"{store}"' for store in stores) + "]"


def _restamp_carried_line(line: str, discovery_index: int, stores_json: str) -> Optional[str]:
    """Splice the two epoch-local fields into a carried record's raw line.

    A carried record's *content* bytes are already canonical (the parent
    wrote them with :func:`canonical_json`, which is deterministic), so the
    only bytes that change between epochs are the ``discovery_index`` value
    and the ``source_stores`` array — both epoch-N+1 facts.  Splicing them
    in place (``stores_json`` is the pre-serialized replacement array)
    yields the exact line a fresh serialization would produce at a fraction
    of the cost of the ``json.loads``/re-dump round trip, which is what
    dominated the carry phase's wall time at 50k records.  Returns ``None``
    when the line doesn't match the expected shape (the caller falls back
    to a real parse).
    """
    start = line.find(_DISCOVERY_INDEX_MARKER)
    if start < 0:
        return None
    start += len(_DISCOVERY_INDEX_MARKER)
    end = start
    while end < len(line) and line[end].isdigit():
        end += 1
    if end == start or end >= len(line) or line[end] not in ",}":
        return None
    line = f"{line[:start]}{discovery_index}{line[end:]}"

    start = line.find(_SOURCE_STORES_MARKER)
    if start < 0:
        return None
    start += len(_SOURCE_STORES_MARKER) - 1  # index of the opening '['
    end = line.find("]", start)
    if end < 0 or end + 1 >= len(line) or line[end + 1] not in ",}":
        return None
    segment = line[start:end]
    # The first ']' is the array's close only if no store name hides one
    # inside a string: no escapes, balanced quotes, and a single '[' mean
    # every quote in the segment is a real delimiter and the array is flat.
    if "\\" in segment or segment.count('"') % 2 or segment.count("[") != 1:
        return None
    return f"{line[:start]}{stores_json}{line[end + 1:]}"


def _scan_policy_urls(line: str) -> Optional[List[str]]:
    """Every action ``legal_info_url`` in a GPT record's raw line.

    Returns ``None`` when any URL contains an escape sequence (the caller
    must fall back to parsing the record); ``null`` and empty URLs simply
    don't match the marker or are dropped.
    """
    urls: List[str] = []
    cursor = 0
    while True:
        cursor = line.find(_LEGAL_INFO_MARKER, cursor)
        if cursor < 0:
            return urls
        cursor += len(_LEGAL_INFO_MARKER)
        end = line.index('"', cursor)
        value = line[cursor:end]
        if "\\" in value:
            return None
        if value:
            urls.append(value)
        cursor = end


def gpt_content_key(payload: Mapping[str, object]) -> bytes:
    """Content key of one GPT record payload.

    The 32-byte SHA-256 digest of its canonical JSON with the two
    epoch-local fields normalized (``discovery_index`` 0, ``source_stores``
    empty), so a record that only moved in the frontier or between stores
    keeps its key.  Keys are only compared for equality, so they are kept
    as raw digests rather than hex strings.
    """
    normalized = dict(payload)
    normalized[DISCOVERY_INDEX_KEY] = 0
    normalized["source_stores"] = []
    return hashlib.sha256(canonical_json(normalized).encode("utf-8")).digest()


def gpt_line_content_key(line: str) -> bytes:
    """:func:`gpt_content_key` of one GPT shard line, read from its bytes.

    The carry path's splice normalizes the two fields in place; a line it
    refuses is parsed instead.  For a line the shard writer wrote (canonical
    JSON), either way the key equals ``gpt_content_key(json.loads(line))``.
    """
    normalized = _restamp_carried_line(line, 0, "[]")
    if normalized is None:
        return gpt_content_key(json.loads(line))
    return hashlib.sha256(normalized.encode("utf-8")).digest()


@dataclass(frozen=True)
class ShardInfo:
    """Manifest metadata for one shard file."""

    name: str
    n_records: int
    fingerprint: str


@dataclass
class ShardManifest:
    """Everything ``manifest.json`` records about a sharded corpus."""

    n_shards: int
    gpt_shards: List[ShardInfo] = field(default_factory=list)
    policy_shards: List[ShardInfo] = field(default_factory=list)
    #: Corpus-level metadata that is not per-record (Table 1 inputs).
    store_counts: Dict[str, int] = field(default_factory=dict)
    store_link_counts: Dict[str, int] = field(default_factory=dict)
    unresolved_gpt_ids: List[str] = field(default_factory=list)
    schema: int = SHARD_SCHEMA_VERSION
    #: Epoch lineage (schema >= 3): which crawl epoch this store captures
    #: and the content fingerprint of the store it was derived from
    #: (``None`` for a base snapshot with no parent).
    epoch: int = 0
    parent_fingerprint: Optional[str] = None

    def __post_init__(self) -> None:
        # One key order per store: the shard-partitioned crawl accumulates
        # these maps in partition-completion order, the unsharded path in
        # corpus order.  Key-sorting them here makes the store a writer
        # returns, the same store reopened, and ``manifest.json`` (hence
        # the store fingerprint) agree.
        self.store_counts = dict(sorted(self.store_counts.items()))
        self.store_link_counts = dict(sorted(self.store_link_counts.items()))

    @property
    def supports_discovery_order(self) -> bool:
        """Whether GPT records carry a global discovery index (schema >= 2)."""
        return self.schema >= 2

    @property
    def supports_lineage(self) -> bool:
        """Whether the manifest records epoch lineage (schema >= 3)."""
        return self.schema >= 3

    @property
    def n_gpts(self) -> int:
        """Total GPT records across all shards."""
        return sum(info.n_records for info in self.gpt_shards)

    @property
    def n_policies(self) -> int:
        """Total policy records across all shards."""
        return sum(info.n_records for info in self.policy_shards)

    def to_payload(self) -> Dict[str, object]:
        """The JSON payload written to ``manifest.json``.

        Lineage keys are emitted only at schema >= 3, so the payloads (and
        content fingerprints) of schema-1/2 stores are byte-for-byte what
        they were before lineage existed.
        """
        payload: Dict[str, object] = {
            "schema": self.schema,
            "n_shards": self.n_shards,
            "gpt_shards": [
                {"name": info.name, "n_records": info.n_records, "fingerprint": info.fingerprint}
                for info in self.gpt_shards
            ],
            "policy_shards": [
                {"name": info.name, "n_records": info.n_records, "fingerprint": info.fingerprint}
                for info in self.policy_shards
            ],
            "store_counts": self.store_counts,
            "store_link_counts": self.store_link_counts,
            "unresolved_gpt_ids": self.unresolved_gpt_ids,
        }
        if self.schema >= 3:
            payload["epoch"] = self.epoch
            payload["parent_fingerprint"] = self.parent_fingerprint
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ShardManifest":
        """Parse a ``manifest.json`` payload."""
        schema = int(payload.get("schema", 0))
        if schema > SHARD_SCHEMA_VERSION:
            raise ValueError(
                f"shard manifest schema {schema} is newer than supported "
                f"({SHARD_SCHEMA_VERSION}); upgrade the reader"
            )

        def infos(key: str) -> List[ShardInfo]:
            return [
                ShardInfo(
                    name=str(entry["name"]),
                    n_records=int(entry["n_records"]),
                    fingerprint=str(entry["fingerprint"]),
                )
                for entry in payload.get(key, [])
            ]

        parent = payload.get("parent_fingerprint")
        return cls(
            n_shards=int(payload["n_shards"]),
            gpt_shards=infos("gpt_shards"),
            policy_shards=infos("policy_shards"),
            store_counts=dict(payload.get("store_counts", {})),
            store_link_counts=dict(payload.get("store_link_counts", {})),
            unresolved_gpt_ids=list(payload.get("unresolved_gpt_ids", [])),
            schema=schema,
            epoch=int(payload.get("epoch", 0)),
            parent_fingerprint=str(parent) if parent is not None else None,
        )


class _ShardFile:
    """One shard file being written: buffered lines + an incremental hash."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.part = path.with_name(path.name + ".part")
        # A killed writer can leave a flushed .part behind; appending to it
        # would publish the dead run's records under fingerprints computed
        # only from the new ones.  Every writer starts its shards empty.
        self.part.unlink(missing_ok=True)
        self.n_records = 0
        self._hash = hashlib.sha256()
        self._buffer: List[str] = []

    def add(self, payload: object) -> None:
        self.add_line(canonical_json(payload))

    def add_line(self, line: str) -> None:
        """Append one pre-serialized canonical-JSON record (no newline)."""
        line = line + "\n"
        self._buffer.append(line)
        self._hash.update(line.encode("utf-8"))
        self.n_records += 1

    def flush(self) -> None:
        if not self._buffer:
            # Touch the part file so every shard exists even when empty.
            self.part.touch()
            return
        with self.part.open("a", encoding="utf-8") as handle:
            handle.write("".join(self._buffer))
        self._buffer = []

    def promote(self) -> ShardInfo:
        """Flush remaining records and atomically publish the shard."""
        self.flush()
        os.replace(self.part, self.path)
        return ShardInfo(
            name=self.path.name, n_records=self.n_records, fingerprint=self._hash.hexdigest()
        )


class ShardedCorpusWriter:
    """Incremental, memory-bounded writer for a sharded corpus.

    Records are routed to shards by key hash, buffered, and appended to
    hidden ``*.part`` files every ``flush_every`` records — so peak memory
    is bounded by the flush interval, not the corpus size.  :meth:`close`
    promotes every ``*.part`` file with an atomic rename and writes the
    manifest last, so a reader either sees a complete store or none at all.
    """

    def __init__(
        self,
        root: Union[str, Path],
        n_shards: int,
        flush_every: int = 1000,
        epoch: int = 0,
        parent_fingerprint: Optional[str] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.n_shards = n_shards
        self.flush_every = max(1, flush_every)
        self.epoch = epoch
        self.parent_fingerprint = parent_fingerprint
        self._gpt_shards = [
            _ShardFile(self.root / _shard_name("gpts", index)) for index in range(n_shards)
        ]
        self._policy_shards = [
            _ShardFile(self.root / _shard_name("policies", index)) for index in range(n_shards)
        ]
        self._since_flush = 0
        self._closed = False
        self._auto_discovery_index = 0
        self.store_counts: Dict[str, int] = {}
        self.store_link_counts: Dict[str, int] = {}
        self.unresolved_gpt_ids: List[str] = []

    # ------------------------------------------------------------------
    def _count(self) -> None:
        self._since_flush += 1
        if self._since_flush >= self.flush_every:
            self.flush()

    def add_gpt(self, gpt: CrawledGPT, discovery_index: Optional[int] = None) -> int:
        """Append one GPT record; returns the shard index it landed in.

        ``discovery_index`` is the record's position in the crawl
        coordinator's global listing order; the sharded crawl passes it
        explicitly.  When omitted (hand-built corpora, the lazy ecosystem
        generator), records are stamped with their submission order —
        which *is* the discovery order on those paths.  Within one shard,
        indices must be added in ascending order; the streaming
        discovery-order merge relies on it.
        """
        if discovery_index is None:
            discovery_index = self._auto_discovery_index
        self._auto_discovery_index = max(self._auto_discovery_index, discovery_index) + 1
        index = shard_index(gpt.gpt_id, self.n_shards)
        payload = gpt_to_payload(gpt)
        payload[DISCOVERY_INDEX_KEY] = discovery_index
        self._gpt_shards[index].add(payload)
        for store in gpt.source_stores:
            self.store_counts[store] = self.store_counts.get(store, 0) + 1
        self._count()
        return index

    def add_gpt_payload(self, payload: Dict[str, object], discovery_index: int) -> int:
        """Append one *already-serialized* GPT record (the carry-forward path).

        The incremental crawl streams unchanged records straight out of the
        parent epoch's shard files as payload dicts; re-stamping the
        discovery index here (and accumulating store counts from the
        payload) skips the payload→:class:`CrawledGPT`→payload round trip.
        Bytes written are identical to :meth:`add_gpt` of the equivalent
        record because :func:`canonical_json` sorts keys.
        """
        payload[DISCOVERY_INDEX_KEY] = discovery_index
        self._auto_discovery_index = max(self._auto_discovery_index, discovery_index) + 1
        index = shard_index(str(payload["gpt_id"]), self.n_shards)
        self._gpt_shards[index].add(payload)
        for store in payload.get("source_stores", []):
            self.store_counts[store] = self.store_counts.get(store, 0) + 1
        self._count()
        return index

    def add_gpt_line(
        self,
        line: str,
        gpt_id: str,
        discovery_index: int,
        source_stores: Sequence[str],
    ) -> int:
        """Append one pre-serialized GPT record line (the fast carry path).

        ``line`` must be the exact canonical-JSON record bytes to publish —
        discovery index and source stores already re-stamped by the caller's
        in-place splice — without a trailing newline.  The writer does only
        the bookkeeping it cannot read from the bytes for free (shard
        routing, the ascending-index watermark, store-count accumulation),
        all from the explicit arguments, so the record is never parsed or
        re-serialized.  This is what makes carrying 95% of a 50k-record
        store an I/O-bound copy instead of a JSON round trip per record.
        """
        self._auto_discovery_index = max(self._auto_discovery_index, discovery_index) + 1
        index = shard_index(gpt_id, self.n_shards)
        self._gpt_shards[index].add_line(line)
        for store in source_stores:
            self.store_counts[store] = self.store_counts.get(store, 0) + 1
        self._count()
        return index

    def add_policy(self, result: PolicyFetchResult) -> int:
        """Append one policy fetch record; returns its shard index."""
        index = shard_index(result.url, self.n_shards)
        self._policy_shards[index].add(policy_to_payload(result))
        self._count()
        return index

    def add_policy_payload(self, url: str, payload: Dict[str, object]) -> int:
        """Append one already-serialized policy record (carry-forward path)."""
        index = shard_index(url, self.n_shards)
        self._policy_shards[index].add(payload)
        self._count()
        return index

    def set_metadata(
        self,
        store_counts: Optional[Mapping[str, int]] = None,
        store_link_counts: Optional[Mapping[str, int]] = None,
        unresolved_gpt_ids: Optional[List[str]] = None,
    ) -> None:
        """Record corpus-level metadata carried by the manifest.

        ``store_counts`` overrides the counts accumulated from GPT records
        (use when the source corpus tracks them independently).
        """
        if store_counts is not None:
            self.store_counts = dict(store_counts)
        if store_link_counts is not None:
            self.store_link_counts = dict(store_link_counts)
        if unresolved_gpt_ids is not None:
            self.unresolved_gpt_ids = list(unresolved_gpt_ids)

    def flush(self) -> None:
        """Append buffered records to the hidden ``*.part`` shard files."""
        for shard in self._gpt_shards:
            shard.flush()
        for shard in self._policy_shards:
            shard.flush()
        self._since_flush = 0

    def close(self) -> "ShardedCorpusStore":
        """Atomically publish every shard, write the manifest, open the store."""
        if self._closed:
            raise RuntimeError("writer is already closed")
        self._closed = True
        manifest = ShardManifest(
            n_shards=self.n_shards,
            gpt_shards=[shard.promote() for shard in self._gpt_shards],
            policy_shards=[shard.promote() for shard in self._policy_shards],
            store_counts=self.store_counts,
            store_link_counts=self.store_link_counts,
            unresolved_gpt_ids=list(self.unresolved_gpt_ids),
            epoch=self.epoch,
            parent_fingerprint=self.parent_fingerprint,
        )
        manifest_path = self.root / _MANIFEST_FILE
        temp = manifest_path.with_suffix(".json.tmp")
        temp.write_text(
            json.dumps(manifest.to_payload(), indent=2, ensure_ascii=False), encoding="utf-8"
        )
        os.replace(temp, manifest_path)
        return ShardedCorpusStore(self.root, manifest=manifest)

    # Context-manager sugar: ``with ShardedCorpusWriter(...) as writer``.
    def __enter__(self) -> "ShardedCorpusWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._closed:
            self.close()


class ShardedCorpusStore:
    """A read view over a sharded corpus directory."""

    def __init__(
        self, root: Union[str, Path], manifest: Optional[ShardManifest] = None
    ) -> None:
        self.root = Path(root)
        if manifest is None:
            path = self.root / _MANIFEST_FILE
            if not path.exists():
                raise FileNotFoundError(f"no shard manifest at {path}")
            manifest = ShardManifest.from_payload(
                json.loads(path.read_text(encoding="utf-8"))
            )
        self.manifest = manifest

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def write_corpus(
        cls,
        corpus: CrawlCorpus,
        root: Union[str, Path],
        n_shards: int,
        flush_every: int = 1000,
        epoch: int = 0,
        parent_fingerprint: Optional[str] = None,
    ) -> "ShardedCorpusStore":
        """Shard an in-memory corpus to ``root`` and return the store.

        When the corpus carries crawl-stamped discovery indices (an
        unsharded pipeline run, or a corpus rebuilt by :meth:`load_corpus`),
        records are stamped with those exact indices so re-sharding is
        byte-identical to the sharded crawl's own store.  Hand-built
        corpora without indices fall back to insertion order.  ``epoch``
        and ``parent_fingerprint`` stamp the manifest's lineage (byte-
        identity tests stamp the cold-crawl oracle with the incremental
        store's lineage this way).
        """
        writer = ShardedCorpusWriter(
            root,
            n_shards,
            flush_every=flush_every,
            epoch=epoch,
            parent_fingerprint=parent_fingerprint,
        )
        carried = corpus.discovery_indices if len(
            corpus.discovery_indices
        ) == len(corpus.gpts) else None
        for position, gpt in enumerate(corpus.iter_gpts()):
            writer.add_gpt(
                gpt,
                discovery_index=position if carried is None else carried[gpt.gpt_id],
            )
        for result in corpus.policies.values():
            writer.add_policy(result)
        writer.set_metadata(
            store_counts=corpus.store_counts,
            store_link_counts=corpus.store_link_counts,
            unresolved_gpt_ids=corpus.unresolved_gpt_ids,
        )
        return writer.close()

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of shards in this store."""
        return self.manifest.n_shards

    @property
    def n_gpts(self) -> int:
        """Total GPT records in this store."""
        return self.manifest.n_gpts

    @property
    def store_counts(self) -> Dict[str, int]:
        """Store name → GPTs successfully crawled from that store."""
        return self.manifest.store_counts

    @property
    def unresolved_gpt_ids(self) -> List[str]:
        """GPT identifiers that failed to resolve."""
        return self.manifest.unresolved_gpt_ids

    # ------------------------------------------------------------------
    # Iteration (memory-bounded)
    # ------------------------------------------------------------------
    def _iter_lines(self, name: str) -> Iterator[str]:
        path = self.root / name
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield line

    def iter_shard_lines(self, kind: str, index: int) -> Iterator[str]:
        """Stream one shard file's raw canonical-JSON record lines.

        ``kind`` is ``"gpts"`` or ``"policies"``.  The incremental crawl's
        carry-forward path reads these directly: unchanged records move from
        epoch N to epoch N+1 as bytes (plus a re-stamped discovery index),
        never through a decode → re-encode round trip.
        """
        if kind == "gpts":
            infos = self.manifest.gpt_shards
        elif kind == "policies":
            infos = self.manifest.policy_shards
        else:
            raise ValueError(f"unknown shard kind {kind!r} (want 'gpts' or 'policies')")
        return self._iter_lines(infos[index].name)

    def iter_content_keys(self) -> Iterator[Tuple[str, bytes]]:
        """Stream every GPT record's ``(gpt_id, content key)``, shard-major.

        Keys are 32-byte digests read from the raw lines
        (:func:`gpt_line_content_key`), so no record is parsed unless its
        line takes the slow path.
        """
        for index in range(self.n_shards):
            for line in self.iter_shard_lines("gpts", index):
                yield _payload_gpt_id(line), gpt_line_content_key(line)

    def iter_shard_gpts(self, index: int) -> Iterator[CrawledGPT]:
        """Stream the GPT records of one shard (one object live at a time)."""
        for line in self._iter_lines(self.manifest.gpt_shards[index].name):
            yield _gpt_from_trusted_payload(json.loads(line))

    def iter_shard_gpts_indexed(self, index: int) -> Iterator[Tuple[int, CrawledGPT]]:
        """Stream one shard's ``(discovery_index, gpt)`` pairs (schema >= 2).

        Every write path appends records index-ascending within a shard;
        this guard turns a violated invariant into a loud error instead of
        a silently misordered merge.
        """
        if not self.manifest.supports_discovery_order:
            raise ValueError(
                "store predates discovery indices (shard schema "
                f"{self.manifest.schema}); only shard-major iteration is available"
            )
        previous = -1
        for line in self._iter_lines(self.manifest.gpt_shards[index].name):
            payload = json.loads(line)
            discovery_index = int(payload[DISCOVERY_INDEX_KEY])
            if discovery_index <= previous:
                raise ValueError(
                    f"shard {index} is not discovery-index-ascending "
                    f"({discovery_index} after {previous}); the store is corrupt"
                )
            previous = discovery_index
            yield discovery_index, _gpt_from_trusted_payload(payload)

    def iter_indexed_gpts(self) -> Iterator[Tuple[int, CrawledGPT]]:
        """Stream every ``(discovery_index, gpt)`` pair in discovery order.

        A k-way heap merge over the (index-ascending) shard streams: peak
        memory is one record per shard, not the corpus.
        """
        streams = [self.iter_shard_gpts_indexed(i) for i in range(self.n_shards)]
        return heapq.merge(*streams, key=lambda pair: pair[0])

    def iter_gpts(self) -> Iterator[CrawledGPT]:
        """Stream every GPT record, shard-major."""
        for index in range(self.n_shards):
            yield from self.iter_shard_gpts(index)

    # ------------------------------------------------------------------
    # CorpusSource protocol (see repro.io.CorpusSource)
    # ------------------------------------------------------------------
    def iter_records(self) -> Iterator[CrawledGPT]:
        """Stream every GPT record in global discovery order.

        Schema-1 stores carry no index; they fall back to shard-major
        order (the only order they ever had).
        """
        if not self.manifest.supports_discovery_order:
            yield from self.iter_gpts()
            return
        for _, gpt in self.iter_indexed_gpts():
            yield gpt

    def iter_shard(self, index: int) -> Iterator[CrawledGPT]:
        """Stream one shard's records (protocol alias of iter_shard_gpts)."""
        return self.iter_shard_gpts(index)

    @property
    def n_records(self) -> int:
        """Total GPT records (protocol alias of :attr:`n_gpts`)."""
        return self.manifest.n_gpts

    def iter_shard_policies(self, index: int) -> Iterator[PolicyFetchResult]:
        """Stream the policy records of one shard."""
        for line in self._iter_lines(self.manifest.policy_shards[index].name):
            yield policy_from_payload(json.loads(line))

    def iter_policies(self) -> Iterator[PolicyFetchResult]:
        """Stream every policy record, shard-major."""
        for index in range(self.n_shards):
            yield from self.iter_shard_policies(index)

    def available_policy_urls(self) -> set:
        """URLs whose policy was fetched successfully (text present).

        Memory is O(#policy URLs), not O(total policy text): the texts are
        discarded as the stream advances.
        """
        available = set()
        for result in self.iter_policies():
            if result.ok and result.text is not None:
                available.add(result.url)
        return available

    # ------------------------------------------------------------------
    # Full materialization (for compatibility / identity checks)
    # ------------------------------------------------------------------
    def load_corpus(self) -> CrawlCorpus:
        """Rebuild the full in-memory corpus in exact discovery order.

        Record order matches the unsharded crawl byte-for-byte (schema >= 2;
        legacy stores fall back to shard-major order), and the rebuilt
        corpus carries its discovery indices, so re-sharding it round-trips
        to an identical store.  Policies are inserted in sorted-URL order —
        the order the crawl fetches them.

        This materializes the whole corpus and defeats the purpose of
        sharding at 100k scale: analysis code must stream via
        :meth:`iter_records` / the accumulators in
        :mod:`repro.analysis.streaming` instead (machine-enforced by
        ``make lint``); ``load_corpus`` exists for the compatibility path
        and for byte-identity tests.
        """
        corpus = CrawlCorpus()
        if self.manifest.supports_discovery_order:
            for discovery_index, gpt in self.iter_indexed_gpts():
                corpus.gpts[gpt.gpt_id] = gpt
                corpus.discovery_indices[gpt.gpt_id] = discovery_index
        else:
            for gpt in self.iter_gpts():
                corpus.gpts[gpt.gpt_id] = gpt
        for result in sorted(self.iter_policies(), key=lambda entry: entry.url):
            corpus.policies[result.url] = result
        corpus.store_counts = dict(self.manifest.store_counts)
        corpus.store_link_counts = dict(self.manifest.store_link_counts)
        corpus.unresolved_gpt_ids = list(self.manifest.unresolved_gpt_ids)
        return corpus

    # ------------------------------------------------------------------
    # Fingerprints and artifact-store integration
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content address of the whole store (from the shard fingerprints).

        Two stores with identical records in identical shard order share a
        fingerprint regardless of where on disk they live.
        """
        return config_fingerprint(self.manifest.to_payload())

    def verify(self) -> List[str]:
        """Re-hash every shard; returns the names of corrupted shards."""
        corrupted: List[str] = []
        for info in self.manifest.gpt_shards + self.manifest.policy_shards:
            path = self.root / info.name
            digest = hashlib.sha256()
            try:
                with path.open("rb") as handle:
                    for chunk in iter(lambda: handle.read(1 << 20), b""):
                        digest.update(chunk)
            except OSError:
                corrupted.append(info.name)
                continue
            if digest.hexdigest() != info.fingerprint:
                corrupted.append(info.name)
        return corrupted

    def register_in(self, store: ArtifactStore) -> str:
        """Record this store's manifest in a content-addressed artifact store.

        The manifest (with its per-shard fingerprints) is stored under the
        store's own content address, so sweep-style pipelines can test
        whether an identical sharded corpus already exists anywhere without
        reading a single shard.  Returns the fingerprint used as the key.
        """
        fingerprint = self.fingerprint()
        payload = dict(self.manifest.to_payload())
        payload["root"] = str(self.root)
        store.put(SHARD_ARTIFACT_KIND, fingerprint, payload)
        return fingerprint

    def register_delta_in(
        self, store: ArtifactStore, parent: "ShardedCorpusStore"
    ) -> str:
        """Publish this store as an epoch *delta* over ``parent``.

        Instead of re-registering every shard, the delta artifact names only
        the shards whose content fingerprints differ from the parent's —
        for a 5%-churned epoch that is the whole story of what changed.  The
        artifact is keyed by this store's content address (same key space
        as :meth:`register_in`) under :data:`SHARD_DELTA_ARTIFACT_KIND`.
        Refuses a parent the manifest does not actually descend from, so a
        delta can never silently point at the wrong lineage.
        """
        parent_fingerprint = parent.fingerprint()
        if self.manifest.parent_fingerprint != parent_fingerprint:
            raise ValueError(
                "store at "
                f"{self.root} records parent {self.manifest.parent_fingerprint!r}, "
                f"not {parent_fingerprint!r}; refusing to publish a delta over "
                "a store it was not derived from"
            )

        def changed(mine: List[ShardInfo], theirs: List[ShardInfo]) -> List[str]:
            prior = {info.name: info.fingerprint for info in theirs}
            return [
                info.name for info in mine if prior.get(info.name) != info.fingerprint
            ]

        fingerprint = self.fingerprint()
        payload: Dict[str, object] = {
            "epoch": self.manifest.epoch,
            "parent_fingerprint": parent_fingerprint,
            "changed_gpt_shards": changed(
                self.manifest.gpt_shards, parent.manifest.gpt_shards
            ),
            "changed_policy_shards": changed(
                self.manifest.policy_shards, parent.manifest.policy_shards
            ),
            "root": str(self.root),
        }
        store.put(SHARD_DELTA_ARTIFACT_KIND, fingerprint, payload)
        return fingerprint

    def summary(self) -> str:
        """One-line human-readable summary."""
        lineage = (
            f" (epoch {self.manifest.epoch})"
            if self.manifest.supports_lineage and self.manifest.epoch
            else ""
        )
        return (
            f"ShardedCorpusStore: {self.n_gpts} GPTs and "
            f"{self.manifest.n_policies} policies in {self.n_shards} shard(s) "
            f"at {self.root}{lineage}"
        )
