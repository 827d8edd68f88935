"""Persistence layer: corpora, shards, crawl checkpoints, and cached artifacts.

``repro.io`` groups four storage concerns behind one import surface.  They
form a hierarchy — **corpus → shards → artifacts** — that is now true
**end-to-end**: the shard layout is the native dataflow from the crawl
frontier all the way to the rendered report, and the whole-corpus layout is
the compatibility serialization.  Each layer answers a different question:

* :mod:`repro.io.corpus` — *"archive one dataset."*  Whole-corpus JSON
  serialization of crawl corpora and classification results (the paper
  releases both code and data).  Use it to export, share, and reload a
  single measurement run that fits in memory.
* :mod:`repro.io.shards` — *"stream a dataset that doesn't fit."*
  :class:`ShardedCorpusStore` hash-partitions GPT and policy records into N
  JSONL shards with atomic per-shard writes, a fingerprinted manifest, and
  iterator-based reads.  Records reach it two ways, which publish
  **byte-identical** stores: sharding an in-memory corpus
  (:meth:`ShardedCorpusStore.write_corpus`), or the shard-partitioned crawl
  (:meth:`repro.crawler.pipeline.CrawlPipeline.run_sharded`), whose
  per-shard sub-pipelines stream resolved GPTs and fetched policies
  straight into a :class:`ShardedCorpusWriter` — the same SHA-256 route
  (:func:`shard_index`) partitions the crawl frontier, the checkpoint
  files, and the stored records, so one shard is a self-consistent slice of
  the whole measurement.  Since manifest **schema 2**, every GPT record
  carries its global *discovery index* (its position in the coordinator's
  listing frontier), so the store can stream — or rebuild — the corpus in
  the exact order the unsharded crawl discovers it; schema-1 stores stay
  readable and fall back to shard-major order.  Every consumer that should
  hold one record (or one shard) at a time reads this format: the streaming
  analysis engine (:mod:`repro.analysis.streaming` — including the
  policy-record analyses, which never materialize the policy report, and
  the shard-partitioned classification pass), and the 100k-scale generation
  path.
* :mod:`repro.io.checkpoint` — *"survive a kill."*  Incremental, resumable,
  optionally shard-partitioned crawl checkpoints
  (:class:`CrawlCheckpoint`).  Use it for in-flight progress of one crawl;
  it stores raw task payloads, not analysis-ready records.  A sharded
  crawl's sub-pipelines append to their own checkpoint shard files
  (``stage_resolve.shard00003.jsonl``) — safe under thread *and* process
  parallelism, and resumable across backends and shard layouts.
* :mod:`repro.io.artifacts` — *"never compute the same thing twice."*  The
  content-addressed :class:`ArtifactStore` keyed by
  :func:`config_fingerprint`, which the sweep engine uses to skip
  recomputing unchanged experiment cells.  Shard manifests plug into it via
  :meth:`ShardedCorpusStore.register_in`, so a cached cell can point at a
  sharded corpus by content address instead of embedding it.  Atomic,
  pid-tagged writes make one directory shareable by thread pools and
  process pools alike.

On top of the shard layer sits the **epoch/lineage layer** — *"the store
is a living target."*  Since shard-manifest schema 3 every store records
``(epoch, parent_fingerprint)``: which crawl epoch it captures and the
content address of the store it was derived from.  The delta-aware
incremental crawl
(:meth:`repro.crawler.pipeline.CrawlPipeline.run_incremental`) produces
epoch N+1 by carrying unchanged records forward shard-locally from epoch N
(zero HTTP traffic for the ~95% that did not change) and re-stamping
discovery indices so the store is byte-identical to a cold crawl of the
evolved world (:mod:`repro.ecosystem.evolution`).  Epochs publish into the
artifact layer as *deltas* (:meth:`ShardedCorpusStore.register_delta_in`):
only the shards whose fingerprints changed are named, keyed under
:data:`~repro.io.shards.SHARD_DELTA_ARTIFACT_KIND`, so a longitudinal
series of N epochs costs O(churn), not O(N × corpus).

Rule of thumb: exporting results → ``corpus``; anything at 100k-GPT scale
(crawling included) → ``shards``; mid-crawl durability → ``checkpoint``;
cross-run caching → ``artifacts``.  Execution topology — shard count,
worker count, and the :mod:`repro.exec` backend — never changes stored
bytes, only how fast they are produced.

Consumers that only need *records* should not care which layout they are
reading.  :class:`CorpusSource` is that seam: the structural protocol
implemented by both :class:`~repro.crawler.corpus.CrawlCorpus` (in memory,
one shard) and :class:`ShardedCorpusStore` (on disk, N shards).  It gives
analyses, the streaming runner and the experiment sweep one API instead of
a branch on sharded-ness.
"""

from typing import Dict, Iterator, List, Protocol, Set, Tuple, runtime_checkable

from repro.crawler.corpus import CrawledGPT
from repro.crawler.policy_fetcher import PolicyFetchResult


@runtime_checkable
class CorpusSource(Protocol):
    """One read API over a crawled corpus, in memory or sharded on disk.

    The protocol is record-oriented: it exposes what order-sensitive
    consumers (seeded description sampling, classification batching) and
    the shard-parallel analysis runner need, and nothing that would force
    materializing the whole corpus.  The runner
    (:class:`~repro.analysis.streaming.ShardAnalysisRunner`) reads
    :meth:`iter_shard`, :meth:`iter_shard_gpts_indexed` and
    :meth:`iter_shard_policies` per shard, and :attr:`store_counts`,
    :attr:`unresolved_gpt_ids` and :meth:`available_policy_urls` when it
    finalizes.  Implementations: :class:`~repro.crawler.corpus.CrawlCorpus`
    (one shard) and :class:`~repro.io.shards.ShardedCorpusStore`.
    """

    def iter_records(self) -> Iterator[CrawledGPT]:
        """Stream every GPT record in global discovery order."""
        ...

    def iter_shard(self, index: int) -> Iterator[CrawledGPT]:
        """Stream the GPT records of one shard."""
        ...

    def iter_shard_gpts_indexed(self, index: int) -> Iterator[Tuple[int, CrawledGPT]]:
        """Stream one shard's ``(order key, gpt)`` pairs, keys ascending.

        Keys order records globally: sorting every shard's pairs by key
        gives the corpus's discovery order.
        """
        ...

    def iter_shard_policies(self, index: int) -> Iterator[PolicyFetchResult]:
        """Stream the policy records of one shard."""
        ...

    def available_policy_urls(self) -> Set[str]:
        """URLs whose policy was fetched successfully (text present)."""
        ...

    @property
    def store_counts(self) -> Dict[str, int]:
        """Store name → GPTs successfully crawled from that store."""
        ...

    @property
    def unresolved_gpt_ids(self) -> List[str]:
        """GPT identifiers that failed to resolve."""
        ...

    @property
    def n_shards(self) -> int:
        """Number of shards (1 for an in-memory corpus)."""
        ...

    @property
    def n_records(self) -> int:
        """Total number of GPT records."""
        ...

    def fingerprint(self) -> str:
        """Content address of the source's records and metadata."""
        ...

    def summary(self) -> str:
        """One-line human-readable summary."""
        ...

from repro.io.artifacts import (
    ArtifactRecord,
    ArtifactStore,
    ArtifactStoreStatistics,
    canonical_json,
    config_fingerprint,
)
from repro.io.checkpoint import CrawlCheckpoint
from repro.io.corpus import (
    classification_from_payload,
    classification_to_payload,
    corpus_from_payload,
    corpus_to_payload,
    gpt_from_payload,
    gpt_to_payload,
    load_classification,
    load_corpus,
    policies_to_payload,
    policy_from_payload,
    policy_to_payload,
    save_corpus,
)
from repro.io.shards import (
    SHARD_ARTIFACT_KIND,
    SHARD_DELTA_ARTIFACT_KIND,
    ShardedCorpusStore,
    ShardedCorpusWriter,
    ShardInfo,
    ShardManifest,
    shard_index,
)

__all__ = [
    "ArtifactRecord",
    "ArtifactStore",
    "ArtifactStoreStatistics",
    "CorpusSource",
    "CrawlCheckpoint",
    "SHARD_ARTIFACT_KIND",
    "SHARD_DELTA_ARTIFACT_KIND",
    "ShardInfo",
    "ShardManifest",
    "ShardedCorpusStore",
    "ShardedCorpusWriter",
    "canonical_json",
    "classification_from_payload",
    "classification_to_payload",
    "config_fingerprint",
    "corpus_from_payload",
    "corpus_to_payload",
    "gpt_from_payload",
    "gpt_to_payload",
    "load_classification",
    "load_corpus",
    "policies_to_payload",
    "policy_from_payload",
    "policy_to_payload",
    "save_corpus",
    "shard_index",
]
