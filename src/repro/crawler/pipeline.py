"""End-to-end crawl pipeline on the execution layer's worker pools.

``CrawlPipeline.from_ecosystem`` wires a :class:`SyntheticEcosystem` into a
simulated network — store servers, the gizmo manifest API, and the privacy
policy documents — and the pipeline then performs the crawl the paper
describes in Section 3.1 in three stages whose tasks run on a
:class:`~repro.exec.WorkerPool`:

1. **listing** — crawl every store's listing pages and extract GPT
   identifiers (one task per store);
2. **resolve** — de-duplicate identifiers across stores and resolve each one
   against the gizmo API (404s are recorded);
3. **policies** — fetch every Action's privacy policy once per unique URL
   (some fail with server errors, as in Section 5.1.1).

All network traffic goes through a
:class:`~repro.crawler.transport.RetryingTransport` (retry budgets, seeded
backoff, optional circuit breaking and simulated latency).  Every failure
and retry draw is a pure function of ``(seed, url, attempt)``, so a seeded
crawl is bit-reproducible at any worker count.  With a checkpoint directory,
completed task payloads are flushed through :class:`repro.io.CrawlCheckpoint`,
and a killed run restarted with ``resume=True`` skips what it already
fetched and produces identical output.

**One crawl, two sinks.**  Every entry point runs the same crawl and differs
only in where the records go:

* :meth:`CrawlPipeline.run` collects them into an in-memory
  :class:`CrawlCorpus`;
* :meth:`CrawlPipeline.run_sharded` and :meth:`CrawlPipeline.run_incremental`
  write them through a :class:`~repro.io.shards.ShardedCorpusWriter`, which
  publishes a :class:`~repro.io.shards.ShardedCorpusStore`.  A cold crawl
  is the case with no parent store: nothing is carried, and every
  identifier and policy URL is fetched.  An incremental epoch crawl (a
  world that churned, see :mod:`repro.ecosystem.evolution`) passes the
  previous epoch's store and its change feed: every frontier identifier the
  parent answered and the feed does not name, and every policy the parent
  fetched that neither drifted nor sits on a flapping host, is **carried
  forward without HTTP**, re-stamped with this epoch's discovery index and
  store attribution.

The crawl lists in the coordinator, partitions the identifier frontier by
SHA-256 hash (:func:`repro.io.shards.shard_index`), and runs each
partition's resolve and policy sub-stages as one pool task.  **How many
partitions:** a store crawl uses the store's ``shards``, because shard files
and carry-forward are per shard; an in-memory crawl has no on-disk layout
to keep and uses ``max(1, workers)``, one task per worker.  When a
partition's task completes, its records — merged in discovery order with the
lines it carries from the parent — go straight to the sink; partitions with
nothing to fetch follow after the phase.  The store crawl therefore holds
one partition's records at a time, plus O(#identifiers) routing metadata.
Each GPT record is stamped with its global **discovery index** (its position
in the listing frontier), and the in-memory sink orders records by it, so
the output is **byte-identical** at any partition count — on any pool, at
any worker count, cold, resumed or incremental.

On a process pool the picklable :class:`ShardCrawlSpec` (ecosystem, seed,
failure injection) is broadcast to each worker once and every partition's
sub-pipeline is rebuilt from it inside the worker, so the simulated network
is reconstructed, never inherited through fork, and per-task RNG re-seeding
keeps fork and spawn start methods in agreement.  On a thread pool the
partition tasks call the pipeline in-process and share one rate-limited
transport.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.crawler.corpus import CrawlCorpus, CrawledGPT
from repro.crawler.gizmo_api import GizmoAPIClient, GizmoAPIServer
from repro.crawler.http import SimulatedHTTPLayer
from repro.crawler.policy_fetcher import PolicyFetcher, PolicyFetchResult
from repro.crawler.store_crawler import StoreCrawler
from repro.crawler.store_server import GPTStoreServer, install_store_servers
from repro.crawler.transport import HostRateLimiter, RetryingTransport, TransportConfig
from repro.ecosystem.models import SyntheticEcosystem
from repro.exec import ExecOutcome, ExecTask, WorkerPool, make_pool, shared_state
from repro.io import CrawlCheckpoint, ShardedCorpusWriter, policy_from_payload, shard_index
from repro.io.shards import (
    _payload_gpt_id,
    _payload_policy_url,
    _restamp_carried_line,
    _scan_policy_urls,
    _serialize_store_list,
)
from repro.web.urls import url_host


@dataclass
class CrawlStatistics:
    """Aggregate statistics about one crawl run.

    Per-store numbers are not kept here: they live with the records, in
    ``CrawlCorpus.store_counts`` or the shard store's manifest.
    """

    n_unique_identifiers: int = 0
    n_resolved: int = 0
    n_unresolved: int = 0
    n_policy_urls: int = 0
    n_policy_failures: int = 0
    n_http_requests: int = 0
    #: Retry attempts the transport issued beyond first tries.
    n_retries: int = 0
    #: 429 retries honored via Retry-After (separate from error retries).
    n_ratelimit_retries: int = 0
    #: Tasks skipped because a checkpoint already held their results.
    n_tasks_resumed: int = 0
    #: GPT records carried forward from a parent epoch without any HTTP
    #: traffic (incremental crawls only).
    n_records_carried: int = 0
    #: Policy records carried forward from a parent epoch without HTTP.
    n_policies_carried: int = 0
    #: host → {failure kind → count} for terminal transport failures during
    #: this run (kinds: exhausted-retries / circuit-open / deadline /
    #: redirect-loop).  Hosts that appear here degraded visibly instead of
    #: losing records silently; see :attr:`quarantined_hosts`.
    host_failure_taxonomy: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def quarantined_hosts(self) -> List[str]:
        """Hosts with at least one terminal failure this run (sorted)."""
        return sorted(self.host_failure_taxonomy)

    def count_policy(self, result: PolicyFetchResult) -> None:
        """Count one policy URL written to the corpus (and its failure)."""
        self.n_policy_urls += 1
        if not result.ok:
            self.n_policy_failures += 1

    def add_network(self, counters: Mapping[str, object]) -> None:
        """Accumulate a network-counter delta (see
        :meth:`CrawlPipeline._network_delta`); missing keys count as zero."""
        self.n_http_requests += int(counters.get("n_http_requests", 0))
        self.n_retries += int(counters.get("n_retries", 0))
        self.n_ratelimit_retries += int(counters.get("n_ratelimit_retries", 0))
        _merge_taxonomy(self.host_failure_taxonomy, counters.get("host_taxonomy") or {})

    @property
    def resolution_rate(self) -> float:
        """Fraction of identifiers that resolved to a manifest."""
        total = self.n_resolved + self.n_unresolved
        return self.n_resolved / total if total else 0.0


def _taxonomy_snapshot(taxonomy: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
    """Deep-copy a per-host failure taxonomy (transport counters are
    cumulative across runs; snapshots keep statistics per-run)."""
    return {host: dict(kinds) for host, kinds in taxonomy.items()}


def _taxonomy_delta(
    before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Per-host counts accumulated between two snapshots."""
    delta: Dict[str, Dict[str, int]] = {}
    for host, kinds in after.items():
        base = before.get(host, {})
        grown = {
            kind: count - base.get(kind, 0)
            for kind, count in kinds.items()
            if count - base.get(kind, 0) > 0
        }
        if grown:
            delta[host] = grown
    return delta


def _merge_taxonomy(
    target: Dict[str, Dict[str, int]], delta: Dict[str, Dict[str, int]]
) -> None:
    """Accumulate a taxonomy delta (order-independent, so shard completion
    order cannot perturb the merged counts)."""
    for host, kinds in delta.items():
        bucket = target.setdefault(host, {})
        for kind, count in kinds.items():
            bucket[kind] = bucket.get(kind, 0) + count


def _encode_resolve(result: object) -> Dict[str, object]:
    """Checkpoint payload of one gizmo fetch."""
    return {"status": result.status, "manifest": result.manifest}


def _encode_policy(result: object) -> Dict[str, object]:
    """Checkpoint payload of one policy fetch."""
    return {"status": result.status, "text": result.text, "error": result.error}


def _policy_result(url: str, payload: Mapping[str, object]) -> PolicyFetchResult:
    """The :class:`PolicyFetchResult` an :func:`_encode_policy` payload holds."""
    return PolicyFetchResult(
        url=url,
        status=int(payload.get("status", 0)),
        text=payload.get("text"),
        error=payload.get("error"),
    )


def _record_policy_urls(record: Mapping[str, object]) -> List[str]:
    """Every action ``legal_info_url`` of a parsed GPT record."""
    urls = (action.get("legal_info_url") for action in record["actions"])
    return [url for url in urls if url]


class _CorpusSink:
    """The in-memory sink of :meth:`CrawlPipeline.run`.

    It takes the writer calls a cold crawl makes and builds a
    :class:`CrawlCorpus`.  Partitions complete in any order, so
    :meth:`close` inserts records by discovery index (filling per-store
    counts in that order) and policies by URL: the frontier order and the
    fetch order.
    """

    def __init__(self) -> None:
        self._gpts: List[Tuple[int, CrawledGPT]] = []
        self._policies: List[PolicyFetchResult] = []
        self._corpus = CrawlCorpus()

    def add_gpt(self, gpt: CrawledGPT, discovery_index: int) -> None:
        self._gpts.append((discovery_index, gpt))

    def add_policy(self, result: PolicyFetchResult) -> None:
        self._policies.append(result)

    def set_metadata(
        self, store_link_counts: Mapping[str, int], unresolved_gpt_ids: List[str]
    ) -> None:
        self._corpus.store_link_counts = dict(store_link_counts)
        self._corpus.unresolved_gpt_ids = list(unresolved_gpt_ids)

    def close(self) -> CrawlCorpus:
        corpus = self._corpus
        for discovery_index, gpt in sorted(self._gpts, key=lambda entry: entry[0]):
            corpus.gpts[gpt.gpt_id] = gpt
            corpus.discovery_indices[gpt.gpt_id] = discovery_index
            for store in gpt.source_stores:
                corpus.store_counts[store] = corpus.store_counts.get(store, 0) + 1
        for result in sorted(self._policies, key=lambda result: result.url):
            corpus.policies[result.url] = result
        return corpus


class CrawlPipeline:
    """Runs the store-crawl → manifest-resolve → policy-fetch pipeline.

    Parameters
    ----------
    http:
        The simulated network.
    store_servers:
        The installed store servers to crawl.
    page_size:
        Listing page size (mirrors the store servers' configuration).
    workers:
        Worker-pool size (``<= 1`` crawls sequentially).  An in-memory
        crawl (:meth:`run`) also partitions its frontier into
        ``max(1, workers)`` hash partitions, one task per worker.
    transport_config:
        Retry/backoff/latency knobs for the transport wrapper.
    rate_limits:
        Optional host → requests/second politeness limits, enforced by the
        transport before every attempt (pagination pages and retries each
        consume a token).
    checkpoint_dir:
        Directory for incremental stage checkpoints (``None`` disables).
    resume:
        Load existing checkpoints and skip completed tasks.  When false, any
        checkpoints in ``checkpoint_dir`` are cleared at run start.
    checkpoint_every:
        Flush the checkpoint after this many completed tasks.
    shards:
        Shard count of the store :meth:`run_sharded` and
        :meth:`run_incremental` publish, and so their partition count; the
        checkpoint keeps one file per partition.  :meth:`run` ignores it: a
        corpus has no on-disk layout, and the partition count changes no
        byte.
    backend:
        Execution backend for the partition tasks: ``"serial"``,
        ``"thread"``, ``"process"``, a borrowed
        :class:`~repro.exec.WorkerPool` (never closed here), or ``None``
        (serial at ``workers <= 1``, threads above).  The process kind
        requires an ecosystem-built pipeline (:meth:`from_ecosystem`), since
        workers reconstruct the simulated network from the ecosystem.  The
        listing stage runs on threads in this process whatever the backend:
        its tasks share the pipeline's transport.
    """

    def __init__(
        self,
        http: SimulatedHTTPLayer,
        store_servers: List[GPTStoreServer],
        page_size: int = 50,
        workers: int = 0,
        transport_config: Optional[TransportConfig] = None,
        rate_limits: Optional[Dict[str, float]] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        checkpoint_every: int = 100,
        shards: int = 1,
        backend: Union[str, WorkerPool, None] = None,
    ) -> None:
        self.http = http
        self.store_servers = store_servers
        self.page_size = page_size
        self.workers = workers
        # Accept a plain mapping (sweep scenarios store JSON overrides).
        transport_config = TransportConfig.coerce(transport_config)
        self.transport_config = transport_config
        self.rate_limits = dict(rate_limits) if rate_limits else None
        self.transport = RetryingTransport(
            http,
            transport_config,
            rate_limiter=HostRateLimiter(rate_limits) if rate_limits else None,
        )
        self.backend = backend
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.checkpoint_every = max(1, checkpoint_every)
        self.shards = max(1, shards)
        #: The generating ecosystem, when known (set by from_ecosystem);
        #: required for process-backend partition workers.
        self.ecosystem: Optional[SyntheticEcosystem] = None
        self.statistics = CrawlStatistics()
        #: Partition pool this pipeline built from a backend name (owned:
        #: closed when the crawl finishes).  A WorkerPool passed as the
        #: backend is borrowed and never closed here.
        self._owned_pool: Optional[WorkerPool] = None
        #: The ShardCrawlSpec broadcast to process workers — built once per
        #: pipeline so pool.broadcast sees the same object across the
        #: resolve and policy phases (a new object would restart the pool).
        self._shard_spec_cache: Optional["ShardCrawlSpec"] = None
        #: Parent lineage of an in-flight incremental crawl, folded into the
        #: checkpoint fingerprint so a checkpoint taken against one parent
        #: epoch refuses to resume against another; ``None`` outside
        #: :meth:`run_incremental`.
        self._incremental_meta: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_ecosystem(
        cls,
        ecosystem: SyntheticEcosystem,
        page_size: int = 50,
        seed: int = 0,
        **kwargs: object,
    ) -> "CrawlPipeline":
        """Build a pipeline whose simulated network serves ``ecosystem``.

        Extra keyword arguments (``workers``, ``transport_config``,
        ``checkpoint_dir``, ``resume``, …) are forwarded to the constructor.
        """
        http = SimulatedHTTPLayer(seed=seed)
        store_servers = install_store_servers(http, ecosystem.store_listings, page_size=page_size)
        GizmoAPIServer(manifests=ecosystem.gpts).install(http)

        # Serve the generated policy documents; Actions whose policy the
        # generator marked unavailable get a 500 (internal server error), the
        # failure mode the paper reports in Section 5.1.1.
        for url, document in ecosystem.policies.items():
            content_type = "text/html" if document.kind != "tracking_pixel" else "image/gif"
            http.register_static(url, document.text, content_type=content_type)
        for action in ecosystem.actions.values():
            if action.legal_info_url and action.legal_info_url not in ecosystem.policies:
                http.set_status_override(action.legal_info_url, 500)
        pipeline = cls(http=http, store_servers=store_servers, page_size=page_size, **kwargs)
        pipeline.ecosystem = ecosystem
        return pipeline

    # ------------------------------------------------------------------
    # Listing: the one coordinator stage
    # ------------------------------------------------------------------
    def _list_stores(
        self, checkpoint: Optional[CrawlCheckpoint]
    ) -> Tuple[Dict[str, List[str]], Dict[str, int]]:
        """Crawl every store's listing pages into the identifier frontier.

        Returns identifier → every store that linked it (identifiers in
        first-sight order, the discovery order) and store → listing link
        count.  Both are merged in store order whatever order the tasks
        complete in.  The tasks are closures over the shared transport, so
        they run on :meth:`_stage_pool`; each store's result is
        checkpointed as it completes.
        """
        done = checkpoint.load_stage("listing") if checkpoint is not None else {}
        crawler = StoreCrawler(self.transport)
        pending = [
            ExecTask(key=server.name, fn=crawler.crawl, args=(server.name, server.base_url))
            for server in self.store_servers
            if server.name not in done
        ]
        self.statistics.n_tasks_resumed += len(self.store_servers) - len(pending)
        fresh: Dict[str, object] = {}

        def on_result(outcome: ExecOutcome) -> None:
            if not outcome.ok:
                # Fetchers fold expected network failures into their
                # results, so a task-level error is a code bug.
                raise RuntimeError(f"crawl task {outcome.key!r} failed: {outcome.error}")
            result = outcome.result
            payload = {
                "n_links": result.n_links,
                "gpt_ids": result.gpt_ids,
                "pages_visited": result.pages_visited,
                "errors": result.errors,
            }
            fresh[outcome.key] = payload
            if checkpoint is not None:
                checkpoint.record("listing", outcome.key, payload)
                if len(fresh) % self.checkpoint_every == 0:
                    checkpoint.flush("listing")

        try:
            self._stage_pool().run(pending, on_result=on_result)
        finally:
            if checkpoint is not None:
                checkpoint.flush("listing")
        done.update(fresh)
        identifier_sources: Dict[str, List[str]] = {}
        link_counts: Dict[str, int] = {}
        for server in self.store_servers:
            payload = done[server.name]
            link_counts[server.name] = int(payload["n_links"])
            for identifier in payload["gpt_ids"]:
                identifier_sources.setdefault(identifier, []).append(server.name)
        return identifier_sources, link_counts

    def _resolved_gpt(
        self, payload: Mapping[str, object], stores: Sequence[str]
    ) -> Optional[CrawledGPT]:
        """The :class:`CrawledGPT` a resolve payload describes, counted in
        the run's statistics; ``None`` for an unresolved identifier.

        ``stores`` lists every store whose listing linked the identifier;
        the first one is the record's ``source_store``.
        """
        manifest = payload.get("manifest")
        if manifest is None:
            self.statistics.n_unresolved += 1
            return None
        self.statistics.n_resolved += 1
        gpt = CrawledGPT.from_manifest(manifest, source_store=stores[0] if stores else None)
        gpt.source_stores = sorted(set(stores))
        return gpt

    # ------------------------------------------------------------------
    # Partitioned resolve and policy phases
    # ------------------------------------------------------------------
    def _wants_process_backend(self) -> bool:
        if isinstance(self.backend, WorkerPool):
            return self.backend.is_process
        return self.backend == "process"

    def _stage_pool(self) -> WorkerPool:
        """The thread pool the listing stage runs on (its tasks are
        closures over the shared transport, so never a process pool)."""
        if isinstance(self.backend, WorkerPool) and not self.backend.is_process:
            return self.backend
        named = None if self._wants_process_backend() else self.backend
        return make_pool(named, self.workers)

    def _shard_pool(self) -> WorkerPool:
        """The pool partition sub-pipelines run on.

        ``backend="process"`` builds one process pool reused across the
        resolve and policy phases (closed when the crawl finishes).
        On a thread pool the sub-pipelines share this pipeline's transport
        (and so its per-host buckets); the process kind refuses configured
        rate limits outright (see :meth:`_shard_crawl_spec`)."""
        if isinstance(self.backend, WorkerPool):
            return self.backend
        if self._owned_pool is None:
            self._owned_pool = make_pool(self.backend, max(1, self.workers))
        return self._owned_pool

    def _close_owned_pool(self) -> None:
        if self._owned_pool is not None:
            self._owned_pool.close()
            self._owned_pool = None

    def _shard_crawl_spec(self) -> "ShardCrawlSpec":
        if self._shard_spec_cache is not None:
            return self._shard_spec_cache
        if self.ecosystem is None:
            raise ValueError(
                "the process backend needs an ecosystem-built pipeline "
                "(CrawlPipeline.from_ecosystem) so shard workers can rebuild "
                "the simulated network"
            )
        if self.rate_limits:
            # Refuse rather than silently weaken politeness: each worker
            # process would rebuild its own token buckets, admitting up to
            # workers x the configured per-host rate.
            raise ValueError(
                "per-host rate limits cannot be enforced across process-"
                "backend shard workers (each would admit the full rate); "
                "re-run with `--backend thread` (or backend=\"thread\"), "
                "which shares one rate-limited transport across shard "
                "workers, or drop the rate limits to keep the process backend"
            )
        self._shard_spec_cache = ShardCrawlSpec(
            ecosystem=self.ecosystem,
            seed=self.http.seed,
            page_size=self.page_size,
            transport_config=self.transport_config,
            flaky_hosts=self.http.flaky_host_rates,
            checkpoint_dir=self.checkpoint_dir,
            checkpoint_every=self.checkpoint_every,
            hostile_spec=(
                self.http.hostile_spec if self.http.has_hostile_hosts else None
            ),
        )
        return self._shard_spec_cache

    def _run_shard_stage(
        self,
        stage_name: str,
        shard: int,
        n_shards: int,
        keys: Sequence[str],
        report_network_stats: bool = False,
    ) -> Dict[str, object]:
        """Fetch partition ``shard`` of ``n_shards`` of a stage,
        checkpointing incrementally.

        Runs in the coordinator (thread pools, sharing the pipeline
        transport and therefore its rate limits) or inside a process worker
        on a rebuilt pipeline, which reports its own network counters.
        Returns the partition's records in key order plus resume/network
        counters.  Fetches within a partition are sequential; parallelism
        is across partitions.  The checkpoint is flushed on the way out,
        so an interrupted partition keeps what it fetched.
        """
        checkpoint: Optional[CrawlCheckpoint] = None
        if self.checkpoint_dir is not None:
            checkpoint = CrawlCheckpoint(self.checkpoint_dir, n_shards=n_shards)
        if stage_name == "resolve":
            fetch, encode = GizmoAPIClient(self.transport).fetch, _encode_resolve
        elif stage_name == "policies":
            fetch, encode = PolicyFetcher(self.transport).fetch, _encode_policy
        else:  # pragma: no cover - guarded by the phase runner
            raise ValueError(f"unknown shard stage {stage_name!r}")

        # Only a process worker counts its own traffic: on a thread pool the
        # transport is shared, and the coordinator counts around the run.
        network_before = self._network_counters() if report_network_stats else None
        # Shard-sliced load + loadless append: the sub-pipeline's memory is
        # bounded by its own shard's records even when resuming a huge
        # checkpoint (load_stage would materialize every shard's payloads).
        done = (
            checkpoint.load_stage_for_shard(stage_name, shard)
            if checkpoint is not None
            else {}
        )
        records: List = []
        n_resumed = 0
        since_flush = 0
        try:
            for key in keys:
                payload = done.get(key)
                if payload is not None:
                    n_resumed += 1
                else:
                    payload = encode(fetch(key))
                    if checkpoint is not None:
                        checkpoint.append(stage_name, key, payload)
                        since_flush += 1
                        if since_flush % self.checkpoint_every == 0:
                            checkpoint.flush(stage_name)
                records.append((key, payload))
        finally:
            if checkpoint is not None:
                checkpoint.flush(stage_name)
        result: Dict[str, object] = {"records": records, "n_resumed": n_resumed}
        if network_before is not None:
            result.update(self._network_delta(network_before))
        return result

    def _run_shard_phase(
        self,
        stage_name: str,
        shard_keys: Sequence[Sequence[str]],
        consume: Callable[[int, Sequence], None],
    ) -> None:
        """Fan one stage's partitions out on the pool and stream the results.

        ``shard_keys`` holds each partition's keys to fetch.
        ``consume(shard, records)`` is called once per partition,
        serialized: in completion order for the partitions with keys to
        fetch, then with no records for the rest (they may still carry
        parent records).  The pool drops each partition's payload after
        consumption (``keep_results=False``), so the coordinator holds at
        most one partition's fetched records at a time.  Writes are
        order-safe under completion-order consumption because each shard's
        records route to that shard's files alone, and the in-memory sink
        orders what it collects when it closes.
        """
        pool = self._shard_pool()
        if pool.is_process:
            # The ShardCrawlSpec (ecosystem included) is broadcast once via
            # the pool initializer; tasks carry only (stage, shard,
            # n_shards, keys), so per-task pickles are identifier-sized.
            pool.broadcast(SHARD_SPEC_KEY, self._shard_crawl_spec())
        n_shards = len(shard_keys)
        tasks = [
            ExecTask(
                key=f"{stage_name}-{shard:05d}",
                fn=_shard_stage_task_shared if pool.is_process else self._run_shard_stage,
                args=(stage_name, shard, n_shards, list(keys)),
                seed=_shard_task_seed(self.http.seed, stage_name, shard),
            )
            for shard, keys in enumerate(shard_keys)
            if keys
        ]

        def on_result(outcome: ExecOutcome) -> None:
            if not outcome.ok:
                # Fetchers fold expected network failures into their
                # results, so a task-level error is a code bug (or an
                # unpicklable payload on a process pool).
                raise RuntimeError(
                    f"crawl partition task {outcome.key!r} failed: {outcome.error}"
                )
            shard = int(outcome.key.rsplit("-", 1)[1])
            payload = outcome.result
            self.statistics.n_tasks_resumed += int(payload.get("n_resumed", 0))
            # Process workers report their own network counters; thread
            # tasks share the coordinator's, counted around the whole run.
            self.statistics.add_network(payload)
            consume(shard, payload["records"])

        pool.run(tasks, on_result=on_result, keep_results=False)
        for shard, keys in enumerate(shard_keys):
            if not keys:
                consume(shard, ())

    def run_sharded(
        self,
        shard_dir: str,
        flush_every: int = 1000,
        epoch: int = 0,
        parent_fingerprint: Optional[str] = None,
    ):
        """Crawl cold into a sharded store: the crawl with a store sink and
        no parent.

        Returns the published :class:`~repro.io.shards.ShardedCorpusStore`
        at ``shard_dir``, byte-identical to
        ``ShardedCorpusStore.write_corpus(self.run(), self.shards)`` without
        ever materializing the whole-run corpus; every identifier and
        policy URL is fetched (see the module docstring for the dataflow).
        With ``backend="process"`` one :class:`~repro.exec.WorkerPool` spans
        the resolve and policy phases and is closed on the way out
        (interrupted runs included); a caller-supplied pool stays open.

        ``epoch``/``parent_fingerprint`` stamp the store's lineage without
        changing a record byte, so a cold crawl of an evolved world stamped
        with an incremental store's lineage is that store's byte-identity
        oracle.
        """
        try:
            return self._crawl(
                self._store_sink(shard_dir, flush_every, epoch, parent_fingerprint),
                self.shards,
            )
        finally:
            self._close_owned_pool()

    def run_incremental(
        self,
        shard_dir: str,
        parent,
        changed_gpt_ids: Sequence[str] = (),
        changed_policy_urls: Sequence[str] = (),
        epoch: Optional[int] = None,
        flush_every: int = 1000,
    ):
        """Re-crawl the (evolved) ecosystem as a delta over a parent store.

        ``parent`` is the :class:`~repro.io.shards.ShardedCorpusStore` a
        previous epoch's crawl published; ``changed_gpt_ids`` /
        ``changed_policy_urls`` are the change feed (an
        :class:`~repro.ecosystem.evolution.EpochDelta`'s fields of the same
        names).  This is the crawl of :meth:`run_sharded` with a parent:
        the listing stage runs in full (what exists now is the one question
        the parent cannot answer, and listings are ~2% of a cold crawl's
        requests), every record the parent answered that the feed
        does not name is carried forward shard-locally **without HTTP
        traffic**, and only new or changed identifiers (and drifted or
        flapping-host policies) are fetched.  The store is stamped epoch
        ``epoch`` (default: the parent's plus one) with the parent's
        fingerprint, and is byte-identical to a cold :meth:`run_sharded`
        of the evolved ecosystem with that stamp, on any pool, at any worker
        count, cold or resumed.

        Raises
        ------
        ValueError
            When the parent store predates discovery indices (schema 1),
            when its shard count differs from this pipeline's, or when
            resuming a checkpoint taken against a different parent epoch.
        """
        try:
            manifest = parent.manifest
            if not manifest.supports_discovery_order:
                raise ValueError(
                    "incremental crawls need a parent store with per-record "
                    "discovery indices (manifest schema >= 2); this store is "
                    f"schema {manifest.schema} — re-crawl it cold first"
                )
            if manifest.n_shards != self.shards:
                raise ValueError(
                    f"parent store has {manifest.n_shards} shards but this "
                    f"pipeline is configured for {self.shards}; carry-forward is "
                    "shard-local, so the layouts must match"
                )
            parent_fingerprint = parent.fingerprint()
            if epoch is None:
                epoch = manifest.epoch + 1
            self._incremental_meta = {"parent": parent_fingerprint, "epoch": epoch}
            return self._crawl(
                self._store_sink(shard_dir, flush_every, epoch, parent_fingerprint),
                self.shards,
                parent=parent,
                changed_ids=set(changed_gpt_ids),
                changed_policies=set(changed_policy_urls),
            )
        finally:
            self._close_owned_pool()
            self._incremental_meta = None

    def _store_sink(
        self,
        shard_dir: str,
        flush_every: int,
        epoch: int,
        parent_fingerprint: Optional[str],
    ) -> Callable[[], ShardedCorpusWriter]:
        """The ``open_sink`` of a store crawl: opens the shard writer of
        the store at ``shard_dir``."""
        return functools.partial(
            ShardedCorpusWriter,
            shard_dir,
            n_shards=self.shards,
            flush_every=flush_every,
            epoch=epoch,
            parent_fingerprint=parent_fingerprint,
        )

    def _crawl(
        self,
        open_sink: Callable[[], object],
        n_shards: int,
        parent=None,
        changed_ids: Set[str] = frozenset(),
        changed_policies: Set[str] = frozenset(),
    ):
        """The one crawl: listing, then resolve and policy phases over
        ``n_shards`` hash partitions that carry what ``parent`` already
        holds and fetch the rest; returns the sink's ``close()``.

        ``parent=None`` is a cold crawl.  ``open_sink()`` is called once the
        frontier is listed and partitioned, so a refused checkpoint or a
        failed listing leaves no store behind.  Each partition's GPT
        records reach the sink index-ascending and its policies URL-sorted,
        the order a cold crawl of the same frontier produces.
        """
        self.statistics = CrawlStatistics()
        network_before = self._network_counters()
        checkpoint = self._open_checkpoint(n_shards=n_shards)
        if checkpoint is not None:
            # Settle the layout marker before any partition sub-pipeline
            # opens its own view of the directory (their flushes would
            # otherwise race to write it).
            checkpoint.ensure_layout()

        def parent_keys(kind: str, scan: Callable[[str], str]) -> List[Set[str]]:
            # One key-only pass per parent shard.  shard_index is the same
            # hash at equal shard counts, so parent shard s holds exactly
            # partition s's carry-forward candidates.
            if parent is None:
                return [set()] * n_shards
            return [
                {scan(line) for line in parent.iter_shard_lines(kind, shard)}
                for shard in range(n_shards)
            ]

        # Stage 1 — listing, in the coordinator: the identifier frontier
        # must exist before it can be partitioned.
        identifier_sources, link_counts = self._list_stores(checkpoint)
        self.statistics.n_unique_identifiers = len(identifier_sources)
        identifier_order = list(identifier_sources)
        # The coordinator owns the listing order, so it stamps each record's
        # global discovery index: the identifier's frontier position.
        frontier_position = {
            identifier: position for position, identifier in enumerate(identifier_order)
        }

        # Partition the frontier: anything the parent answered that the
        # change feed does not name is carried without HTTP, including
        # identifiers the parent saw 404 for (dead listing links recur
        # epoch to epoch).
        parent_ids = parent_keys("gpts", _payload_gpt_id)
        parent_unresolved = set(parent.manifest.unresolved_gpt_ids) if parent else set()
        unresolved: Set[str] = set()
        carried: List[Set[str]] = [set() for _ in range(n_shards)]
        fetch_ids: List[List[str]] = [[] for _ in range(n_shards)]
        for identifier in identifier_order:
            shard = shard_index(identifier, n_shards)
            if identifier not in changed_ids:
                if identifier in parent_ids[shard]:
                    carried[shard].add(identifier)
                    continue
                if identifier in parent_unresolved:
                    unresolved.add(identifier)
                    self.statistics.n_unresolved += 1
                    continue
            fetch_ids[shard].append(identifier)
        # Only the partition reads the parent's id sets; free them before
        # the resolve phase, whose fetched records raise the crawl's peak.
        del parent_ids, parent_unresolved

        sink = open_sink()
        policy_urls: Set[str] = set()
        # Store sets repeat across records, so each unique set is serialized
        # for the line splice exactly once (None = needs the real encoder).
        stores_json_cache: Dict[Tuple[str, ...], Optional[str]] = {}

        # Stage 2 — resolve.  Each partition's fetched records and carried
        # lines are merged on discovery index and written as soon as the
        # partition's task completes, or after the phase when it fetches
        # nothing.
        def write_gpts(shard: int, records: Sequence) -> None:
            entries: List = []
            for identifier, payload in records:
                gpt = self._resolved_gpt(payload, identifier_sources.get(identifier, []))
                if gpt is None:
                    unresolved.add(identifier)
                else:
                    entries.append((frontier_position[identifier], gpt))
            if carried[shard]:
                for line in parent.iter_shard_lines("gpts", shard):
                    identifier = _payload_gpt_id(line)
                    if identifier not in carried[shard]:
                        continue
                    # Store attribution is an epoch-N+1 fact (listings
                    # re-shuffle), not a carried byte: re-stamp it from this
                    # frontier, like the discovery index.  The splice keeps
                    # the record's content bytes untouched; only when the
                    # line doesn't match the canonical shape does the slow
                    # parse/re-dump path run.
                    stores = sorted(set(identifier_sources.get(identifier, [])))
                    position = frontier_position[identifier]
                    key = tuple(stores)
                    if key not in stores_json_cache:
                        stores_json_cache[key] = _serialize_store_list(stores)
                    stores_json = stores_json_cache[key]
                    restamped = (
                        None
                        if stores_json is None
                        else _restamp_carried_line(line, position, stores_json)
                    )
                    if restamped is None:
                        record = json.loads(line)
                        record["source_stores"] = stores
                        entries.append((position, record))
                    else:
                        entries.append((position, (restamped, identifier, stores)))
                    self.statistics.n_resolved += 1
                    self.statistics.n_records_carried += 1
            entries.sort(key=lambda entry: entry[0])
            for position, record in entries:
                if isinstance(record, CrawledGPT):
                    policy_urls.update(
                        action.legal_info_url
                        for action in record.actions
                        if action.legal_info_url
                    )
                    sink.add_gpt(record, discovery_index=position)
                    continue
                if isinstance(record, dict):
                    policy_urls.update(_record_policy_urls(record))
                    sink.add_gpt_payload(record, discovery_index=position)
                    continue
                line, identifier, stores = record
                urls = _scan_policy_urls(line)
                policy_urls.update(
                    urls if urls is not None else _record_policy_urls(json.loads(line))
                )
                sink.add_gpt_line(
                    line, gpt_id=identifier, discovery_index=position, source_stores=stores
                )

        self._run_shard_phase("resolve", fetch_ids, write_gpts)

        # Stage 3 — policies.  The global URL set (sorted) routes each URL to
        # exactly one partition, so a policy referenced by GPTs in several
        # partitions is fetched once.  A URL is carried when the parent
        # fetched it, the drift feed does not name it, and its host is not
        # flapping: flapping hosts stamp responses with per-visit revision
        # markers the parent cannot vouch for, so refetching (at attempt 0,
        # like a cold crawl's first visit) is what keeps byte-identity.
        flapping_hosts = (
            set(self.http.hostile_spec.get("flapping", {}))
            if self.http.has_hostile_hosts
            else set()
        )
        parent_urls = parent_keys("policies", _payload_policy_url)
        shard_urls: List[List[str]] = [[] for _ in range(n_shards)]
        for url in sorted(policy_urls):
            shard_urls[shard_index(url, n_shards)].append(url)
        carried_urls: List[Set[str]] = [set() for _ in range(n_shards)]
        fetch_urls: List[List[str]] = [[] for _ in range(n_shards)]
        for shard, urls in enumerate(shard_urls):
            for url in urls:
                if (
                    url in parent_urls[shard]
                    and url not in changed_policies
                    and url_host(url) not in flapping_hosts
                ):
                    carried_urls[shard].add(url)
                else:
                    fetch_urls[shard].append(url)

        def write_policies(shard: int, records: Sequence) -> None:
            results = {url: _policy_result(url, payload) for url, payload in records}
            if carried_urls[shard]:
                for line in parent.iter_shard_lines("policies", shard):
                    url = _payload_policy_url(line)
                    if url in carried_urls[shard]:
                        results[url] = policy_from_payload(json.loads(line))
                        self.statistics.n_policies_carried += 1
            for url in shard_urls[shard]:
                sink.add_policy(results[url])
                self.statistics.count_policy(results[url])

        self._run_shard_phase("policies", fetch_urls, write_policies)

        # Corpus metadata: unresolved identifiers in global discovery order.
        sink.set_metadata(
            store_link_counts=link_counts,
            unresolved_gpt_ids=[i for i in identifier_order if i in unresolved],
        )
        result = sink.close()
        # Coordinator-side network counters (listing pages always; resolve
        # and policy fetches too on thread pools, which share this
        # pipeline's transport — process workers reported their own).
        self.statistics.add_network(self._network_delta(network_before))
        return result

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _network_counters(self) -> Dict[str, object]:
        """Snapshot of the cumulative HTTP-layer and transport counters.

        Both are cumulative across runs of the same pipeline; a run takes a
        snapshot first and reports :meth:`_network_delta` against it, so
        statistics stay per-run.
        """
        stats = self.transport.statistics
        return {
            "n_http_requests": self.http.request_count,
            "n_retries": stats.n_retries,
            "n_ratelimit_retries": stats.n_ratelimit_retries,
            "host_taxonomy": _taxonomy_snapshot(stats.per_host_taxonomy),
        }

    def _network_delta(self, before: Mapping[str, object]) -> Dict[str, object]:
        """Counters accumulated since ``before`` (for :meth:`CrawlStatistics.add_network`)."""
        after = self._network_counters()
        delta = {
            key: int(after[key]) - int(before[key])
            for key in ("n_http_requests", "n_retries", "n_ratelimit_retries")
        }
        delta["host_taxonomy"] = _taxonomy_delta(before["host_taxonomy"], after["host_taxonomy"])
        return delta

    def _checkpoint_fingerprint(self) -> Dict[str, object]:
        """What must match for a checkpoint to be resumable by this crawl."""
        fingerprint: Dict[str, object] = {
            "seed": self.http.seed,
            "page_size": self.page_size,
            "stores": [server.name for server in self.store_servers],
            "n_listings": sum(len(server.listings) for server in self.store_servers),
        }
        if self.http.has_hostile_hosts:
            # Hostile behaviors change which fetches fail, so a checkpoint
            # from a differently-hostile crawl must not be resumed.
            fingerprint["hostile"] = self.http.hostile_spec
        if self._incremental_meta is not None:
            # An incremental crawl's fetch set is derived from the parent
            # store: resuming against a different parent (or epoch) would
            # splice two deltas into one corpus.
            fingerprint["incremental"] = dict(self._incremental_meta)
        return fingerprint

    def _open_checkpoint(self, n_shards: int) -> Optional[CrawlCheckpoint]:
        """Open (and clear or fingerprint-check) the configured checkpoint."""
        if self.checkpoint_dir is None:
            return None
        checkpoint = CrawlCheckpoint(self.checkpoint_dir, n_shards=n_shards)
        fingerprint = self._checkpoint_fingerprint()
        if not self.resume:
            checkpoint.clear()
        else:
            existing = checkpoint.load_meta()
            if existing is not None and existing != fingerprint:
                raise ValueError(
                    "checkpoint at "
                    f"{self.checkpoint_dir!r} was written by a different "
                    "crawl configuration; pass resume=False to start over"
                )
        checkpoint.write_meta(fingerprint)
        return checkpoint

    def run(self) -> CrawlCorpus:
        """Run the crawl and return the resulting corpus.

        This is the crawl of :meth:`run_sharded` with an in-memory sink in
        place of the shard writer.  The frontier is split into
        ``max(1, workers)`` hash partitions, one task per worker, on the
        pool ``backend`` names; ``shards`` is ignored, since a corpus has
        no on-disk layout and the partition count changes no byte.  Records
        come back in discovery order and policies in URL order, with the
        same bytes, dict orders and statistics at every worker count and on
        every backend.

        Raises
        ------
        ValueError
            When resuming against a checkpoint written by a crawl with a
            different configuration (seed, stores, or ecosystem size) —
            merging it would silently corrupt the corpus.
        """
        try:
            return self._crawl(_CorpusSink, max(1, self.workers))
        finally:
            self._close_owned_pool()


# ---------------------------------------------------------------------------
# Process-pool partition workers
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShardCrawlSpec:
    """Everything a process worker needs to rebuild a partition sub-pipeline.

    Plain picklable data: the generating ecosystem, the crawl seed, and the
    network/transport configuration (including failure injection configured
    on the coordinator's HTTP layer).  Workers never inherit simulated
    network state through fork — they reconstruct it, which is what keeps
    fork and spawn start methods (and therefore macOS and Linux CI) in
    byte-for-byte agreement.
    """

    ecosystem: SyntheticEcosystem
    seed: int
    page_size: int
    transport_config: Optional[TransportConfig]
    # No rate_limits field: _shard_crawl_spec refuses rate-limited crawls
    # outright (per-process token buckets would admit workers x the
    # configured per-host rate), so workers never carry them.
    flaky_hosts: Dict[str, float]
    checkpoint_dir: Optional[str]
    checkpoint_every: int
    #: Adversarial host behaviors (see SimulatedHTTPLayer.hostile_spec);
    #: ``None`` when the coordinator's network has none configured.
    hostile_spec: Optional[Dict[str, Dict[str, object]]] = None


def _shard_task_seed(seed: int, stage_name: str, shard: int) -> int:
    """Stable per-(stage, shard) seed for the worker's module-level RNG."""
    import hashlib

    digest = hashlib.sha256(f"{seed}:{stage_name}:{shard}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _build_shard_pipeline(spec: ShardCrawlSpec) -> "CrawlPipeline":
    """Rebuild the simulated network a partition worker fetches against."""
    pipeline = CrawlPipeline.from_ecosystem(
        spec.ecosystem,
        page_size=spec.page_size,
        seed=spec.seed,
        transport_config=spec.transport_config,
        checkpoint_dir=spec.checkpoint_dir,
        checkpoint_every=spec.checkpoint_every,
    )
    for host, rate in spec.flaky_hosts.items():
        pipeline.http.set_flaky_host(host, rate)
    if spec.hostile_spec:
        pipeline.http.apply_hostile_spec(spec.hostile_spec)
    return pipeline


#: Broadcast key the crawl registers its ShardCrawlSpec under.
SHARD_SPEC_KEY = "crawl/shard-spec"

#: Worker-local (spec, pipeline) pair so a warm worker rebuilds the
#: simulated network once per broadcast, not once per (stage, shard) task.
#: Keyed by spec identity: the broadcast payload is installed once per
#: worker, so identity is stable until a new spec is broadcast (which
#: restarts the pool and clears this module state with it on spawn; on
#: fork the identity check alone invalidates the entry).
_WORKER_SHARD_PIPELINE: List = []


def _shard_stage_task_shared(
    stage_name: str, shard: int, n_shards: int, keys: List[str]
) -> Dict[str, object]:
    """Run one partition's resolve/policy sub-stage in a process worker.

    Identifier-sized task payload; the ecosystem-sized spec shipped once
    via the pool initializer.  The rebuilt pipeline shares nothing with the
    coordinator except the spec; per-URL failure and retry draws are pure
    functions of ``(seed, url, attempt)`` and the partitions split the URL
    space, so the records match a coordinator-side run exactly.  Safe to
    reuse one rebuilt pipeline across tasks because ``_run_shard_stage``
    snapshots its network counters per call.
    """
    spec = shared_state(SHARD_SPEC_KEY)
    if not _WORKER_SHARD_PIPELINE or _WORKER_SHARD_PIPELINE[0] is not spec:
        _WORKER_SHARD_PIPELINE[:] = [spec, _build_shard_pipeline(spec)]
    pipeline = _WORKER_SHARD_PIPELINE[1]
    return pipeline._run_shard_stage(
        stage_name, shard, n_shards, keys, report_network_stats=True
    )
