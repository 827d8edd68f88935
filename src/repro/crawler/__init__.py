"""Store crawling over a simulated HTTP layer.

The paper crawls 13 GPT stores with per-store Selenium crawlers, resolves the
extracted GPT identifiers against OpenAI's ``gizmos`` backend API, and
downloads each Action's privacy policy (Section 3.1).  Offline, the same
crawl logic runs against :class:`SimulatedHTTPLayer`: store servers publish
paginated listing pages, the gizmo API serves manifests (or 404s for removed
GPTs), and policy URLs serve the generated policy documents (or 5xx errors for
the unavailable share).

The output of a crawl is a :class:`CrawlCorpus` — the raw measurement corpus
that every downstream analysis consumes.  The crawl's tasks run on a
:class:`~repro.exec.WorkerPool` over the retrying, rate-limited transport in
:mod:`repro.crawler.transport`.

**Degraded mode.**  The simulated web can be made actively hostile
(:mod:`repro.crawler.hostile`): redirect chains and loops, 429 rate-limit
storms, heavy-tailed tarpit latency, and content-flapping hosts.  The
transport retries transient errors and rate limits, follows bounded redirect
chains, and enforces a per-request accounted-time deadline; what cannot be
salvaged fails *visibly* — terminal failures are tallied per host and kind
(``exhausted-retries`` / ``circuit-open`` / ``deadline`` /
``redirect-loop``) in :class:`CrawlStatistics.host_failure_taxonomy`, and
``CrawlStatistics.quarantined_hosts`` lists the hosts that degraded.  A
crawl over hostile hosts still completes, still checkpoints/resumes, and is
still byte-identical across execution backends and worker counts, because
every hostile behavior and every transport decision is a pure function of
the configured seeds.  See the :mod:`repro.crawler.transport` docstring for
the exact retry/circuit/quarantine semantics.
"""

from repro.crawler.http import HTTPError, SimulatedHTTPLayer, SimulatedResponse
from repro.crawler.transport import (
    CircuitOpenError,
    DeadlineExceededError,
    HostRateLimiter,
    HTTPTransport,
    RedirectLoopError,
    RetryingTransport,
    TokenBucket,
    TransportConfig,
    TransportStatistics,
)
from repro.crawler.store_server import GPTStoreServer, install_store_servers
from repro.crawler.gizmo_api import GizmoAPIClient, GizmoAPIServer, GIZMO_API_PREFIX
from repro.crawler.store_crawler import StoreCrawler, StoreCrawlResult
from repro.crawler.policy_fetcher import PolicyFetcher, PolicyFetchResult
from repro.crawler.corpus import CrawlCorpus, CrawledAction, CrawledGPT
from repro.crawler.hostile import (
    DEFAULT_HOSTILE_SPEC,
    HOSTILE_ROLES,
    install_hostile_hosts,
)
from repro.crawler.pipeline import CrawlPipeline, CrawlStatistics

__all__ = [
    "HTTPError",
    "SimulatedHTTPLayer",
    "SimulatedResponse",
    "CircuitOpenError",
    "DeadlineExceededError",
    "RedirectLoopError",
    "HTTPTransport",
    "RetryingTransport",
    "TransportConfig",
    "TransportStatistics",
    "HostRateLimiter",
    "TokenBucket",
    "GPTStoreServer",
    "install_store_servers",
    "GizmoAPIClient",
    "GizmoAPIServer",
    "GIZMO_API_PREFIX",
    "StoreCrawler",
    "StoreCrawlResult",
    "PolicyFetcher",
    "PolicyFetchResult",
    "CrawlCorpus",
    "CrawledAction",
    "CrawledGPT",
    "DEFAULT_HOSTILE_SPEC",
    "HOSTILE_ROLES",
    "install_hostile_hosts",
    "CrawlPipeline",
    "CrawlStatistics",
]
