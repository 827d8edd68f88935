"""A retrying, rate-aware transport over the simulated HTTP layer.

The paper's crawl had to survive unresponsive and actively misbehaving policy
servers (Section 5.1.1); a production crawler does so with retries, backoff,
redirect handling, and per-host circuit breaking rather than by giving up on
the first error.  :class:`RetryingTransport` wraps any object exposing the
``get(url)`` interface of :class:`~repro.crawler.http.SimulatedHTTPLayer`
and adds:

* a per-request retry budget for transport errors and (configurably)
  transient 5xx statuses, with exponential backoff;
* *seeded* backoff jitter — the delay for attempt ``k`` of a URL is a pure
  function of ``(seed, url, k)``, so retry schedules are reproducible no
  matter how worker threads interleave;
* bounded redirect following with loop detection (a ``Location`` already on
  the chain, or more than ``max_redirects`` hops, raises
  :class:`RedirectLoopError`);
* ``Retry-After``-aware 429 handling: rate-limited responses are retried up
  to ``max_ratelimit_retries`` times (counted separately from error retries
  in :class:`TransportStatistics`), honoring the advertised wait capped at
  ``retry_after_cap_s``;
* a per-request deadline (``deadline_s``): a total-time budget across all
  redirect hops, retries, backoff waits, and simulated latencies, so a
  tarpit host cannot stall a worker indefinitely.  The budget is charged in
  *accounted simulated time* (configured latency, layer-reported service
  time, backoff and Retry-After waits) — never wall clock — so deadline
  decisions, like everything else here, are byte-identical across worker
  counts and execution backends;
* optional per-host circuit breaking: after a run of consecutive failures a
  host is "open" and requests fail fast until a cooldown elapses;
* optional per-host politeness limits (:class:`HostRateLimiter`, one token
  bucket per host) consulted before every attempt, retries included;
* optional simulated per-request latency, which stands in for network RTT so
  concurrency speedups are measurable offline.

Degraded-mode semantics
-----------------------

What is **retried**: transport errors (connection resets) and statuses in
``retry_statuses`` consume the ``max_attempts`` budget with exponential
backoff; 429 responses consume the separate ``max_ratelimit_retries`` budget
with the advertised ``Retry-After`` wait.

What **opens a circuit** (counts as a consecutive per-host failure):
transport errors, retryable 5xx responses, deadline exhaustion, and redirect
loops.  A 429 is *neutral* — the host is alive, merely throttling — so it
neither opens nor closes a circuit.  Any success (2xx/3xx/permanent non-2xx)
closes it.  A half-open trial releases its slot on **every** outcome,
including non-``HTTPError`` exceptions raised through the inner transport.

What **quarantines a host**: terminal failures are tallied per host and
kind in ``TransportStatistics.per_host_taxonomy`` under the keys
``exhausted-retries`` (retry budget spent, including terminal retryable
statuses handed back to the caller), ``circuit-open``, ``deadline``, and
``redirect-loop``.  The crawl pipeline surfaces these as quarantined hosts
in its own statistics; records on quarantined hosts fail visibly instead of
silently vanishing.

The transport is thread-safe and duck-type compatible with
``SimulatedHTTPLayer``, so :class:`~repro.crawler.store_crawler.StoreCrawler`,
:class:`~repro.crawler.gizmo_api.GizmoAPIClient`, and
:class:`~repro.crawler.policy_fetcher.PolicyFetcher` run unchanged on top of
it.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Protocol, Union

from repro.crawler.http import HTTPError, SimulatedResponse
from repro.web.urls import join_url, parse_url

#: Taxonomy keys used in ``TransportStatistics.per_host_taxonomy``.
FAILURE_KINDS = ("exhausted-retries", "circuit-open", "deadline", "redirect-loop")


class HTTPTransport(Protocol):
    """The minimal client interface shared by the HTTP layer and wrappers."""

    def get(self, url: str) -> SimulatedResponse:  # pragma: no cover - protocol
        ...


class RateLimiter(Protocol):
    """Per-host admission control (e.g. :class:`HostRateLimiter`)."""

    def acquire(self, host: Optional[str]) -> None:  # pragma: no cover - protocol
        ...


class TokenBucket:
    """A thread-safe token bucket (``rate`` tokens/second, burst ``capacity``)."""

    def __init__(self, rate: float, capacity: Optional[float] = None) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        self.capacity = capacity if capacity is not None else max(1.0, rate)
        self._tokens = self.capacity
        self._updated = time.monotonic()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = now - self._updated
        self._updated = now
        self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)

    def try_acquire(self) -> bool:
        """Take a token if one is available (non-blocking)."""
        with self._lock:
            self._refill(time.monotonic())
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    def acquire(self) -> None:
        """Block until a token is available, then take it."""
        while True:
            with self._lock:
                now = time.monotonic()
                self._refill(now)
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            time.sleep(wait)


class HostRateLimiter:
    """Per-host token buckets (the crawl's politeness limits).

    ``rates`` maps host → requests/second; ``default_rate`` (optional)
    applies to hosts not listed.  Hosts with no applicable rate are
    unthrottled.
    """

    def __init__(self, rates: Optional[Dict[str, float]] = None,
                 default_rate: Optional[float] = None) -> None:
        self._rates = {host.lower(): rate for host, rate in (rates or {}).items()}
        self._default_rate = default_rate
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    def acquire(self, host: Optional[str]) -> None:
        """Block until ``host`` may issue one request (no-op if unthrottled)."""
        if not host:
            return
        host = host.lower()
        rate = self._rates.get(host, self._default_rate)
        if rate is None:
            return
        with self._lock:
            bucket = self._buckets.get(host)
            if bucket is None:
                # Burst capacity of one: politeness limits space requests at
                # 1/rate rather than allowing an initial burst.
                bucket = TokenBucket(rate, capacity=1.0)
                self._buckets[host] = bucket
        bucket.acquire()


@dataclass(frozen=True)
class TransportConfig:
    """Tuning knobs for :class:`RetryingTransport`."""

    #: Total attempts per request (1 = no retries).
    max_attempts: int = 3
    #: Backoff before retry ``k`` is ``backoff_base_s * backoff_factor**(k-1)``
    #: (plus jitter), capped at ``backoff_max_s``.
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 0.05
    #: Fraction of the backoff randomized (seeded per ``(url, attempt)``).
    jitter: float = 0.5
    #: 5xx statuses treated as transient and retried.  Plain 500s are *not*
    #: retried by default: the generator uses them for permanently broken
    #: policy hosts, matching the paper's unrecoverable-failure share.
    retry_statuses: FrozenSet[int] = frozenset({502, 503, 504})
    #: Redirect hops followed per request before declaring a loop.
    max_redirects: int = 5
    #: 429 retries per request (counted separately from error retries).
    max_ratelimit_retries: int = 4
    #: Cap on any single honored ``Retry-After`` wait.
    retry_after_cap_s: float = 0.05
    #: Total accounted-time budget per request across redirect hops, retries,
    #: backoff, Retry-After waits, and simulated latency (0 = unlimited).
    deadline_s: float = 0.0
    #: Consecutive transport failures that open a host's circuit
    #: (0 disables circuit breaking).
    circuit_threshold: int = 0
    #: How long an open circuit rejects requests before a trial is allowed.
    circuit_cooldown_s: float = 0.05
    #: Simulated network round-trip time added to every attempt.
    latency_s: float = 0.0
    #: Seed for the jittered backoff schedule.
    seed: int = 0

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TransportConfig":
        """Build a config from a plain-JSON mapping (sweep scenarios store
        their overrides as JSON, so ``retry_statuses`` arrives as a list)."""
        kwargs = dict(data)
        if "retry_statuses" in kwargs:
            kwargs["retry_statuses"] = frozenset(
                int(s) for s in kwargs["retry_statuses"])  # type: ignore[union-attr]
        return cls(**kwargs)  # type: ignore[arg-type]

    @classmethod
    def coerce(cls, value: Union["TransportConfig", Mapping[str, object], None],
               ) -> Optional["TransportConfig"]:
        """Accept a config, a plain mapping, or ``None``."""
        if value is None or isinstance(value, cls):
            return value
        return cls.from_dict(value)


@dataclass
class TransportStatistics:
    """Counters the transport accumulates across all requests."""

    n_requests: int = 0
    n_attempts: int = 0
    n_retries: int = 0
    n_ratelimit_retries: int = 0
    n_redirects: int = 0
    n_transport_errors: int = 0
    n_circuit_rejections: int = 0
    n_deadline_exceeded: int = 0
    per_host_failures: Dict[str, int] = field(default_factory=dict)
    #: host → {failure kind → count} for terminal failures; kinds are the
    #: :data:`FAILURE_KINDS` quarantine taxonomy.
    per_host_taxonomy: Dict[str, Dict[str, int]] = field(default_factory=dict)


class CircuitOpenError(HTTPError):
    """Raised when a host's circuit is open and the request is rejected."""

    def __init__(self, url: str) -> None:
        super().__init__(url, "circuit open")


class DeadlineExceededError(HTTPError):
    """Raised when a request's accounted-time budget is exhausted."""

    def __init__(self, url: str, spent_s: float = 0.0, budget_s: float = 0.0) -> None:
        super().__init__(url, "deadline exceeded")
        self.spent_s = spent_s
        self.budget_s = budget_s


class RedirectLoopError(HTTPError):
    """Raised on a redirect cycle or when ``max_redirects`` is exceeded."""

    def __init__(self, url: str, reason: str = "redirect loop") -> None:
        super().__init__(url, reason)


class _Budget:
    """Accounted-time budget for one logical request.

    Charges are simulated time (latency knobs, layer-reported service time,
    backoff/Retry-After waits), never wall-clock measurements, so whether a
    request exceeds its deadline is a pure function of the seeds — identical
    across worker counts and backends.  ``charge`` raises *before* the
    caller sleeps, so wall time also stays bounded.
    """

    __slots__ = ("limit_s", "spent_s")

    def __init__(self, limit_s: float) -> None:
        self.limit_s = limit_s
        self.spent_s = 0.0

    def charge(self, amount_s: float, url: str) -> None:
        if amount_s <= 0:
            return
        self.spent_s += amount_s
        if self.limit_s > 0 and self.spent_s > self.limit_s:
            raise DeadlineExceededError(url, self.spent_s, self.limit_s)


def _reported_latency(source: object) -> float:
    """Simulated service time reported by the layer (response or error)."""
    if isinstance(source, SimulatedResponse):
        raw = source.headers.get("x-simulated-latency-s", "")
    else:
        raw = getattr(source, "simulated_latency_s", 0.0)
    try:
        return float(raw or 0.0)
    except (TypeError, ValueError):
        return 0.0


def _parse_retry_after(response: SimulatedResponse) -> float:
    try:
        return max(0.0, float(response.headers.get("retry-after", 0.0) or 0.0))
    except (TypeError, ValueError):
        return 0.0


class _HostCircuit:
    """Consecutive-failure circuit state for one host."""

    __slots__ = ("consecutive_failures", "opened_at", "trial_in_flight")

    def __init__(self) -> None:
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        #: Whether the single half-open trial request is currently running.
        self.trial_in_flight = False


class RetryingTransport:
    """Wraps a transport with retries, backoff, redirect handling, deadline
    enforcement, and circuit breaking (see the module docstring for the
    degraded-mode semantics)."""

    def __init__(self, inner: HTTPTransport,
                 config: Optional[TransportConfig] = None,
                 rate_limiter: Optional[RateLimiter] = None) -> None:
        if config is not None and config.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self._inner = inner
        self.config = config or TransportConfig()
        #: Per-host politeness limits, consulted before **every attempt**
        #: (retries included), so a requests/second limit means exactly that.
        self.rate_limiter = rate_limiter
        self.statistics = TransportStatistics()
        self._lock = threading.Lock()
        self._circuits: Dict[str, _HostCircuit] = {}

    # ------------------------------------------------------------------
    def _backoff_delay(self, url: str, retry_index: int) -> float:
        """Deterministic backoff before retry ``retry_index`` (1-based)."""
        config = self.config
        if config.backoff_base_s <= 0:
            return 0.0
        delay = config.backoff_base_s * (config.backoff_factor ** (retry_index - 1))
        delay = min(delay, config.backoff_max_s)
        if config.jitter > 0:
            fraction = random.Random(f"{config.seed}:{url}:{retry_index}").random()
            delay *= (1.0 - config.jitter) + config.jitter * fraction
        return delay

    def _check_circuit(self, host: str, url: str) -> bool:
        """Admit or reject an attempt; returns whether it is the half-open
        trial (the caller must release the slot on every outcome)."""
        if self.config.circuit_threshold <= 0:
            return False
        with self._lock:
            circuit = self._circuits.get(host)
            if circuit is None or circuit.opened_at is None:
                return False
            elapsed = time.monotonic() - circuit.opened_at
            if elapsed >= self.config.circuit_cooldown_s and not circuit.trial_in_flight:
                # Half-open: admit exactly one trial request; concurrent
                # callers keep getting rejected until its outcome is known.
                circuit.trial_in_flight = True
                return True
            self.statistics.n_circuit_rejections += 1
            bucket = self.statistics.per_host_taxonomy.setdefault(host, {})
            bucket["circuit-open"] = bucket.get("circuit-open", 0) + 1
        raise CircuitOpenError(url)

    def _record_outcome(self, host: str, failed: bool) -> None:
        if self.config.circuit_threshold <= 0:
            return
        with self._lock:
            circuit = self._circuits.setdefault(host, _HostCircuit())
            was_trial = circuit.trial_in_flight
            circuit.trial_in_flight = False
            if failed:
                circuit.consecutive_failures += 1
                if was_trial or circuit.consecutive_failures >= self.config.circuit_threshold:
                    # A failed trial re-opens the circuit for a full cooldown.
                    circuit.opened_at = time.monotonic()
            else:
                circuit.consecutive_failures = 0
                circuit.opened_at = None

    def _release_trial(self, host: str) -> None:
        """Free the half-open trial slot without judging the host either way
        (429 responses and non-HTTP exceptions land here)."""
        if self.config.circuit_threshold <= 0:
            return
        with self._lock:
            circuit = self._circuits.get(host)
            if circuit is not None:
                circuit.trial_in_flight = False

    def _note_taxonomy(self, host: str, kind: str) -> None:
        with self._lock:
            bucket = self.statistics.per_host_taxonomy.setdefault(host, {})
            bucket[kind] = bucket.get(kind, 0) + 1

    def _bump_host_failures(self, host: str) -> None:
        with self._lock:
            self.statistics.per_host_failures[host] = (
                self.statistics.per_host_failures.get(host, 0) + 1
            )

    # ------------------------------------------------------------------
    def get(self, url: str) -> SimulatedResponse:
        """Fetch a URL, following redirects, with retries and a deadline;
        raises :class:`HTTPError` (or a subclass) on terminal failure."""
        config = self.config
        with self._lock:
            self.statistics.n_requests += 1
        budget = _Budget(config.deadline_s)
        visited = {url}
        current = url
        hops = 0
        while True:
            response = self._fetch_with_retries(current, budget)
            location = response.headers.get("location")
            if not (300 <= response.status < 400) or not location:
                return response
            if "://" not in location:
                location = join_url(current, location)
            host = parse_url(current).host
            with self._lock:
                self.statistics.n_redirects += 1
            hops += 1
            if hops > config.max_redirects or location in visited:
                reason = ("redirect loop" if location in visited
                          else "too many redirects")
                self._bump_host_failures(host)
                self._note_taxonomy(host, "redirect-loop")
                self._record_outcome(host, failed=True)
                raise RedirectLoopError(url, reason)
            visited.add(location)
            current = location

    def _fetch_with_retries(self, url: str,
                            budget: _Budget) -> SimulatedResponse:
        """One redirect hop: the retry loop for a single URL."""
        config = self.config
        host = parse_url(url).host
        last_error: Optional[HTTPError] = None
        attempt = 0
        ratelimit_retries = 0
        while True:
            is_trial = self._check_circuit(host, url)
            settled = False  # whether this attempt's circuit outcome is recorded
            try:
                if self.rate_limiter is not None:
                    self.rate_limiter.acquire(host)
                if config.latency_s > 0:
                    budget.charge(config.latency_s, url)
                    time.sleep(config.latency_s)
                with self._lock:
                    self.statistics.n_attempts += 1
                response: Optional[SimulatedResponse] = None
                try:
                    response = self._inner.get(url)
                except HTTPError as exc:
                    last_error = exc
                    budget.charge(_reported_latency(exc), url)
                    with self._lock:
                        self.statistics.n_transport_errors += 1
                    self._bump_host_failures(host)
                    settled = True
                    self._record_outcome(host, failed=True)
                if response is not None:
                    budget.charge(_reported_latency(response), url)
                    status = response.status
                    if status == 429:
                        # Throttling is circuit-neutral: the host answered.
                        settled = True
                        if is_trial:
                            self._release_trial(host)
                        if ratelimit_retries >= config.max_ratelimit_retries:
                            # Storm outlasted the budget: hand the 429 back
                            # but remember the host in the taxonomy.
                            self._note_taxonomy(host, "exhausted-retries")
                            return response
                        ratelimit_retries += 1
                        with self._lock:
                            self.statistics.n_ratelimit_retries += 1
                        wait = min(_parse_retry_after(response),
                                   config.retry_after_cap_s)
                        if wait > 0:
                            budget.charge(wait, url)
                            time.sleep(wait)
                        continue
                    if status in config.retry_statuses:
                        # A retryable 5xx is a *failure* for the circuit and
                        # the per-host tally, even when the response is
                        # ultimately handed back to the caller.
                        last_error = HTTPError(url, f"HTTP {status}")
                        self._bump_host_failures(host)
                        settled = True
                        self._record_outcome(host, failed=True)
                        if attempt + 1 >= config.max_attempts:
                            self._note_taxonomy(host, "exhausted-retries")
                            return response
                    else:
                        settled = True
                        self._record_outcome(host, failed=False)
                        return response
                elif attempt + 1 >= config.max_attempts:
                    self._note_taxonomy(host, "exhausted-retries")
                    assert last_error is not None
                    raise last_error
                # Retry path (transport error or retryable status with
                # budget remaining).
                attempt += 1
                with self._lock:
                    self.statistics.n_retries += 1
                delay = self._backoff_delay(url, attempt)
                if delay > 0:
                    budget.charge(delay, url)
                    time.sleep(delay)
            except DeadlineExceededError:
                with self._lock:
                    self.statistics.n_deadline_exceeded += 1
                self._bump_host_failures(host)
                self._note_taxonomy(host, "deadline")
                if not settled:
                    # Tarpits count against the circuit; this also releases
                    # a held trial slot.
                    self._record_outcome(host, failed=True)
                raise
            except BaseException:
                # A non-HTTP exception (rate-limiter interrupt, handler bug)
                # must still free the half-open trial slot, or the circuit
                # wedges open forever.
                if is_trial and not settled:
                    self._release_trial(host)
                raise

    def get_json(self, url: str) -> object:
        """Fetch a URL and parse its JSON body (raises on non-2xx)."""
        response = self.get(url)
        if not response.ok:
            raise HTTPError(url, f"HTTP {response.status}")
        return response.json()
