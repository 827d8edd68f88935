"""Tests for the retrying transport and flaky-host behavior.

Covers the failure-handling the paper's crawl needed (Section 5.1.1):
deterministic seeded flakiness, retry-until-budget recovery, circuit
breaking, and the pipeline-level accounting of transport errors.
"""

import time

import pytest

from repro.crawler.http import HTTPError, SimulatedHTTPLayer, SimulatedResponse
from repro.crawler.pipeline import CrawlPipeline
from repro.crawler.policy_fetcher import PolicyFetcher
from repro.crawler.transport import (
    CircuitOpenError,
    DeadlineExceededError,
    RedirectLoopError,
    RetryingTransport,
    TransportConfig,
)


def _flaky_layer(seed=0, rate=0.5, url="https://flaky.example/doc"):
    http = SimulatedHTTPLayer(seed=seed)
    http.register_static(url, "document")
    http.set_flaky_host("flaky.example", rate)
    return http, url


class TestSeededFlakiness:
    def test_same_seed_same_failure_pattern(self):
        """The Nth request to a URL fails identically across layers."""
        def pattern(http, url, n=20):
            outcomes = []
            for _ in range(n):
                try:
                    http.get(url)
                    outcomes.append(True)
                except HTTPError:
                    outcomes.append(False)
            return outcomes

        http_a, url = _flaky_layer(seed=7)
        http_b, _ = _flaky_layer(seed=7)
        assert pattern(http_a, url) == pattern(http_b, url)

    def test_different_seeds_differ(self):
        def pattern(http, url, n=40):
            results = []
            for _ in range(n):
                try:
                    http.get(url)
                    results.append(True)
                except HTTPError:
                    results.append(False)
            return results

        http_a, url = _flaky_layer(seed=1)
        http_b, _ = _flaky_layer(seed=2)
        assert pattern(http_a, url) != pattern(http_b, url)

    def test_pattern_independent_of_other_urls(self):
        """Interleaving requests to other URLs must not shift the draws —
        this is what makes concurrent crawls reproducible."""
        http_a, url = _flaky_layer(seed=5)
        http_b, _ = _flaky_layer(seed=5)
        http_b.register_static("https://other.example/x", "x")

        def outcome(http):
            try:
                http.get(url)
                return True
            except HTTPError:
                return False

        pattern_a = [outcome(http_a) for _ in range(10)]
        pattern_b = []
        for _ in range(10):
            http_b.get("https://other.example/x")
            pattern_b.append(outcome(http_b))
        assert pattern_a == pattern_b


class TestRetryingTransport:
    def test_retries_until_budget_succeeds(self):
        # With a 0.6 failure rate and 8 attempts, some early attempts fail
        # but the budget is deep enough that the fetch recovers.
        http, url = _flaky_layer(seed=0, rate=0.6)
        transport = RetryingTransport(http, TransportConfig(max_attempts=8))
        response = transport.get(url)
        assert response.ok and response.text == "document"
        assert transport.statistics.n_retries >= 1
        assert transport.statistics.n_transport_errors >= 1

    def test_exhausted_budget_raises(self):
        http, url = _flaky_layer(seed=0, rate=1.0)
        transport = RetryingTransport(http, TransportConfig(max_attempts=3))
        with pytest.raises(HTTPError):
            transport.get(url)
        assert transport.statistics.n_attempts == 3

    def test_no_retry_on_success(self):
        http = SimulatedHTTPLayer()
        http.register_static("https://ok.example/x", "x")
        transport = RetryingTransport(http, TransportConfig(max_attempts=5))
        assert transport.get("https://ok.example/x").ok
        assert transport.statistics.n_attempts == 1
        assert transport.statistics.n_retries == 0

    def test_permanent_500_not_retried(self):
        http = SimulatedHTTPLayer()
        http.set_status_override("https://broken.example/p", 500)
        transport = RetryingTransport(http, TransportConfig(max_attempts=4))
        assert transport.get("https://broken.example/p").status == 500
        assert transport.statistics.n_attempts == 1

    def test_transient_503_retried(self):
        http = SimulatedHTTPLayer()
        http.set_status_override("https://busy.example/p", 503)
        transport = RetryingTransport(http, TransportConfig(max_attempts=3))
        assert transport.get("https://busy.example/p").status == 503
        assert transport.statistics.n_attempts == 3

    def test_backoff_delays_are_seeded(self):
        config = TransportConfig(backoff_base_s=0.01, seed=9)
        http, url = _flaky_layer()
        transport_a = RetryingTransport(http, config)
        transport_b = RetryingTransport(http, config)
        delays_a = [transport_a._backoff_delay(url, k) for k in (1, 2, 3)]
        delays_b = [transport_b._backoff_delay(url, k) for k in (1, 2, 3)]
        assert delays_a == delays_b
        assert all(delay > 0 for delay in delays_a)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            RetryingTransport(SimulatedHTTPLayer(), TransportConfig(max_attempts=0))

    def test_rate_limiter_consulted_per_attempt(self):
        import time

        from repro.crawler.transport import HostRateLimiter

        http, url = _flaky_layer(seed=0, rate=1.0)
        transport = RetryingTransport(
            http,
            TransportConfig(max_attempts=3),
            rate_limiter=HostRateLimiter(rates={"flaky.example": 200.0}),
        )
        start = time.monotonic()
        with pytest.raises(HTTPError):
            transport.get(url)
        # Burst of 1 token, then each of the 2 retries waits ~5ms for its own.
        assert time.monotonic() - start >= 0.008
        assert transport.statistics.n_attempts == 3

    def test_get_json_passthrough(self):
        http = SimulatedHTTPLayer()
        http.register_static("https://api.example/j", '{"a": 1}')
        transport = RetryingTransport(http)
        assert transport.get_json("https://api.example/j") == {"a": 1}


class TestCircuitBreaker:
    def _dead_host_transport(self, threshold=2, cooldown=10.0):
        http, url = _flaky_layer(rate=1.0)
        config = TransportConfig(
            max_attempts=1, circuit_threshold=threshold, circuit_cooldown_s=cooldown
        )
        return RetryingTransport(http, config), http, url

    def test_circuit_opens_after_consecutive_failures(self):
        transport, http, url = self._dead_host_transport()
        for _ in range(2):
            with pytest.raises(HTTPError):
                transport.get(url)
        before = http.request_count
        with pytest.raises(CircuitOpenError):
            transport.get(url)
        assert http.request_count == before  # rejected without touching the network
        assert transport.statistics.n_circuit_rejections == 1

    def test_circuit_half_opens_after_cooldown(self):
        transport, http, url = self._dead_host_transport(cooldown=0.0)
        for _ in range(2):
            with pytest.raises(HTTPError):
                transport.get(url)
        # Cooldown of zero: the next request is a trial that reaches the host.
        before = http.request_count
        with pytest.raises(HTTPError):
            transport.get(url)
        assert http.request_count == before + 1

    def test_half_open_admits_single_trial(self):
        transport, http, url = self._dead_host_transport(cooldown=0.0)
        for _ in range(2):
            with pytest.raises(HTTPError):
                transport.get(url)
        # Simulate a second caller arriving while the trial is in flight:
        # the first _check_circuit admits the trial, the second must reject.
        transport._check_circuit("flaky.example", url)
        circuit = transport._circuits["flaky.example"]
        assert circuit.trial_in_flight
        with pytest.raises(CircuitOpenError):
            transport._check_circuit("flaky.example", url)
        # The failed trial re-opens the circuit for a fresh cooldown.
        transport._record_outcome("flaky.example", failed=True)
        assert not circuit.trial_in_flight
        assert circuit.opened_at is not None

    def test_success_closes_circuit(self):
        http = SimulatedHTTPLayer(seed=0)
        http.register_static("https://wobbly.example/doc", "doc")
        http.set_flaky_host("wobbly.example", 0.6)
        config = TransportConfig(max_attempts=10, circuit_threshold=50)
        transport = RetryingTransport(http, config)
        assert transport.get("https://wobbly.example/doc").ok
        circuit = transport._circuits["wobbly.example"]
        assert circuit.consecutive_failures == 0


class TestRetryableStatusOpensCircuit:
    """Regression: a retryable 5xx used to be recorded as a *success* for
    the circuit (``_record_outcome(failed=False)`` ran before the status
    check), so a host serving an endless 503 storm reset its own circuit on
    every attempt and was hammered forever."""

    def _storm(self, max_attempts, threshold, cooldown=60.0):
        http = SimulatedHTTPLayer()
        url = "https://always503.example/doc"
        http.set_status_override(url, 503)
        config = TransportConfig(
            max_attempts=max_attempts,
            circuit_threshold=threshold,
            circuit_cooldown_s=cooldown,
        )
        return RetryingTransport(http, config), http, url

    def test_pure_503_host_opens_the_circuit(self):
        transport, http, url = self._storm(max_attempts=1, threshold=2)
        for _ in range(2):
            assert transport.get(url).status == 503  # terminal: handed back
        before = http.request_count
        with pytest.raises(CircuitOpenError):
            transport.get(url)
        assert http.request_count == before  # the storm is no longer hit
        assert transport.statistics.per_host_failures["always503.example"] == 2
        assert transport.statistics.per_host_taxonomy["always503.example"] == {
            "exhausted-retries": 2,
            "circuit-open": 1,
        }

    def test_each_retried_503_attempt_counts_as_a_failure(self):
        transport, http, url = self._storm(max_attempts=3, threshold=3)
        assert transport.get(url).status == 503  # three attempts, all 503
        with pytest.raises(CircuitOpenError):
            transport.get(url)
        assert transport.statistics.per_host_failures["always503.example"] == 3

    def test_half_open_trial_returning_503_reopens(self):
        transport, http, url = self._storm(max_attempts=1, threshold=1, cooldown=0.0)
        assert transport.get(url).status == 503  # opens the circuit
        before = http.request_count
        assert transport.get(url).status == 503  # the cooled-down trial
        assert http.request_count == before + 1
        circuit = transport._circuits["always503.example"]
        assert not circuit.trial_in_flight
        assert circuit.opened_at is not None  # failed trial: fresh cooldown


class _WedgeInner:
    """Inner transport that fails as scripted — first as a connection error,
    then by raising straight through ``get`` (a handler bug)."""

    def __init__(self):
        self.mode = "http-error"
        self.calls = 0

    def get(self, url):
        self.calls += 1
        if self.mode == "boom":
            raise RuntimeError("handler bug")
        raise HTTPError(url, "connection reset by peer")


class TestHalfOpenTrialRelease:
    """Regression: a half-open trial that died on a non-``HTTPError``
    exception never cleared ``trial_in_flight``, wedging the circuit open
    (every later request rejected) for the rest of the crawl."""

    def test_non_http_exception_releases_the_trial_slot(self):
        inner = _WedgeInner()
        transport = RetryingTransport(
            inner,
            TransportConfig(
                max_attempts=1, circuit_threshold=1, circuit_cooldown_s=0.0
            ),
        )
        url = "https://wedge.example/doc"
        with pytest.raises(HTTPError):
            transport.get(url)  # opens the circuit
        inner.mode = "boom"
        with pytest.raises(RuntimeError):
            transport.get(url)  # the trial dies through inner.get
        circuit = transport._circuits["wedge.example"]
        assert not circuit.trial_in_flight
        # The next request is admitted as a fresh trial — it reaches the
        # network instead of being rejected by a wedged circuit forever.
        calls_before = inner.calls
        with pytest.raises(RuntimeError):
            transport.get(url)
        assert inner.calls == calls_before + 1


class TestRedirectFollowing:
    def _chain_layer(self, hops=2):
        http = SimulatedHTTPLayer()
        url = "https://hop.example/doc"
        http.register_static(url, "destination")
        http.set_redirect_chain("hop.example", hops=hops)
        return http, url

    def test_chain_followed_to_content(self):
        http, url = self._chain_layer(hops=2)
        transport = RetryingTransport(http)
        response = transport.get(url)
        assert response.ok and response.text == "destination"
        assert transport.statistics.n_redirects == 2
        assert transport.statistics.n_requests == 1
        assert transport.statistics.per_host_taxonomy == {}

    def test_loop_detected_and_quarantined(self):
        http = SimulatedHTTPLayer()
        url = "https://cycle.example/doc"
        http.register_static(url, "never served")
        http.set_redirect_loop("cycle.example", period=3)
        transport = RetryingTransport(http, TransportConfig(max_redirects=50))
        with pytest.raises(RedirectLoopError):
            transport.get(url)
        # Detected by the visited set, not by burning the whole hop budget.
        assert transport.statistics.n_redirects <= 4
        assert transport.statistics.per_host_taxonomy["cycle.example"] == {
            "redirect-loop": 1
        }
        assert transport.statistics.per_host_failures["cycle.example"] == 1

    def test_max_redirects_bounds_long_chains(self):
        http, url = self._chain_layer(hops=10)
        transport = RetryingTransport(http, TransportConfig(max_redirects=3))
        with pytest.raises(RedirectLoopError, match="too many redirects"):
            transport.get(url)
        assert transport.statistics.n_redirects == 4  # the hop that broke it

    def test_relative_location_resolved(self):
        http = SimulatedHTTPLayer()
        http.register_exact(
            "https://rel.example/old",
            lambda url: SimulatedResponse(
                url, 301, "", headers={"location": "/new"}
            ),
        )
        http.register_static("https://rel.example/new", "moved here")
        response = RetryingTransport(http).get("https://rel.example/old")
        assert response.ok and response.text == "moved here"


class TestRetryAfterHandling:
    def _storm_layer(self, burst, retry_after_s=0.001):
        http = SimulatedHTTPLayer()
        url = "https://busy.example/doc"
        http.register_static(url, "served")
        http.set_rate_limit_storm("busy.example", burst=burst, retry_after_s=retry_after_s)
        return http, url

    def test_storm_survived_within_budget(self):
        http, url = self._storm_layer(burst=3)
        transport = RetryingTransport(http, TransportConfig(max_ratelimit_retries=4))
        response = transport.get(url)
        assert response.ok and response.text == "served"
        # 429 retries are counted apart from the error-retry budget.
        assert transport.statistics.n_ratelimit_retries == 3
        assert transport.statistics.n_retries == 0
        assert transport.statistics.per_host_taxonomy == {}

    def test_exhausted_storm_returns_429_and_quarantines(self):
        http, url = self._storm_layer(burst=10)
        transport = RetryingTransport(
            http,
            TransportConfig(
                max_ratelimit_retries=2, circuit_threshold=1,
                circuit_cooldown_s=60.0,
            ),
        )
        assert transport.get(url).status == 429
        assert transport.statistics.n_ratelimit_retries == 2
        assert transport.statistics.per_host_taxonomy["busy.example"] == {
            "exhausted-retries": 1
        }
        # Throttling is circuit-neutral: the host answered, so even at
        # threshold 1 the next request still reaches the network.
        before = http.request_count
        assert transport.get(url).status == 429
        assert http.request_count > before

    def test_retry_after_honored_but_capped(self):
        # The host advertises a 10s wait; the cap keeps each honored wait at
        # 10ms and the deadline budget (charged *before* sleeping) cuts the
        # storm off — wall time stays milliseconds, not tens of seconds.
        http, url = self._storm_layer(burst=50, retry_after_s=10.0)
        transport = RetryingTransport(
            http,
            TransportConfig(
                max_ratelimit_retries=50,
                retry_after_cap_s=0.01,
                deadline_s=0.025,
            ),
        )
        start = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            transport.get(url)
        assert time.monotonic() - start < 1.0
        assert transport.statistics.n_deadline_exceeded == 1
        assert transport.statistics.per_host_taxonomy["busy.example"] == {
            "deadline": 1
        }


class TestDeadlineBudget:
    def test_configured_latency_consumes_the_budget(self):
        http, url = _flaky_layer(seed=0, rate=1.0)
        transport = RetryingTransport(
            http,
            TransportConfig(max_attempts=10, latency_s=0.004, deadline_s=0.01),
        )
        with pytest.raises(DeadlineExceededError) as excinfo:
            transport.get(url)
        # Two attempts fit (0.008s); the third breaches the budget before
        # its sleep, so the retry budget is never the binding constraint.
        assert transport.statistics.n_attempts == 2
        assert excinfo.value.spent_s > excinfo.value.budget_s == 0.01
        assert transport.statistics.per_host_taxonomy["flaky.example"] == {
            "deadline": 1
        }

    def test_tarpit_reported_latency_is_charged_without_sleeping(self):
        http = SimulatedHTTPLayer()
        url = "https://tarpit.example/doc"
        http.register_static(url, "slow")
        http.set_host_latency("tarpit.example", base_s=30.0)
        transport = RetryingTransport(http, TransportConfig(deadline_s=0.2))
        start = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            transport.get(url)
        # The layer *reports* 30s of service time instead of sleeping, and
        # the transport charges it against the budget: the tarpit quarantines
        # in microseconds of wall time.
        assert time.monotonic() - start < 1.0
        assert transport.statistics.n_deadline_exceeded == 1

    def test_deadline_spans_redirect_hops(self):
        http = SimulatedHTTPLayer()
        url = "https://slowhop.example/doc"
        http.register_static(url, "destination")
        http.set_redirect_chain("slowhop.example", hops=3)
        http.set_host_latency("slowhop.example", base_s=0.09)
        transport = RetryingTransport(http, TransportConfig(deadline_s=0.2))
        # One logical request, one budget: 3 hops x 0.09s breaches 0.2s even
        # though every individual hop is fast.
        with pytest.raises(DeadlineExceededError):
            transport.get(url)

    def test_unlimited_by_default(self):
        http = SimulatedHTTPLayer()
        url = "https://tarpit.example/doc"
        http.register_static(url, "slow")
        http.set_host_latency("tarpit.example", base_s=30.0)
        assert RetryingTransport(http).get(url).text == "slow"


class TestTransportConfigCoercion:
    def test_from_dict_converts_retry_statuses(self):
        config = TransportConfig.from_dict(
            {"max_attempts": 5, "retry_statuses": [500, 503], "deadline_s": 0.3}
        )
        assert config.max_attempts == 5
        assert config.retry_statuses == frozenset({500, 503})
        assert config.deadline_s == 0.3

    def test_coerce_accepts_config_mapping_and_none(self):
        config = TransportConfig(max_attempts=2)
        assert TransportConfig.coerce(config) is config
        assert TransportConfig.coerce(None) is None
        assert TransportConfig.coerce({"max_attempts": 2}) == config


class TestPipelineTransportAccounting:
    def test_policy_failures_count_transport_errors(self, small_ecosystem):
        """A policy host that always resets connections shows up in
        ``n_policy_failures`` (the fetcher records the exhausted retries)."""
        baseline = CrawlPipeline.from_ecosystem(small_ecosystem, seed=11)
        baseline_corpus = baseline.run()
        # Pick a host that serves at least one successfully-fetched policy.
        ok_urls = [url for url, r in baseline_corpus.policies.items() if r.ok]
        assert ok_urls
        from repro.web.urls import url_host
        dead_host = url_host(ok_urls[0])
        n_dead = sum(1 for url in baseline_corpus.policies if url_host(url) == dead_host)

        pipeline = CrawlPipeline.from_ecosystem(
            small_ecosystem, seed=11,
            transport_config=TransportConfig(max_attempts=3),
        )
        pipeline.http.set_flaky_host(dead_host, 1.0)
        corpus = pipeline.run()
        assert pipeline.statistics.n_policy_failures == (
            baseline.statistics.n_policy_failures + n_dead
        )
        for url in corpus.policies:
            if url_host(url) == dead_host:
                result = corpus.policies[url]
                assert not result.ok
                assert result.status == 0
                assert "connection reset" in result.error
        assert pipeline.statistics.n_retries >= 2 * n_dead

    def test_policy_fetcher_recovers_through_retries(self):
        http, url = _flaky_layer(seed=0, rate=0.6)
        transport = RetryingTransport(http, TransportConfig(max_attempts=8))
        result = PolicyFetcher(transport).fetch(url)
        assert result.ok and result.text == "document"
