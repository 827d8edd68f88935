"""Tests for the crawl's per-host politeness limits (token buckets).

The limiter lives in :mod:`repro.crawler.transport`, which consults it
before every request attempt; the transport-level behavior is covered in
``test_transport.py``.
"""

import time

import pytest

from repro.crawler.transport import HostRateLimiter, TokenBucket


class TestTokenBucket:
    def test_burst_then_throttle(self):
        bucket = TokenBucket(rate=1000.0, capacity=2)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        # Bucket drained; the next token arrives after ~1ms.
        assert not bucket.try_acquire()
        time.sleep(0.005)
        assert bucket.try_acquire()

    def test_acquire_blocks_until_token(self):
        bucket = TokenBucket(rate=200.0, capacity=1)
        bucket.acquire()
        start = time.monotonic()
        bucket.acquire()
        assert time.monotonic() - start >= 0.003

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)


class TestHostRateLimiter:
    def test_unthrottled_host_is_noop(self):
        limiter = HostRateLimiter(rates={"slow.example": 1.0})
        start = time.monotonic()
        for _ in range(100):
            limiter.acquire("fast.example")
        assert time.monotonic() - start < 0.5

    def test_throttled_host_blocks(self):
        limiter = HostRateLimiter(rates={"slow.example": 100.0})
        start = time.monotonic()
        for _ in range(3):
            limiter.acquire("slow.example")
        # Burst of 1, then 2 waits of ~10ms each.
        assert time.monotonic() - start >= 0.015

    def test_default_rate_applies_to_unlisted_hosts(self):
        limiter = HostRateLimiter(default_rate=100.0)
        start = time.monotonic()
        for _ in range(3):
            limiter.acquire("anything.example")
        assert time.monotonic() - start >= 0.015

    def test_none_host_is_noop(self):
        HostRateLimiter(default_rate=0.001).acquire(None)
