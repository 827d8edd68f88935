"""Tests for the shard-partitioned crawl (``CrawlPipeline.run_sharded``).

The load-bearing invariant: for a fixed seed, the partitioned crawl's
sharded store is **byte-identical** (per-shard fingerprints + canonical
manifest) to sharding the unsharded crawl's corpus — on every execution
backend, cold or resumed, fork or spawn — while never materializing a
whole-run corpus.
"""

from __future__ import annotations

import os

import pytest

from repro.crawler.pipeline import CrawlPipeline
from repro.crawler.transport import TransportConfig
from repro.ecosystem.config import EcosystemConfig
from repro.ecosystem.generator import EcosystemGenerator
from repro.exec import WorkerPool
from repro.io import canonical_json, corpus_to_payload, policies_to_payload
from repro.io.shards import ShardedCorpusStore

N_GPTS = 110
SEED = 13
SHARDS = 4

#: Backend the marked smoke subset runs on (`make test-process` overrides).
SMOKE_BACKEND = os.environ.get("REPRO_TEST_BACKEND", "thread")


@pytest.fixture(scope="module")
def ecosystem():
    config = EcosystemConfig.paper_calibrated(n_gpts=N_GPTS, seed=SEED)
    return EcosystemGenerator(config).generate()


def _pipeline(ecosystem, **kwargs):
    # A couple of retries exercise the seeded per-(URL, attempt) draws.
    config = TransportConfig(max_attempts=3, seed=SEED)
    return CrawlPipeline.from_ecosystem(
        ecosystem, seed=SEED, transport_config=config, **kwargs
    )


@pytest.fixture(scope="module")
def reference(ecosystem, tmp_path_factory):
    """Unsharded crawl, then shard its corpus: the byte-identity reference."""
    corpus = _pipeline(ecosystem).run()
    root = tmp_path_factory.mktemp("reference-shards")
    store = ShardedCorpusStore.write_corpus(corpus, root, n_shards=SHARDS)
    return {
        "corpus": corpus,
        "fingerprint": store.fingerprint(),
        "manifest": canonical_json(store.manifest.to_payload()),
    }


def _store_identity(store, reference) -> bool:
    return (
        store.fingerprint() == reference["fingerprint"]
        and canonical_json(store.manifest.to_payload()) == reference["manifest"]
    )


class TestShardedCrawlByteIdentity:
    @pytest.mark.process_smoke
    def test_smoke_backend_byte_identical(self, ecosystem, reference, tmp_path):
        pipeline = _pipeline(ecosystem, shards=SHARDS, workers=2, backend=SMOKE_BACKEND)
        store = pipeline.run_sharded(tmp_path / "store")
        assert _store_identity(store, reference)
        assert pipeline.statistics.n_resolved == N_GPTS
        assert pipeline.statistics.n_http_requests > 0

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_backend_byte_identical(self, ecosystem, reference, tmp_path, backend):
        pipeline = _pipeline(ecosystem, shards=SHARDS, workers=2, backend=backend)
        store = pipeline.run_sharded(tmp_path / backend)
        assert _store_identity(store, reference)

    def test_single_shard_byte_identical(self, ecosystem, reference, tmp_path):
        corpus = reference["corpus"]
        single_ref = ShardedCorpusStore.write_corpus(
            corpus, tmp_path / "ref1", n_shards=1
        )
        store = _pipeline(ecosystem, shards=1, backend="thread", workers=2).run_sharded(
            tmp_path / "one"
        )
        # shards=1 routes everything through one sub-pipeline and still
        # matches the unsharded corpus sharded at 1.
        assert store.fingerprint() == single_ref.fingerprint()

    def test_fork_and_spawn_agree(self, ecosystem, reference, tmp_path):
        fingerprints = {}
        for method in ("fork", "spawn"):
            with WorkerPool(kind="process", workers=2, start_method=method) as pool:
                pipeline = _pipeline(ecosystem, shards=SHARDS, backend=pool)
                store = pipeline.run_sharded(tmp_path / method)
            fingerprints[method] = store.fingerprint()
            assert _store_identity(store, reference)
        assert fingerprints["fork"] == fingerprints["spawn"]


class TestWarmPoolCrawl:
    """One persistent WorkerPool across whole crawls (the PR's warm path)."""

    @pytest.mark.process_smoke
    def test_borrowed_pool_reused_across_crawls_byte_identical(
        self, ecosystem, reference, tmp_path
    ):
        """Two full sharded crawls on ONE borrowed pool: both byte-identical
        to the reference, and the pool is still open afterwards (a borrowed
        instance is never closed by the pipeline)."""
        from repro.exec import ExecTask

        with WorkerPool(kind="process", workers=2) as pool:
            for run in ("first", "second"):
                pipeline = _pipeline(ecosystem, shards=SHARDS, backend=pool)
                store = pipeline.run_sharded(tmp_path / run)
                assert _store_identity(store, reference)
            # Still warm and usable: the consumer must not have closed it.
            assert pool.run([ExecTask(key="alive", fn=len, args=("ok",))])[0].result == 2

    @pytest.mark.process_smoke
    def test_string_spec_builds_and_closes_an_owned_pool(self, ecosystem, tmp_path):
        """backend="process" makes the pipeline build its own warm pool and
        tear it down when run_sharded returns — no leaked worker processes."""
        pipeline = _pipeline(ecosystem, shards=SHARDS, backend="process", workers=2)
        pool = pipeline._shard_pool()  # the lazily built owned pool
        assert pipeline._owned_pool is pool
        pipeline.run_sharded(tmp_path / "owned")
        assert pool._closed
        assert pipeline._owned_pool is None


class TestCompatibilityMerge:
    def test_run_is_byte_identical_to_unsharded(self, ecosystem, reference):
        """run() ignores ``shards``: a corpus has no on-disk layout, so the
        in-memory crawl partitions over its workers instead, and returns
        the unsharded corpus in exact discovery order — byte-identical
        payloads, no normalization."""
        compat = _pipeline(ecosystem, shards=SHARDS, workers=2, backend="thread").run()
        unsharded = reference["corpus"]
        assert canonical_json(corpus_to_payload(compat)) == canonical_json(
            corpus_to_payload(unsharded)
        )
        assert canonical_json(policies_to_payload(compat)) == canonical_json(
            policies_to_payload(unsharded)
        )
        assert list(compat.gpts) == list(unsharded.gpts)
        assert compat.discovery_indices == unsharded.discovery_indices
        assert len(compat.gpts) == N_GPTS


class TestShardedCrawlResume:
    def test_kill_mid_shard_resume_identity(self, ecosystem, reference, tmp_path):
        """A sharded crawl killed mid-shard resumes — on a *different*
        backend — to a store byte-identical to the uninterrupted run."""
        checkpoint_dir = tmp_path / "checkpoint"
        killed = _pipeline(
            ecosystem,
            shards=SHARDS,
            checkpoint_dir=str(checkpoint_dir),
            checkpoint_every=5,
        )
        real_get = killed.http.get
        calls = {"n": 0}

        def killer_get(url):
            calls["n"] += 1
            if calls["n"] == 70:  # mid-resolve, past the listing stage
                raise KeyboardInterrupt
            return real_get(url)

        killed.http.get = killer_get
        with pytest.raises(KeyboardInterrupt):
            killed.run_sharded(tmp_path / "dead")

        resumed = _pipeline(
            ecosystem,
            shards=SHARDS,
            checkpoint_dir=str(checkpoint_dir),
            resume=True,
            backend="process",
            workers=2,
        )
        store = resumed.run_sharded(tmp_path / "resumed")
        assert resumed.statistics.n_tasks_resumed > 0
        assert _store_identity(store, reference)

    def test_cross_layout_resume_identity(self, ecosystem, reference, tmp_path):
        """A checkpoint written under one shard layout resumes correctly
        under another (the layout marker flags the mix, and per-shard loads
        fall back to stream-filtering every file)."""
        checkpoint_dir = tmp_path / "checkpoint"
        killed = _pipeline(
            ecosystem, shards=2,
            checkpoint_dir=str(checkpoint_dir), checkpoint_every=5,
        )
        real_get = killed.http.get
        calls = {"n": 0}

        def killer_get(url):
            calls["n"] += 1
            if calls["n"] == 70:
                raise KeyboardInterrupt
            return real_get(url)

        killed.http.get = killer_get
        with pytest.raises(KeyboardInterrupt):
            killed.run_sharded(tmp_path / "dead")

        resumed = _pipeline(
            ecosystem, shards=SHARDS,  # different layout than the writer
            checkpoint_dir=str(checkpoint_dir), resume=True,
        )
        store = resumed.run_sharded(tmp_path / "resumed")
        assert resumed.statistics.n_tasks_resumed > 0
        assert _store_identity(store, reference)

    @pytest.mark.parametrize("entry", ["run", "run_sharded"])
    def test_interrupted_partition_flushes_its_fetches(
        self, ecosystem, reference, tmp_path, entry
    ):
        """A partition killed between two periodic flushes still flushes
        what it fetched on the way out: the resumed crawl skips those
        fetches, for either sink, and still reproduces the reference."""

        def crawl(pipeline, name):
            if entry == "run":
                return pipeline.run()
            return pipeline.run_sharded(tmp_path / name).load_corpus()

        uninterrupted = _pipeline(ecosystem, shards=1, backend="serial")
        crawl(uninterrupted, "uninterrupted")

        checkpoint_dir = str(tmp_path / "checkpoint")
        killed = _pipeline(
            ecosystem, shards=1, backend="serial",
            checkpoint_dir=checkpoint_dir, checkpoint_every=1000,
        )
        real_get = killed.http.get
        calls = {"n": 0}

        def killer_get(url):
            calls["n"] += 1
            if calls["n"] == 80:  # mid-resolve, far from a periodic flush
                raise KeyboardInterrupt
            return real_get(url)

        killed.http.get = killer_get
        with pytest.raises(KeyboardInterrupt):
            crawl(killed, "dead")

        resumed = _pipeline(
            ecosystem, shards=1, backend="serial",
            checkpoint_dir=checkpoint_dir, resume=True,
        )
        corpus = crawl(resumed, "resumed")
        # More than the listing's per-store tasks came from the checkpoint.
        assert resumed.statistics.n_tasks_resumed > len(resumed.store_servers)
        assert (
            resumed.statistics.n_http_requests
            < uninterrupted.statistics.n_http_requests
        )
        assert canonical_json(corpus_to_payload(corpus)) == canonical_json(
            corpus_to_payload(reference["corpus"])
        )
        assert canonical_json(policies_to_payload(corpus)) == canonical_json(
            policies_to_payload(reference["corpus"])
        )

    def test_shard_sliced_checkpoint_load_is_bounded(self, tmp_path):
        """load_stage_for_shard returns only the shard's own records, via
        the fast path (marker matches) and the filtered path (mixed)."""
        from repro.io import CrawlCheckpoint
        from repro.io.shards import shard_index

        writer = CrawlCheckpoint(tmp_path, n_shards=4)
        keys = [f"key-{i}" for i in range(40)]
        for key in keys:
            writer.append("resolve", key, {"v": key})
        writer.flush()

        reader = CrawlCheckpoint(tmp_path, n_shards=4)
        for shard in range(4):
            expected = {k for k in keys if shard_index(k, 4) == shard}
            got = reader.load_stage_for_shard("resolve", shard)
            assert set(got) == expected

        # A second writer under a different layout mixes the directory;
        # per-shard loads must still partition every record correctly.
        other = CrawlCheckpoint(tmp_path, n_shards=2)
        extra = [f"extra-{i}" for i in range(10)]
        for key in extra:
            other.record("resolve", key, {"v": key})
        other.flush()
        mixed = CrawlCheckpoint(tmp_path, n_shards=4)
        seen = {}
        for shard in range(4):
            for key in mixed.load_stage_for_shard("resolve", shard):
                assert shard_index(key, 4) == shard
                seen[key] = shard
        assert set(seen) == set(keys) | set(extra)

    def test_resume_config_mismatch_rejected(self, ecosystem, tmp_path):
        first = _pipeline(ecosystem, shards=2, checkpoint_dir=str(tmp_path / "ck"))
        first.run_sharded(tmp_path / "a")
        other = EcosystemGenerator(
            EcosystemConfig.paper_calibrated(n_gpts=40, seed=99)
        ).generate()
        mismatched = CrawlPipeline.from_ecosystem(
            other, seed=99, shards=2, checkpoint_dir=str(tmp_path / "ck"), resume=True
        )
        with pytest.raises(ValueError):
            mismatched.run_sharded(tmp_path / "b")
        # The store sink opens only after the checkpoint check: a refused
        # resume leaves no store directory behind.
        assert not (tmp_path / "b").exists()


class TestProcessKindRequirements:
    def test_process_backend_requires_ecosystem(self, ecosystem, tmp_path):
        pipeline = _pipeline(ecosystem, shards=2, backend="process")
        pipeline.ecosystem = None  # simulate a hand-wired pipeline
        with pytest.raises(ValueError, match="ecosystem"):
            pipeline.run_sharded(tmp_path / "never")

    def test_process_backend_refuses_rate_limits(self, ecosystem, tmp_path):
        """Per-host politeness cannot span worker processes; the crawl must
        refuse loudly instead of admitting workers x the configured rate."""
        pipeline = _pipeline(
            ecosystem, shards=2, backend="process",
            rate_limits={"api.example.com": 2.0},
        )
        with pytest.raises(ValueError, match="rate limits"):
            pipeline.run_sharded(tmp_path / "never")

    def test_rate_limit_refusal_names_the_thread_workaround(self, ecosystem, tmp_path):
        """The refusal is only actionable if it says what to do instead: the
        message must name the ``--backend thread`` spelling (which shares one
        rate-limited transport across shard workers)."""
        pipeline = _pipeline(
            ecosystem, shards=2, backend="process",
            rate_limits={"api.example.com": 2.0},
        )
        with pytest.raises(ValueError) as excinfo:
            pipeline.run_sharded(tmp_path / "never")
        message = str(excinfo.value)
        assert "--backend thread" in message
        assert "drop the rate limits" in message


class TestConcurrentCheckpointFlush:
    def test_concurrent_first_flushes_do_not_race(self, tmp_path):
        """Per-shard sub-pipelines each hold their own CrawlCheckpoint over
        one directory; concurrent first flushes must not collide on the
        layout marker's temp file."""
        import threading

        from repro.io import CrawlCheckpoint

        for trial in range(25):
            directory = tmp_path / f"trial{trial}"
            errors = []

            def flush_one(shard, directory=directory, errors=errors):
                try:
                    checkpoint = CrawlCheckpoint(directory, n_shards=8)
                    checkpoint.append("resolve", f"key-{shard}", {"v": shard})
                    checkpoint.flush("resolve")
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

            threads = [
                threading.Thread(target=flush_one, args=(shard,)) for shard in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, f"trial {trial}: {errors[:3]}"


class TestSuiteShardedCrawl:
    @pytest.mark.process_smoke
    def test_crawl_only_suite_never_materializes_corpus(self, tmp_path):
        """A sharded suite serving corpus-stream analyses crawls straight
        into the shard store; the in-memory corpus stage stays untouched."""
        from repro.analysis.suite import MeasurementSuite, SuiteConfig

        sharded = MeasurementSuite(
            config=SuiteConfig(
                n_gpts=60, seed=5, shards=3, shard_workers=2,
                backend=SMOKE_BACKEND, shard_dir=str(tmp_path / "shards"),
            )
        )
        stats = sharded.crawl_stats
        assert sharded._corpus is None, "sharded crawl_stats materialized the corpus"

        unsharded = MeasurementSuite(config=SuiteConfig(n_gpts=60, seed=5))
        reference = unsharded.crawl_stats
        assert stats.per_store_counts == reference.per_store_counts
        assert stats.total_unique_gpts == reference.total_unique_gpts
        assert stats.policy_availability == reference.policy_availability
