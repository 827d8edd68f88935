"""Tests for crawl checkpointing, resume, and worker-count determinism."""

import json
import os

import pytest

from repro.crawler.pipeline import CrawlPipeline
from repro.io import CrawlCheckpoint, corpus_to_payload, policies_to_payload

#: Backend the marked smoke case runs on (`make test-process` overrides).
SMOKE_BACKEND = os.environ.get("REPRO_TEST_BACKEND", "thread")


def _crawl_identity(pipeline, corpus):
    """Everything an in-memory crawl must reproduce at any partition count:
    the payloads, every dict order, and the statistics."""
    stats = pipeline.statistics
    return {
        "corpus": corpus_to_payload(corpus),
        "policies": policies_to_payload(corpus),
        "gpt_order": list(corpus.gpts),
        "discovery_indices": list(corpus.discovery_indices.items()),
        "store_counts": list(corpus.store_counts.items()),
        "store_link_counts": list(corpus.store_link_counts.items()),
        "policy_order": list(corpus.policies),
        "unresolved_gpt_ids": list(corpus.unresolved_gpt_ids),
        "statistics": (
            stats.n_unique_identifiers,
            stats.n_resolved,
            stats.n_unresolved,
            stats.n_policy_urls,
            stats.n_policy_failures,
            stats.n_http_requests,
            stats.n_retries,
        ),
    }


class TestCrawlCheckpoint:
    def test_record_flush_load_roundtrip(self, tmp_path):
        checkpoint = CrawlCheckpoint(tmp_path)
        checkpoint.record("listing", "store-a", {"n_links": 3})
        checkpoint.record("listing", "store-b", {"n_links": 5})
        checkpoint.flush("listing")

        reloaded = CrawlCheckpoint(tmp_path)
        assert reloaded.load_stage("listing") == {
            "store-a": {"n_links": 3},
            "store-b": {"n_links": 5},
        }

    def test_unflushed_records_not_persisted(self, tmp_path):
        checkpoint = CrawlCheckpoint(tmp_path)
        checkpoint.record("resolve", "g-x", {"status": 200})
        assert CrawlCheckpoint(tmp_path).load_stage("resolve") == {}

    def test_flush_all_dirty_stages(self, tmp_path):
        checkpoint = CrawlCheckpoint(tmp_path)
        checkpoint.record("listing", "a", 1)
        checkpoint.record("policies", "u", 2)
        checkpoint.flush()
        reloaded = CrawlCheckpoint(tmp_path)
        assert reloaded.load_stage("listing") == {"a": 1}
        assert reloaded.load_stage("policies") == {"u": 2}

    def test_clear_removes_stage_files(self, tmp_path):
        checkpoint = CrawlCheckpoint(tmp_path)
        checkpoint.record("listing", "a", 1)
        checkpoint.flush()
        checkpoint.write_meta({"seed": 1})
        checkpoint.clear()
        assert not list(tmp_path.glob("stage_*.jsonl"))
        assert CrawlCheckpoint(tmp_path).load_stage("listing") == {}
        assert CrawlCheckpoint(tmp_path).load_meta() is None

    def test_flush_appends_only_new_records(self, tmp_path):
        checkpoint = CrawlCheckpoint(tmp_path)
        checkpoint.record("listing", "a", {"n_links": 1})
        checkpoint.flush("listing")
        size_after_first = (tmp_path / "stage_listing.jsonl").stat().st_size
        checkpoint.record("listing", "b", {"n_links": 2})
        checkpoint.flush("listing")
        content = (tmp_path / "stage_listing.jsonl").read_text()
        # Two flushes, two lines — the first record was not rewritten.
        assert len(content.splitlines()) == 2
        assert content[:size_after_first] == json.dumps(
            {"key": "a", "payload": {"n_links": 1}}
        ) + "\n"

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        checkpoint = CrawlCheckpoint(tmp_path)
        checkpoint.record("resolve", "g-a", {"status": 200})
        checkpoint.flush("resolve")
        path = tmp_path / "stage_resolve.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "g-b", "payl')  # killed mid-append
        assert CrawlCheckpoint(tmp_path).load_stage("resolve") == {
            "g-a": {"status": 200}
        }

    def test_meta_roundtrip(self, tmp_path):
        checkpoint = CrawlCheckpoint(tmp_path)
        assert checkpoint.load_meta() is None
        checkpoint.write_meta({"seed": 11, "stores": ["a"]})
        assert CrawlCheckpoint(tmp_path).load_meta() == {"seed": 11, "stores": ["a"]}


class TestShardedCheckpoint:
    def test_records_routed_to_shard_files(self, tmp_path):
        from repro.io import shard_index

        checkpoint = CrawlCheckpoint(tmp_path, n_shards=4)
        keys = [f"g-{index}" for index in range(40)]
        for key in keys:
            checkpoint.record("resolve", key, {"status": 200})
        checkpoint.flush()

        shard_files = sorted(tmp_path.glob("stage_resolve.shard*.jsonl"))
        assert shard_files, "sharded checkpoints must write shard files"
        assert not (tmp_path / "stage_resolve.jsonl").exists()
        for path in shard_files:
            shard = int(path.name.split("shard")[1].split(".")[0])
            for line in path.read_text(encoding="utf-8").splitlines():
                assert shard_index(json.loads(line)["key"], 4) == shard

    def test_sharded_roundtrip_and_cross_shard_count_resume(self, tmp_path):
        records = {f"g-{index}": {"status": index} for index in range(25)}
        checkpoint = CrawlCheckpoint(tmp_path, n_shards=3)
        for key, payload in records.items():
            checkpoint.record("resolve", key, payload)
        checkpoint.flush()
        # Reload with the same, a different, and the flat shard layout.
        for n_shards in (3, 5, 1):
            assert CrawlCheckpoint(tmp_path, n_shards=n_shards).load_stage(
                "resolve"
            ) == records

    def test_flush_touches_only_dirty_shards(self, tmp_path):
        from repro.io import shard_index

        checkpoint = CrawlCheckpoint(tmp_path, n_shards=4)
        checkpoint.record("resolve", "g-one", {"status": 200})
        checkpoint.flush()
        dirty = shard_index("g-one", 4)
        written = sorted(tmp_path.glob("stage_resolve.shard*.jsonl"))
        assert [path.name for path in written] == [
            f"stage_resolve.shard{dirty:05d}.jsonl"
        ]

    def test_truncated_shard_line_skipped(self, tmp_path):
        from repro.io import shard_index

        checkpoint = CrawlCheckpoint(tmp_path, n_shards=2)
        checkpoint.record("resolve", "g-a", {"status": 200})
        checkpoint.flush()
        shard = shard_index("g-a", 2)
        path = tmp_path / f"stage_resolve.shard{shard:05d}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "g-b", "payl')
        assert CrawlCheckpoint(tmp_path, n_shards=2).load_stage("resolve") == {
            "g-a": {"status": 200}
        }

    def test_clear_removes_shard_files(self, tmp_path):
        checkpoint = CrawlCheckpoint(tmp_path, n_shards=3)
        for index in range(9):
            checkpoint.record("resolve", f"g-{index}", {})
        checkpoint.flush()
        checkpoint.clear()
        assert not list(tmp_path.glob("stage_*.jsonl"))

    def test_invalid_shard_count(self, tmp_path):
        with pytest.raises(ValueError):
            CrawlCheckpoint(tmp_path, n_shards=0)


class TestPipelineDeterminismAndResume:
    @pytest.mark.parametrize(
        "workers, backend",
        [
            (0, None),
            (1, None),
            (3, None),
            (8, None),
            # An in-memory crawl partitions its frontier over its workers,
            # on whichever backend runs them.
            pytest.param(2, SMOKE_BACKEND, marks=pytest.mark.process_smoke),
        ],
    )
    def test_worker_counts_produce_identical_corpora(self, small_ecosystem, workers, backend):
        reference = CrawlPipeline.from_ecosystem(small_ecosystem, seed=11)
        sequential = reference.run()
        pipeline = CrawlPipeline.from_ecosystem(
            small_ecosystem, seed=11, workers=workers, backend=backend
        )
        concurrent = pipeline.run()
        assert corpus_to_payload(sequential) == corpus_to_payload(concurrent)
        assert policies_to_payload(sequential) == policies_to_payload(concurrent)
        assert _crawl_identity(pipeline, concurrent) == _crawl_identity(reference, sequential)

    def test_checkpointed_run_skips_completed_tasks(self, small_ecosystem, tmp_path):
        first = CrawlPipeline.from_ecosystem(
            small_ecosystem, seed=11, checkpoint_dir=str(tmp_path)
        )
        first_corpus = first.run()
        assert first.statistics.n_tasks_resumed == 0

        rerun = CrawlPipeline.from_ecosystem(
            small_ecosystem, seed=11, checkpoint_dir=str(tmp_path), resume=True
        )
        rerun_corpus = rerun.run()
        # Everything came from the checkpoint: no network traffic at all.
        assert rerun.statistics.n_http_requests == 0
        assert rerun.statistics.n_tasks_resumed > 0
        assert corpus_to_payload(rerun_corpus) == corpus_to_payload(first_corpus)
        assert policies_to_payload(rerun_corpus) == policies_to_payload(first_corpus)

    @pytest.mark.parametrize(
        "resume_with",
        [
            {"workers": 4},
            # Cross-sink resumes: a checkpoint the 4-partition in-memory
            # crawl left behind resumes at another partition count and into
            # a store.
            {"workers": 0},
            {"shards": 3},
        ],
        ids=["run-4-workers", "run-0-workers", "run_sharded-3-shards"],
    )
    def test_killed_crawl_resumes_to_identical_corpus(
        self, small_ecosystem, tmp_path, resume_with
    ):
        uninterrupted = CrawlPipeline.from_ecosystem(
            small_ecosystem, seed=11, workers=4
        ).run()

        killed = CrawlPipeline.from_ecosystem(
            small_ecosystem, seed=11, workers=4,
            checkpoint_dir=str(tmp_path), checkpoint_every=10,
        )
        real_get = killed.http.get
        calls = {"n": 0}

        def killer_get(url):
            calls["n"] += 1
            if calls["n"] == 150:
                raise KeyboardInterrupt
            return real_get(url)

        killed.http.get = killer_get
        with pytest.raises(KeyboardInterrupt):
            killed.run()

        resumed = CrawlPipeline.from_ecosystem(
            small_ecosystem, seed=11, checkpoint_dir=str(tmp_path), resume=True,
            **resume_with,
        )
        if "shards" in resume_with:
            corpus = resumed.run_sharded(tmp_path / "resumed-store").load_corpus()
        else:
            corpus = resumed.run()
        assert resumed.statistics.n_tasks_resumed > 0
        assert corpus_to_payload(corpus) == corpus_to_payload(uninterrupted)
        assert policies_to_payload(corpus) == policies_to_payload(uninterrupted)
        assert list(corpus.gpts) == list(uninterrupted.gpts)
        assert corpus.discovery_indices == uninterrupted.discovery_indices

    def test_resume_with_mismatched_config_is_refused(self, small_ecosystem, tmp_path):
        CrawlPipeline.from_ecosystem(
            small_ecosystem, seed=11, checkpoint_dir=str(tmp_path)
        ).run()
        # Same ecosystem, different network seed → different crawl.
        mismatched = CrawlPipeline.from_ecosystem(
            small_ecosystem, seed=12, checkpoint_dir=str(tmp_path), resume=True
        )
        with pytest.raises(ValueError, match="different crawl configuration"):
            mismatched.run()
        # resume=False clears the stale checkpoint and recrawls cleanly.
        fresh = CrawlPipeline.from_ecosystem(
            small_ecosystem, seed=12, checkpoint_dir=str(tmp_path), resume=False
        )
        assert len(fresh.run().gpts) == small_ecosystem.n_gpts()

    def test_fresh_run_clears_stale_checkpoint(self, small_ecosystem, tmp_path):
        stale = CrawlCheckpoint(tmp_path)
        stale.record("listing", "bogus-store", {"n_links": 999, "gpt_ids": []})
        stale.flush("listing")
        pipeline = CrawlPipeline.from_ecosystem(
            small_ecosystem, seed=11, checkpoint_dir=str(tmp_path), resume=False
        )
        corpus = pipeline.run()
        assert "bogus-store" not in corpus.store_link_counts
        assert pipeline.statistics.n_tasks_resumed == 0

    def test_statistics_are_per_run(self, small_ecosystem):
        pipeline = CrawlPipeline.from_ecosystem(small_ecosystem, seed=11)
        pipeline.run()
        first_requests = pipeline.statistics.n_http_requests
        pipeline.run()
        # The HTTP layer's counter is cumulative; per-run statistics are not.
        assert pipeline.statistics.n_http_requests == first_requests
        assert pipeline.http.request_count == 2 * first_requests
