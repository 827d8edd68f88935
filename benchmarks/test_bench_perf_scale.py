"""Timed scale benchmarks for the sharded corpus store + streaming engine.

Measures the properties that make the sharded data layer safe to use at
100k-GPT scale and records them in ``BENCH_scale.json``:

* ``scale_2000_stream_vs_single`` — at the paper's 2000-GPT scale, fused
  one-pass streaming analysis over the shard store versus materializing the
  corpus and running the single-pass analyzers.  Sharding must cost nothing
  here (parity within noise); the asserted bound is "not slower than 2x".
* ``scale_50k_stream_vs_single`` — the same comparison at a 50k-GPT stress
  scale (run in a subprocess so its peak RSS is measured in isolation);
  here streaming must actually *win*, because the materialized corpus no
  longer fits comfortably.
* ``peak_rss_mb_50k_vs_2000`` — peak RSS of a 50k-GPT *sharded* ingest +
  analysis run versus a 2000-GPT *unsharded* generate + crawl + analysis
  run, both measured as child processes via their own ``VmHWM`` peak
  (``peak_rss_raw`` — immune to the parent's inherited ``ru_maxrss``).  The
  acceptance bound: the 50k sharded run stays under **2x** the 2000
  unsharded run's peak.  (This record's "timings" are megabytes, which also
  turns the CI perf gate into a memory-regression gate for the ingest
  path.)
* ``stream_50k_process_vs_thread`` — the 50k shard map on the process
  backend versus the thread backend at the same worker count,
  ``min(WORKERS, cores)``.  Pure-Python accumulation is GIL-bound on
  threads, so this is where the process pool must show real CPU scaling:
  the gate is ``MIN_PROCESS_SPEEDUP``× on a runner with at least
  ``MIN_PROCESS_CORES`` cores, and "processes never lose to threads"
  (≥``MIN_PROCESS_SPEEDUP_FEW_CORES``×) below that.  Skipped with a notice
  only on a 1-core machine, where there is no parallelism to measure — the
  skip is recorded via ``PerfReport.note_skipped`` so ``perf_report.py
  --check`` reports the gated-but-uncommitted row as MISSING instead of
  passing silently.
* ``dispatch_warm_vs_cold_pool`` — many small batches (``DISPATCH_STAGES``
  stages × ``DISPATCH_SHARDS`` tasks, the shape of a sharded crawl's
  resolve → policy phases) on a fresh process ``WorkerPool`` per stage
  versus one warm ``WorkerPool`` reused across all stages.  The timing row is
  recorded on every runner (pool-spawn amortization is measurable at any
  core count); the ≥``MIN_DISPATCH_SPEEDUP``× assertion is skipped with a
  notice under ``MIN_PROCESS_CORES`` cores.  Results must be identical
  warm or cold — reuse is an execution knob.
* ``classify_50k_sharded`` — peak RSS (MB, like the RSS row) of a 50k-GPT
  **mixed** sharded workload — ingest + shard-partitioned description
  extraction + chunked classification, all streamed from the store —
  versus the crawl-only sharded ingest peak sampled in the same child
  process.  Sharing one process means both readings share one import
  floor, so the ratio isolates what classification *adds*: the gate is
  ≤``MAX_CLASSIFY_RSS_RATIO``× (classification must stay description-
  bounded, never corpus-bounded).  A companion in-test gate at the paper's
  2000-GPT scale pins streamed classification wall time to
  ≤``MAX_CLASSIFY_WALL_RATIO``× materialize-then-classify, with
  byte-identical labels.
* ``dispatch_pickle_kb_per_task`` — bytes pickled per sharded-crawl task:
  a ``(ShardCrawlSpec, stage, shard, n_shards, keys)`` payload, which would
  ship the whole ecosystem with every task, versus the
  ``(stage, shard, n_shards, keys)`` payload the pool actually sends once
  the spec has been broadcast.  Units are KiB, not seconds (like the RSS
  row, this turns the perf gate into a payload-size gate); the broadcast
  contract must shrink per-task pickles ≥``MIN_PICKLE_SHRINK``×.

Both child probes share an import-time RSS floor (numpy and the package,
~39 MB) that dominates their peak readings, so the 2x ratio alone cannot
see a regression — or an allocator/THP artifact — that inflates both sides
equally.  Two guards close that hole: each child also reports its RSS right
after imports (persisted under ``invariants`` so a baseline diff shows
whether the *floor* or the *workload* moved), and the 50k peak is pinned
under the absolute ceiling ``RSS_ABS_LIMIT_MB``, which a baseline refresh
cannot ratchet past.

Alongside the timings, the 50k run asserts the streaming results are
**byte-identical** (canonical JSON) to the single-pass results on the
materialized corpus — the invariant that makes the sharded path safe for
paper numbers — and the verdict is persisted under ``invariants`` in
``BENCH_scale.json``.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest

from perf_report import REPO_ROOT, PerfReport, peak_rss_raw, prior_artifact, prior_key_order

from repro.analysis import (
    analyze_cooccurrence,
    analyze_crawl_stats,
    analyze_multi_action,
    analyze_tool_usage,
    build_party_index,
)
from repro.analysis.streaming import ShardAnalysisRunner
from repro.crawler.pipeline import CrawlPipeline
from repro.ecosystem.config import EcosystemConfig
from repro.ecosystem.generator import EcosystemGenerator
from repro.io.shards import ShardedCorpusStore

REPORT = PerfReport("scale")

#: The paper's corpus scale and the stress scale of the acceptance bound.
PAPER_GPTS = 2000
STRESS_GPTS = 50_000
SEED = 17
SHARDS_PAPER = 16
SHARDS_STRESS = 64
WORKERS = 4
#: Repeats for the in-child stress-scale timings (best-of-N), so one noisy
#: run cannot skew the recorded stream-vs-single speedup.
CHILD_REPEATS = 3

#: Required speedup of the process backend over the thread backend on the
#: 50k pure-Python shard map at ``min(WORKERS, cores)`` workers: the full
#: gate on a runner with at least ``MIN_PROCESS_CORES`` cores, and "never
#: loses to threads" on fewer (2-3 cores leave less parallelism to win back
#: from the GIL).  ``MIN_PROCESS_CORES`` also gates the warm-pool
#: amortization assertion below.
MIN_PROCESS_SPEEDUP = 1.5
MIN_PROCESS_SPEEDUP_FEW_CORES = 1.0
MIN_PROCESS_CORES = 4

#: Shape of the warm-vs-cold dispatch benchmark — a sharded crawl's worth
#: of small per-stage batches (resolve + policies across several runs, as a
#: sweep or suite issues them), the amortization factor one warm pool must
#: win over per-stage cold pools, and the per-task pickle shrink the
#: broadcast-once contract must deliver.
DISPATCH_STAGES = 12
DISPATCH_SHARDS = 8
DISPATCH_WORKERS = 4
MIN_DISPATCH_SPEEDUP = 2.0
MIN_PICKLE_SHRINK = 10.0

#: Gates of the ``classify_50k_sharded`` row: the mixed sharded workload's
#: peak RSS over the crawl-only sharded peak (same child process, shared
#: import floor — the ratio isolates classification's own footprint), and
#: the 2000-GPT streamed-classification wall over materialize-then-classify.
MAX_CLASSIFY_RSS_RATIO = 1.25
MAX_CLASSIFY_WALL_RATIO = 1.5

#: Absolute ceiling (MB) for the 50k sharded run's peak RSS.  The 2x ratio
#: assert below compares two readings that share the same import floor, so
#: it passes even when both balloon together — and committing such a run as
#: the new baseline would let the perf gate's 1.5x tolerance ratchet the
#: allowed peak upward indefinitely.  Healthy runs peak around 58 MB; the
#: ceiling leaves room for allocator/THP variance across platforms while
#: still catching an unbounded ratchet.
RSS_ABS_LIMIT_MB = 512

#: ``ru_maxrss`` units per megabyte: kibibytes on Linux, bytes on macOS.
_MAXRSS_PER_MB = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0

#: Invariant verdicts persisted next to the timing records.
INVARIANTS = {}

#: The analyses both paths run (the corpus-stream group; classification at
#: 50k would dominate the measurement with identical work on both sides).
_ANALYSES = ["crawl_stats", "tool_usage", "multi_action", "cooccurrence"]


#: Shared between the in-process parity benchmark and the child probes —
#: their code strings embed these functions' source via ``inspect.getsource``
#: so the timing pattern and the analysis set can never drift apart.
def _single_pass(corpus):
    party = build_party_index(corpus)
    return {
        "crawl_stats": analyze_crawl_stats(corpus),
        "tool_usage": analyze_tool_usage(corpus, party),
        "multi_action": analyze_multi_action(corpus),
        "cooccurrence": analyze_cooccurrence(corpus),
    }


def _dispatch_probe(stage, index):
    """Trivial dispatch-benchmark task body: returns its global sequence
    number, so result order proves submission-order merging under reuse.
    The work is nothing — pool spawn + pickle overhead is the measurement."""
    return stage * DISPATCH_SHARDS + index


def _best(fn, repeats):
    """Best-of-N timing: (min wall seconds, last result)."""
    timings = []
    result = None
    for _ in range(repeats):
        start = time.monotonic()
        result = fn()
        timings.append(time.monotonic() - start)
    return min(timings), result


def _best_interleaved(first, second, repeats):
    """Best-of-N timings of two functions whose repetitions alternate.

    ``first, second, first, ...``: a slow host phase lands on both sides
    instead of on one side's whole block.  Returns ``(min wall seconds,
    last result)`` for each function.
    """
    timings = ([], [])
    results = [None, None]
    for _ in range(repeats):
        for side, fn in enumerate((first, second)):
            start = time.monotonic()
            results[side] = fn()
            timings[side].append(time.monotonic() - start)
    return (min(timings[0]), results[0]), (min(timings[1]), results[1])


@pytest.fixture(scope="module", autouse=True)
def _emit_report():
    """Print the timing table and write BENCH_scale.json after the module."""
    yield
    print()
    print(REPORT.format_table())
    # Capture the prior invariant key order before write() replaces the file,
    # so refreshes diff as value changes only (new keys append at the end).
    prior_invariants = prior_key_order(prior_artifact(REPORT.name), "invariants")
    path = REPORT.write()
    # Persist the invariant verdicts (byte-identity, RSS ratio) alongside
    # the timing records; perf_report's loader ignores unknown keys.
    payload = json.loads(path.read_text(encoding="utf-8"))
    rank = {key: index for index, key in enumerate(prior_invariants)}
    payload["invariants"] = dict(
        sorted(INVARIANTS.items(), key=lambda item: rank.get(item[0], len(rank)))
    )
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# Child-process probes (isolated peak-RSS measurement)
# ---------------------------------------------------------------------------
_CHILD_UNSHARDED_2000 = f"""
import json, resource, time
t0 = time.monotonic()
from repro.ecosystem.config import EcosystemConfig
from repro.ecosystem.generator import EcosystemGenerator
from repro.crawler.pipeline import CrawlPipeline
from repro.analysis import (analyze_crawl_stats, analyze_tool_usage,
    analyze_multi_action, analyze_cooccurrence, build_party_index)

{inspect.getsource(peak_rss_raw)}
rss_import_raw = peak_rss_raw()

{inspect.getsource(_single_pass)}
ecosystem = EcosystemGenerator(
    EcosystemConfig.paper_calibrated(n_gpts={PAPER_GPTS}, seed={SEED})
).generate()
corpus = CrawlPipeline.from_ecosystem(ecosystem, seed={SEED}).run()
results = _single_pass(corpus)
print(json.dumps({{
    "rss_raw": peak_rss_raw(),
    "rss_import_raw": rss_import_raw,
    "wall_s": time.monotonic() - t0,
    "n_gpts": results["crawl_stats"].total_unique_gpts,
}}))
"""

_CHILD_SHARDED_50K = f"""
import json, resource, tempfile, time
from repro.ecosystem.config import EcosystemConfig
from repro.ecosystem.generator import generate_sharded_corpus
from repro.analysis.streaming import ShardAnalysisRunner
from repro.analysis import (analyze_crawl_stats, analyze_tool_usage,
    analyze_multi_action, analyze_cooccurrence, build_party_index)
from repro.io import canonical_json

{inspect.getsource(peak_rss_raw)}
rss_import_raw = peak_rss_raw()

{inspect.getsource(_single_pass)}
{inspect.getsource(_best)}
def stream(store):
    with ShardAnalysisRunner(store, workers={WORKERS}) as runner:
        return runner.run({_ANALYSES!r})

def fingerprint(results):
    stats = results["crawl_stats"]
    tools = results["tool_usage"]
    multi = results["multi_action"]
    graph = results["cooccurrence"]
    return canonical_json({{
        "gpts": stats.total_unique_gpts,
        "actions": stats.n_unique_actions,
        "availability": stats.policy_availability,
        "tool_shares": tools.tool_shares,
        "distribution": multi.action_count_distribution,
        "cross_domain": multi.cross_domain_share,
        "edges": graph.n_edges,
        "nodes": graph.n_nodes,
        "top": graph.top_by_weighted_degree(10),
    }})

with tempfile.TemporaryDirectory() as root:
    t0 = time.monotonic()
    store = generate_sharded_corpus(
        root,
        config=EcosystemConfig.paper_calibrated(n_gpts={STRESS_GPTS}, seed={SEED}),
        n_shards={SHARDS_STRESS},
        flush_every=500,
    )
    ingest_s = time.monotonic() - t0

    stream_s, streamed = _best(
        lambda: stream(store),
        repeats={CHILD_REPEATS},
    )
    # Peak RSS of the *sharded* phase: sampled before the single-pass
    # baseline below materializes the whole 50k corpus (the high-water
    # mark covers the whole process lifetime).
    rss_sharded_raw = peak_rss_raw()

    single_s, single = _best(
        lambda: _single_pass(store.load_corpus()), repeats={CHILD_REPEATS}
    )

print(json.dumps({{
    "rss_raw": rss_sharded_raw,
    "rss_import_raw": rss_import_raw,
    "rss_with_materialize_raw": peak_rss_raw(),
    "ingest_s": ingest_s,
    "stream_s": stream_s,
    "single_s": single_s,
    "identical": fingerprint(streamed) == fingerprint(single),
    "n_gpts": single["crawl_stats"].total_unique_gpts,
}}))
"""


_CHILD_CLASSIFY_50K = f"""
import json, resource, tempfile, time
from repro.ecosystem.config import EcosystemConfig
from repro.ecosystem.generator import generate_sharded_corpus
from repro.analysis.streaming import ShardAnalysisRunner
from repro.classification.classifier import ClassifierConfig
from repro.llm.simulated import SimulatedLLM
from repro.taxonomy.builtin import load_builtin_taxonomy

{inspect.getsource(peak_rss_raw)}
rss_import_raw = peak_rss_raw()

with tempfile.TemporaryDirectory() as root:
    t0 = time.monotonic()
    store = generate_sharded_corpus(
        root,
        config=EcosystemConfig.paper_calibrated(n_gpts={STRESS_GPTS}, seed={SEED}),
        n_shards={SHARDS_STRESS},
        flush_every=500,
    )
    ingest_s = time.monotonic() - t0
    # Crawl-only peak, sampled before classification in the SAME process:
    # the import floor is shared, so mixed/crawl isolates what the
    # classification stage adds.
    rss_crawl_raw = peak_rss_raw()

    taxonomy = load_builtin_taxonomy()
    llm = SimulatedLLM(knowledge_taxonomy=taxonomy, seed={SEED})
    t1 = time.monotonic()
    # Zero-shot, so no 50k-scale ground-truth labelling rides the probe;
    # the memory shape (streamed extraction rows + chunked label lists)
    # is the same with or without few-shot retrieval.
    with ShardAnalysisRunner(store, workers={WORKERS}) as runner:
        result = runner.classify(
            taxonomy=taxonomy,
            llm=llm,
            fewshot_store=None,
            config=ClassifierConfig(use_fewshot=False),
        )
    classify_s = time.monotonic() - t1

print(json.dumps({{
    "rss_crawl_raw": rss_crawl_raw,
    "rss_mixed_raw": peak_rss_raw(),
    "rss_import_raw": rss_import_raw,
    "ingest_s": ingest_s,
    "classify_s": classify_s,
    "n_labels": len(result.labels),
}}))
"""


def _run_child(code: str) -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def paper_ecosystem():
    """One paper-calibrated 2000-GPT ecosystem, shared across benchmarks."""
    return EcosystemGenerator(
        EcosystemConfig.paper_calibrated(n_gpts=PAPER_GPTS, seed=SEED)
    ).generate()


@pytest.fixture(scope="module")
def child_metrics():
    """Run both child probes once and share their measurements."""
    unsharded = _run_child(_CHILD_UNSHARDED_2000)
    sharded = _run_child(_CHILD_SHARDED_50K)
    assert unsharded["n_gpts"] == PAPER_GPTS
    assert sharded["n_gpts"] == STRESS_GPTS
    return {"unsharded_2000": unsharded, "sharded_50k": sharded}


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------
def test_paper_scale_stream_parity(tmp_path, paper_ecosystem):
    """At 2000 GPTs, streaming from shards matches materialize-and-analyze."""
    corpus = CrawlPipeline.from_ecosystem(paper_ecosystem, seed=SEED).run()
    store = ShardedCorpusStore.write_corpus(corpus, tmp_path / "shards", n_shards=SHARDS_PAPER)

    def stream():
        with ShardAnalysisRunner(store, workers=WORKERS) as runner:
            return runner.run(_ANALYSES)

    single_s, _ = _best(lambda: _single_pass(store.load_corpus()), repeats=5)
    stream_s, _ = _best(stream, repeats=5)

    entry = REPORT.record(
        "scale_2000_stream_vs_single",
        baseline_s=single_s,
        optimized_s=stream_s,
        items=PAPER_GPTS,
    )
    # Sharding must be free at paper scale: parity within noise, never a
    # slowdown past 2x.
    assert entry.speedup >= 0.5, (
        f"streaming {entry.speedup:.2f}x vs single-pass at paper scale "
        "(must stay within 2x)"
    )


def test_stress_scale_stream_beats_single(child_metrics):
    """At 50k GPTs, fused streaming beats materialize-and-analyze."""
    sharded = child_metrics["sharded_50k"]
    entry = REPORT.record(
        "scale_50k_stream_vs_single",
        baseline_s=sharded["single_s"],
        optimized_s=sharded["stream_s"],
        items=STRESS_GPTS,
    )
    INVARIANTS["byte_identical_50k"] = bool(sharded["identical"])
    assert sharded["identical"], "sharded vs single-pass results diverged at 50k"
    assert entry.speedup > 1.05, (
        f"streaming only {entry.speedup:.2f}x vs single-pass at stress scale"
    )


def test_stress_scale_process_backend_scales(tmp_path):
    """At 50k GPTs, the process backend beats the GIL-bound thread pool on
    the pure-Python shard map (the ROADMAP's CPU-scaling item)."""
    cores = os.cpu_count() or 1
    if cores < 2:
        # Register the skip in the artifact before bailing: the module
        # teardown still writes BENCH_scale.json, and perf_report --check
        # turns a gated-away metric with no committed row into a MISSING
        # notice instead of silence.
        REPORT.note_skipped(
            "stream_50k_process_vs_thread", "needs >= 2 cores (this runner has 1)"
        )
        pytest.skip("process-vs-thread scaling needs >= 2 cores (this runner has 1)")
    from repro.ecosystem.generator import generate_sharded_corpus

    workers = min(WORKERS, cores)
    required = MIN_PROCESS_SPEEDUP if cores >= MIN_PROCESS_CORES else MIN_PROCESS_SPEEDUP_FEW_CORES

    store = generate_sharded_corpus(
        tmp_path / "shards50k",
        config=EcosystemConfig.paper_calibrated(n_gpts=STRESS_GPTS, seed=SEED),
        n_shards=SHARDS_STRESS,
        flush_every=500,
    )
    def stream(backend):
        with ShardAnalysisRunner(store, workers=workers, backend=backend) as runner:
            return runner.run(_ANALYSES)

    thread_s, threaded = _best(lambda: stream("thread"), repeats=CHILD_REPEATS)
    process_s, processed = _best(lambda: stream("process"), repeats=CHILD_REPEATS)
    # Identical results on both backends — the invariant that makes the
    # backend a pure execution knob.
    assert (
        threaded["crawl_stats"].total_unique_gpts
        == processed["crawl_stats"].total_unique_gpts
        == STRESS_GPTS
    )
    assert threaded["multi_action"].action_count_distribution == (
        processed["multi_action"].action_count_distribution
    )

    entry = REPORT.record(
        "stream_50k_process_vs_thread",
        baseline_s=thread_s,
        optimized_s=process_s,
        items=STRESS_GPTS,
    )
    INVARIANTS["process_backend_speedup_50k"] = round(entry.speedup, 3)
    assert entry.speedup >= required, (
        f"process backend only {entry.speedup:.2f}x vs threads on the 50k "
        f"shard map at {workers} workers on {cores} cores (needs {required}x)"
    )


def test_classify_50k_sharded_memory_bounded():
    """The mixed sharded workload (ingest + streamed extraction + chunked
    classification) must stay description-bounded: its peak RSS may exceed
    the crawl-only sharded peak by at most ``MAX_CLASSIFY_RSS_RATIO``x."""
    child = _run_child(_CHILD_CLASSIFY_50K)
    assert child["n_labels"] > 0
    rss_crawl_mb = child["rss_crawl_raw"] / _MAXRSS_PER_MB
    rss_mixed_mb = child["rss_mixed_raw"] / _MAXRSS_PER_MB
    entry = REPORT.record(
        "classify_50k_sharded",
        baseline_s=rss_crawl_mb,
        optimized_s=rss_mixed_mb,
        items=STRESS_GPTS,
        unit="MB",
    )
    ratio = rss_mixed_mb / rss_crawl_mb
    INVARIANTS["classify_rss_ratio_mixed_over_crawl"] = round(ratio, 3)
    INVARIANTS["classify_50k_s"] = round(child["classify_s"], 3)
    INVARIANTS["classify_50k_n_labels"] = child["n_labels"]
    assert entry is not None
    assert ratio <= MAX_CLASSIFY_RSS_RATIO, (
        f"mixed sharded 50k workload peaks at {rss_mixed_mb:.0f}MB, "
        f"{ratio:.2f}x the crawl-only sharded peak {rss_crawl_mb:.0f}MB "
        f"(classification must stay within {MAX_CLASSIFY_RSS_RATIO}x)"
    )
    assert rss_mixed_mb < RSS_ABS_LIMIT_MB, (
        f"mixed sharded 50k peak RSS {rss_mixed_mb:.0f}MB exceeds the "
        f"absolute {RSS_ABS_LIMIT_MB}MB ceiling"
    )


def test_paper_scale_classify_stream_vs_materialize(tmp_path, paper_ecosystem):
    """At 2000 GPTs, shard-partitioned classification must cost at most
    ``MAX_CLASSIFY_WALL_RATIO``x materialize-then-classify, with
    byte-identical labels."""
    from repro.classification.classifier import ClassifierConfig, DataCollectionClassifier
    from repro.classification.descriptions import extract_descriptions
    from repro.io import canonical_json, classification_to_payload
    from repro.llm.simulated import SimulatedLLM
    from repro.taxonomy.builtin import load_builtin_taxonomy

    corpus = CrawlPipeline.from_ecosystem(paper_ecosystem, seed=SEED).run()
    store = ShardedCorpusStore.write_corpus(
        corpus, tmp_path / "shards", n_shards=SHARDS_PAPER
    )
    taxonomy = load_builtin_taxonomy()
    llm = SimulatedLLM(knowledge_taxonomy=taxonomy, seed=SEED)
    config = ClassifierConfig(use_fewshot=False)

    def materialize_then_classify():
        rebuilt = store.load_corpus()
        classifier = DataCollectionClassifier(taxonomy=taxonomy, llm=llm, config=config)
        return classifier.classify_many(extract_descriptions(rebuilt))

    def streamed():
        with ShardAnalysisRunner(store, workers=WORKERS) as runner:
            return runner.classify(
                taxonomy=taxonomy, llm=llm, fewshot_store=None, config=config
            )

    (single_s, single), (stream_s, streamed_result) = _best_interleaved(
        materialize_then_classify, streamed, repeats=CHILD_REPEATS
    )

    identical = canonical_json(classification_to_payload(streamed_result)) == (
        canonical_json(classification_to_payload(single))
    )
    INVARIANTS["classify_2000_byte_identical"] = identical
    INVARIANTS["classify_2000_wall_ratio"] = round(stream_s / single_s, 3)
    assert identical, "streamed classification diverged from classify_many at 2000"
    assert stream_s <= MAX_CLASSIFY_WALL_RATIO * single_s, (
        f"streamed classification {stream_s:.2f}s vs materialize-then-"
        f"classify {single_s:.2f}s at 2000 GPTs "
        f"(must stay within {MAX_CLASSIFY_WALL_RATIO}x)"
    )


def test_dispatch_warm_vs_cold_pool():
    """One warm :class:`WorkerPool` reused across many small batches beats a
    fresh process pool per batch on dispatch overhead, with byte-identical
    results — reuse is an execution knob."""
    from repro.exec import ExecTask, WorkerPool

    def batch(stage):
        return [
            ExecTask(
                key=f"s{stage:02d}-t{index:02d}",
                fn=_dispatch_probe,
                args=(stage, index),
                seed=stage * DISPATCH_SHARDS + index,
            )
            for index in range(DISPATCH_SHARDS)
        ]

    def cold():
        results = []
        for stage in range(DISPATCH_STAGES):
            with WorkerPool(kind="process", workers=DISPATCH_WORKERS) as pool:
                outcomes = pool.run(batch(stage))
            results.extend(outcome.result for outcome in outcomes)
        return results

    def warm():
        results = []
        with WorkerPool(kind="process", workers=DISPATCH_WORKERS) as pool:
            for stage in range(DISPATCH_STAGES):
                outcomes = pool.run(batch(stage))
                results.extend(outcome.result for outcome in outcomes)
        return results

    cold_s, cold_results = _best(cold, repeats=2)
    warm_s, warm_results = _best(warm, repeats=2)

    expected = list(range(DISPATCH_STAGES * DISPATCH_SHARDS))
    assert cold_results == expected
    assert warm_results == expected
    INVARIANTS["dispatch_warm_equals_cold"] = warm_results == cold_results

    entry = REPORT.record(
        "dispatch_warm_vs_cold_pool",
        baseline_s=cold_s,
        optimized_s=warm_s,
        items=DISPATCH_STAGES * DISPATCH_SHARDS,
    )
    INVARIANTS["dispatch_warm_speedup"] = round(entry.speedup, 3)
    cores = os.cpu_count() or 1
    if cores < MIN_PROCESS_CORES:
        # The timing row is already recorded (module teardown writes it);
        # only the amortization *gate* waits for a multi-core runner, where
        # pool-spawn cost is not confounded by core contention.
        pytest.skip(
            f"warm-pool amortization gate needs >= {MIN_PROCESS_CORES} cores "
            f"(this runner has {cores}); row recorded, gate skipped"
        )
    assert entry.speedup >= MIN_DISPATCH_SPEEDUP, (
        f"warm pool only {entry.speedup:.2f}x vs per-stage cold pools over "
        f"{DISPATCH_STAGES} stages x {DISPATCH_SHARDS} tasks "
        f"(needs {MIN_DISPATCH_SPEEDUP}x)"
    )


def test_dispatch_pickle_bytes_per_task(paper_ecosystem):
    """The broadcast-once contract shrinks per-task pickles from
    ecosystem-sized (the whole :class:`ShardCrawlSpec` rides every task) to
    identifier-sized (stage name, partition index, partition count, key
    list)."""
    import pickle

    pipeline = CrawlPipeline.from_ecosystem(
        paper_ecosystem, seed=SEED, shards=DISPATCH_SHARDS, backend="process"
    )
    spec = pipeline._shard_crawl_spec()
    keys = sorted(paper_ecosystem.gpts)[: PAPER_GPTS // DISPATCH_SHARDS]

    # Shipping the spec with every task would pickle (spec, stage, shard,
    # n_shards, keys); _run_shard_phase broadcasts the spec once and puts
    # only (stage, shard, n_shards, keys) on the wire.
    fat_bytes = len(pickle.dumps((spec, "resolve", 0, DISPATCH_SHARDS, keys)))
    lean_bytes = len(pickle.dumps(("resolve", 0, DISPATCH_SHARDS, keys)))

    # Units are KiB, not seconds: like the RSS row, recording sizes as
    # "timings" turns the CI perf gate into a payload-size gate.
    entry = REPORT.record(
        "dispatch_pickle_kb_per_task",
        baseline_s=fat_bytes / 1024.0,
        optimized_s=lean_bytes / 1024.0,
        items=len(keys),
        unit="KB",
    )
    INVARIANTS["pickle_bytes_full_spec_task"] = fat_bytes
    INVARIANTS["pickle_bytes_shared_ref_task"] = lean_bytes
    assert entry.speedup >= MIN_PICKLE_SHRINK, (
        f"broadcast-once task payload only {entry.speedup:.1f}x smaller than "
        f"the full-spec payload ({fat_bytes} -> {lean_bytes} bytes; needs "
        f"{MIN_PICKLE_SHRINK}x)"
    )


def test_peak_rss_bounded(child_metrics):
    """The 50k sharded run stays under 2x the 2000 run's peak RSS *and*
    under the absolute ceiling ``RSS_ABS_LIMIT_MB``."""
    unsharded = child_metrics["unsharded_2000"]
    sharded = child_metrics["sharded_50k"]
    rss_2000_mb = unsharded["rss_raw"] / _MAXRSS_PER_MB
    rss_50k_mb = sharded["rss_raw"] / _MAXRSS_PER_MB
    REPORT.record(
        "peak_rss_mb_50k_vs_2000",
        baseline_s=rss_2000_mb,
        optimized_s=rss_50k_mb,
        items=STRESS_GPTS,
        unit="MB",
    )
    ratio = rss_50k_mb / rss_2000_mb
    INVARIANTS["rss_ratio_50k_over_2000"] = round(ratio, 3)
    INVARIANTS["ingest_50k_s"] = round(sharded["ingest_s"], 3)
    # Split each peak into its import floor and the workload's headroom
    # above it, so a baseline diff shows *where* memory moved (a floor
    # shift is a dependency/allocator change; a workload shift is ours).
    INVARIANTS["rss_import_floor_mb_2000"] = round(
        unsharded["rss_import_raw"] / _MAXRSS_PER_MB, 1
    )
    INVARIANTS["rss_import_floor_mb_50k"] = round(
        sharded["rss_import_raw"] / _MAXRSS_PER_MB, 1
    )
    INVARIANTS["rss_workload_mb_2000"] = round(
        (unsharded["rss_raw"] - unsharded["rss_import_raw"]) / _MAXRSS_PER_MB, 1
    )
    INVARIANTS["rss_workload_mb_50k"] = round(
        (sharded["rss_raw"] - sharded["rss_import_raw"]) / _MAXRSS_PER_MB, 1
    )
    assert ratio < 2.0, (
        f"50k sharded peak RSS {rss_50k_mb:.0f}MB exceeds 2x the 2000-GPT "
        f"unsharded run's {rss_2000_mb:.0f}MB"
    )
    assert rss_50k_mb < RSS_ABS_LIMIT_MB, (
        f"50k sharded peak RSS {rss_50k_mb:.0f}MB exceeds the absolute "
        f"{RSS_ABS_LIMIT_MB}MB ceiling — the 2x ratio can't catch a "
        "regression that inflates both probes equally, so this bound "
        "must not be raised by a baseline refresh without a root cause"
    )
