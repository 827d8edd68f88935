"""One measured process: set up a workload, run it once, report as JSON.

``perfbench/run.py`` starts this script in a fresh interpreter for every
repetition, so each one pays the import and set-up a user pays.  The one
argument is a JSON spec with the keys ``mode`` (``"run"``, ``"setup"`` or
``"parent"``), ``workload``, ``n_gpts``, ``world_seed``, ``work_dir``,
``parent_dir`` (the epoch-0 store of ``epoch_recrawl``) and ``trace``.  The
last line of standard output is one JSON object:

* ``setup_end``: ``time.monotonic()`` when set-up ended (the clock is shared
  by all processes, so the caller subtracts its own spawn time);
* ``setup_rss_mb``, ``import_s``;
* for ``run``: ``wall_s``, ``cpu_s``, ``peak_rss_mb``, the ``outputs`` the
  caller checks against its reference, and ``counters`` read from public
  objects; a traced run adds the span-derived ``layers``, the ``findings``
  and the ``spans`` file it wrote;
* for ``parent``: the ``outputs`` of the epoch-0 store at ``parent_dir``,
  which it builds first if there is none.
"""

import time

IMPORT_START = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from repro.analysis.suite import MeasurementSuite, SuiteConfig  # noqa: E402
from repro.experiments.registry import run_all_experiments  # noqa: E402
from repro.io.shards import ShardedCorpusStore  # noqa: E402
from repro.reporting.longitudinal import analyze_epochs, render_longitudinal  # noqa: E402
from repro.reporting.report import render_experiment_report  # noqa: E402

IMPORT_END = time.monotonic()

MB = 1024.0


def _status_kb(field):
    """A ``VmRSS``/``VmHWM`` figure of this process, in kB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def _cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _store_mb(root):
    return sum(path.stat().st_size for path in Path(root).rglob("*") if path.is_file()) / MB / MB


# ---------------------------------------------------------------------------
# Workloads: each builds its suite (set-up), then runs it to checked outputs.
# ---------------------------------------------------------------------------
def _build(spec):
    n_gpts, seed, work = spec["n_gpts"], spec["world_seed"], Path(spec["work_dir"])
    workload = spec["workload"]
    if workload == "paper_2k":
        return MeasurementSuite(SuiteConfig(n_gpts=n_gpts, seed=seed))
    if workload == "sharded_store":
        return MeasurementSuite(
            SuiteConfig(
                n_gpts=n_gpts,
                seed=seed,
                shards=8,
                shard_workers=2,
                backend="process",
                shard_dir=str(work / "store"),
            )
        )
    if workload == "epoch_recrawl":
        parent = spec["mode"] == "parent"
        return MeasurementSuite(
            SuiteConfig(
                n_gpts=n_gpts,
                seed=seed,
                epoch=0 if parent else 1,
                shards=16,
                shard_dir=_partial(spec["parent_dir"]) if parent else str(work / "epoch1"),
            )
        )
    raise ValueError(f"unknown workload {workload!r}")


def _partial(directory):
    return directory + ".partial"


def _run(spec, suite):
    """Run the workload; return the outputs the caller checks."""
    if spec["workload"] in ("paper_2k", "sharded_store"):
        suite.run_all()
        results = run_all_experiments(suite)
        report = render_experiment_report(results, spec["n_gpts"], spec["world_seed"])
        return {"report_sha256": _sha256(report)}
    parent = ShardedCorpusStore(spec["parent_dir"])
    store = suite.incremental_crawl(parent, suite.config.shard_dir)
    for name in ("crawl_stats", "tool_usage", "multi_action", "cooccurrence", "policy_duplicates"):
        getattr(suite, name)
    longitudinal = render_longitudinal(analyze_epochs([parent, store]))
    statistics = suite.crawl_statistics
    return {
        "store_fingerprint": store.fingerprint(),
        "records_carried": statistics.n_records_carried,
        "http_requests": statistics.n_http_requests,
        "longitudinal_sha256": _sha256(longitudinal),
    }


def _counters(suite):
    """Per-layer counts read from the suite's public objects."""
    statistics = suite.crawl_statistics
    counters = {
        "crawler.http_requests": 0,
        "crawler.records_carried": 0,
        "crawler.fetch_failures": 0,
        "crawler.useful_fetch_ratio": 0.0,
        "io.store_mb": _store_mb(suite.shard_store.root) if suite.sharded else 0.0,
        "classification.descriptions": 0,
        "llm.calls": suite.llm.call_count,
        "llm.prompt_tokens": suite.llm.usage.prompt_tokens,
        "llm.completion_tokens": suite.llm.usage.completion_tokens,
    }
    if statistics is not None:
        requests = statistics.n_http_requests
        failures = statistics.n_unresolved + statistics.n_policy_failures
        wasted = statistics.n_retries + statistics.n_ratelimit_retries + failures
        counters["crawler.http_requests"] = requests
        counters["crawler.records_carried"] = statistics.n_records_carried
        counters["crawler.fetch_failures"] = failures
        counters["crawler.useful_fetch_ratio"] = 1.0 - wasted / requests if requests else 0.0
    if suite.stage_materialized("classification"):
        counters["classification.descriptions"] = len(suite.descriptions)
    return counters


def main(spec):
    work = Path(spec["work_dir"])
    suite = _build(spec)
    setup_end = time.monotonic()
    usage_start = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_end": setup_end,
        "setup_rss_mb": _status_kb("VmRSS") / MB,
        "import_s": IMPORT_END - IMPORT_START,
    }
    if spec["mode"] == "setup":
        return result
    if spec["mode"] == "parent":
        # Built under another name and renamed once whole, so a kept store
        # is never a partial one.
        parent_dir = spec["parent_dir"]
        if not os.path.isdir(parent_dir):
            shutil.rmtree(_partial(parent_dir), ignore_errors=True)
            suite.shard_store  # crawls the epoch-0 world into the store
            suite.close()
            os.rename(_partial(parent_dir), parent_dir)
        fingerprint = ShardedCorpusStore(parent_dir).fingerprint()
        result["outputs"] = {"store_fingerprint": fingerprint}
        return result

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    outputs = _run(spec, suite)
    suite.close()
    end = time.monotonic()
    # Once the pool has closed, every worker generation (a broadcast of new
    # shared state restarts the pool) has been reaped.  The workers are
    # forked without exec, so their ``ru_maxrss`` is their own ``VmHWM``.
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    worker_cpu = _cpu_s(workers)
    worker_hwm_kb = workers.ru_maxrss
    self_cpu = _cpu_s(resource.getrusage(resource.RUSAGE_SELF)) - _cpu_s(usage_start)
    result.update(
        wall_s=end - setup_end,
        cpu_s=self_cpu + worker_cpu,
        peak_rss_mb=max(_status_kb("VmHWM"), worker_hwm_kb) / MB,
        outputs=outputs,
        counters=dict(
            _counters(suite),
            **{
                "exec.worker_cpu_s": worker_cpu,
                "exec.worker_peak_rss_mb": worker_hwm_kb / MB,
            },
        ),
    )
    if tracer is not None:
        spans_path = work / "spans.jsonl"
        tracer.write(str(spans_path))
        result["spans"] = str(spans_path)
        spans = tracer.spans
        result["layers"] = tracing.layer_metrics(spans, tracer.counters)
        result["findings"] = tracing.store_materializations(spans)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
