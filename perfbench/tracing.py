"""Outside-in tracing for the benchmark's traced runs.

The program has no tracing of its own yet, so a traced run wraps the calls
into each ``repro`` layer from outside: :func:`install` replaces a fixed set
of functions and methods with wrappers that record one span per call.  Spans
are kept in memory as ``(name, start, end, parent)`` and written out when
the run ends.  :func:`layer_metrics` reduces them to the span-derived
metrics of :data:`LAYER_METRICS`; the measured script reads the other
counts from public objects.

Only the measured process reports spans.  Forked pool workers inherit the
wrappers, but their spans are discarded, so the work they do shows up only
as the coordinator's ``exec.wait_s`` until the program traces itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

#: The 19 registered experiment ids, in registry order.  A test checks this
#: against ``repro.experiments.registry.EXPERIMENTS``.
EXPERIMENT_IDS = (
    "table1",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "figure3",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "taxonomy_refinement",
    "classifier_accuracy",
    "headline_stats",
    "multiaction",
    "policy_stats",
    "disclosure_headlines",
)

#: Every per-layer metric: (name, unit, better, end-to-end metrics it should
#: move).  Written down before measuring, so that a change to one layer can
#: predict which end-to-end metric moves and which stay unchanged.
LAYER_METRICS: Tuple[Tuple[str, str, str, str], ...] = (
    ("setup.import_s", "s", "lower", "setup_s setup_rss_mb"),
    ("ecosystem.generate_s", "s", "lower", "wall_s cpu_s"),
    ("ecosystem.evolve_s", "s", "lower", "wall_s cpu_s"),
    ("crawler.crawl_s", "s", "lower", "wall_s"),
    ("crawler.http_requests", "count", "lower", "wall_s"),
    ("crawler.records_carried", "count", "higher", "wall_s"),
    ("crawler.fetch_failures", "count", "lower", "wall_s"),
    ("crawler.useful_fetch_ratio", "ratio", "higher", "wall_s"),
    ("io.store_mb", "MB", "lower", "wall_s peak_rss_mb"),
    ("io.load_corpus_calls", "count", "lower", "wall_s peak_rss_mb"),
    ("io.load_corpus_s", "s", "lower", "wall_s peak_rss_mb"),
    ("classification.extract_s", "s", "lower", "wall_s cpu_s"),
    ("classification.classify_s", "s", "lower", "wall_s cpu_s"),
    ("classification.descriptions", "count", "lower", "wall_s cpu_s"),
    ("nlp.embed_calls", "count", "lower", "wall_s cpu_s"),
    ("nlp.embed_s", "s", "lower", "wall_s cpu_s"),
    ("llm.calls", "count", "lower", "wall_s cpu_s"),
    ("llm.prompt_tokens", "count", "lower", "wall_s cpu_s"),
    ("llm.completion_tokens", "count", "lower", "wall_s cpu_s"),
    ("llm.complete_self_s", "s", "lower", "wall_s cpu_s"),
    ("llm.knowledge_match_calls", "count", "lower", "wall_s cpu_s"),
    ("llm.knowledge_match_s", "s", "lower", "wall_s cpu_s"),
    ("policy.documents", "count", "lower", "wall_s"),
    ("policy.framework_s", "s", "lower", "wall_s"),
    ("policy.duplicates_s", "s", "lower", "wall_s"),
    ("analysis.corpus_s", "s", "lower", "wall_s"),
    ("analysis.classified_s", "s", "lower", "wall_s"),
    ("analysis.disclosure_s", "s", "lower", "wall_s"),
    ("analysis.stream_passes", "count", "lower", "wall_s"),
    ("exec.tasks", "count", "lower", "wall_s cpu_s"),
    ("exec.wait_s", "s", "lower", "wall_s"),
    ("exec.worker_cpu_s", "s", "lower", "cpu_s"),
    ("exec.worker_peak_rss_mb", "MB", "lower", "peak_rss_mb"),
    *((f"experiments.{name}_s", "s", "lower", "wall_s") for name in EXPERIMENT_IDS),
    ("reporting.render_s", "s", "lower", "wall_s"),
    ("reporting.longitudinal_s", "s", "lower", "wall_s"),
    ("trace.overhead_s", "s", "lower", "none: traced wall_s minus the untraced median"),
)

#: Span group -> (time metric, call-count metric or None).  A group's time
#: is the inclusive time of its outermost spans, so a layer that calls
#: itself is not counted twice.
_SPAN_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "ecosystem.generate": ("ecosystem.generate_s", None),
    "ecosystem.evolve": ("ecosystem.evolve_s", None),
    "crawler.crawl": ("crawler.crawl_s", None),
    "io.load_corpus": ("io.load_corpus_s", "io.load_corpus_calls"),
    "classification.extract": ("classification.extract_s", None),
    "classification.classify": ("classification.classify_s", None),
    "nlp.embed": ("nlp.embed_s", "nlp.embed_calls"),
    "llm.knowledge_match": ("llm.knowledge_match_s", "llm.knowledge_match_calls"),
    "policy.framework": ("policy.framework_s", "policy.documents"),
    "policy.duplicates": ("policy.duplicates_s", None),
    "analysis.corpus": ("analysis.corpus_s", None),
    "analysis.classified": ("analysis.classified_s", None),
    "analysis.disclosure": ("analysis.disclosure_s", None),
    "exec.wait": ("exec.wait_s", None),
    "reporting.render": ("reporting.render_s", None),
    "reporting.longitudinal": ("reporting.longitudinal_s", None),
    **{f"experiments.{name}": (f"experiments.{name}_s", None) for name in EXPERIMENT_IDS},
}

SpanName = Union[str, Callable[[tuple, dict], str]]
Counter = Callable[[tuple, dict], Tuple[str, int]]


class Tracer:
    """Records nested spans in memory.

    Spans are kept in flat arrays, not one object per call, so tens of
    thousands of them give the garbage collector nothing more to traverse.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = defaultdict(int)
        self._names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self._name_ids = array("H")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def spans(self) -> List[Tuple[str, float, float, int]]:
        """``(name, start, end, parent index or -1)`` per call, in call order."""
        names = [self._names[name_id] for name_id in self._name_ids]
        return list(zip(names, self._starts, self._ends, self._parents))

    def wrap(self, fn: Callable, name: SpanName, count: Optional[Counter] = None) -> Callable:
        """``fn`` wrapped to record a span (and optionally bump a counter)."""
        clock = time.perf_counter
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if count is not None:
                counter, amount = count(args, kwargs)
                self.counters[counter] += amount
            span_name = name(args, kwargs) if callable(name) else name
            with self._lock:
                name_id = self._name_index.get(span_name)
                if name_id is None:
                    name_id = self._name_index[span_name] = len(self._names)
                    self._names.append(span_name)
                index = len(self._name_ids)
                self._name_ids.append(name_id)
                self._parents.append(stack[-1] if stack else -1)
                self._ends.append(0.0)
                self._starts.append(clock())
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._ends[index] = clock()
                stack.pop()

        return traced

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (name, start, end, parent)."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent})
                )
                handle.write("\n")


def _stream_pass_name(args: tuple, kwargs: dict) -> str:
    """Name a ``ShardAnalysisRunner.run`` pass by the analyses it computes."""
    names = kwargs["names"] if "names" in kwargs else (args[1] if len(args) > 1 else None)
    names = set(names or ())
    if "disclosure" in names:
        return "analysis.disclosure"
    if names == {"policy_duplicates"}:
        return "policy.duplicates"
    if names & {"collection", "coverage", "prohibited", "prevalence"}:
        return "analysis.classified"
    return "analysis.corpus"


def _stream_pass(args: tuple, kwargs: dict) -> Tuple[str, int]:
    return "analysis.stream_passes", 1


def _pool_tasks(args: tuple, kwargs: dict) -> Tuple[str, int]:
    tasks = kwargs["tasks"] if "tasks" in kwargs else args[1]
    return "exec.tasks", len(tasks)


#: What a traced run wraps: (module under ``repro``, function or
#: ``Class.method``, span name, counter).  A method is wrapped on its class;
#: a function is rebound in every ``repro`` module, and the measured script,
#: that imported it.
_PATCHES: Tuple[Tuple[str, str, SpanName, Optional[Counter]], ...] = (
    ("ecosystem.generator", "EcosystemGenerator.generate", "ecosystem.generate", None),
    ("ecosystem.evolution", "evolve_epochs", "ecosystem.evolve", None),
    ("ecosystem.evolution", "evolve_ecosystem", "ecosystem.evolve", None),
    ("crawler.pipeline", "CrawlPipeline.run", "crawler.crawl", None),
    ("crawler.pipeline", "CrawlPipeline.run_sharded", "crawler.crawl", None),
    ("crawler.pipeline", "CrawlPipeline.run_incremental", "crawler.crawl", None),
    ("io.shards", "ShardedCorpusStore.load_corpus", "io.load_corpus", None),
    ("classification.descriptions", "extract_descriptions", "classification.extract", None),
    (
        "analysis.streaming",
        "ShardAnalysisRunner.extract_descriptions",
        "classification.extract",
        _stream_pass,
    ),
    (
        "classification.classifier",
        "DataCollectionClassifier.classify_many",
        "classification.classify",
        None,
    ),
    ("analysis.streaming", "ShardAnalysisRunner.classify", "classification.classify", _stream_pass),
    ("analysis.streaming", "ShardAnalysisRunner.run", _stream_pass_name, _stream_pass),
    ("nlp.embeddings", "SentenceEmbedder.embed", "nlp.embed", None),
    ("nlp.embeddings", "SentenceEmbedder.embed_many", "nlp.embed", None),
    ("llm.simulated", "SimulatedLLM.complete", "llm.complete", None),
    ("llm.knowledge", "KeywordKnowledgeBase.match", "llm.knowledge_match", None),
    ("policy.framework", "PrivacyPolicyAnalyzer.analyze_policy", "policy.framework", None),
    ("policy.duplicates", "analyze_policy_corpus", "policy.duplicates", None),
    ("analysis.crawlstats", "analyze_crawl_stats", "analysis.corpus", None),
    ("analysis.tools", "analyze_tool_usage", "analysis.corpus", None),
    ("analysis.multiaction", "analyze_multi_action", "analysis.corpus", None),
    ("analysis.cooccurrence", "analyze_cooccurrence", "analysis.corpus", None),
    ("analysis.party", "build_party_index", "analysis.corpus", None),
    ("analysis.collection", "analyze_collection", "analysis.classified", None),
    ("analysis.coverage", "analyze_coverage", "analysis.classified", None),
    ("analysis.prohibited", "analyze_prohibited", "analysis.classified", None),
    ("analysis.prevalence", "analyze_prevalence", "analysis.classified", None),
    ("analysis.disclosure", "analyze_disclosure", "analysis.disclosure", None),
    ("exec.pool", "WorkerPool.run", "exec.wait", _pool_tasks),
    ("reporting.report", "render_experiment_report", "reporting.render", None),
    ("reporting.longitudinal", "analyze_epochs", "reporting.longitudinal", None),
    ("reporting.longitudinal", "render_longitudinal", "reporting.longitudinal", None),
)


def install(tracer: Tracer) -> None:
    """Wrap the calls into every traced layer.  Call after ``import repro``."""
    for module_name, target, name, count in _PATCHES:
        module = importlib.import_module(f"repro.{module_name}")
        if "." in target:
            class_name, attr = target.split(".")
            cls = getattr(module, class_name)
            setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name, count))
            continue
        original = getattr(module, target)
        traced = tracer.wrap(original, name, count)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith(("repro", "__main__")):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, traced)
    experiments = importlib.import_module("repro.experiments.registry").EXPERIMENTS
    for experiment_id, experiment in list(experiments.items()):
        experiments[experiment_id] = tracer.wrap(experiment, f"experiments.{experiment_id}")


def layer_metrics(spans: Sequence[Sequence], counters: Dict[str, int]) -> Dict[str, float]:
    """Reduce spans and span counters to the span-derived layer metrics.

    A group's time is the summed duration of its outermost spans (spans
    with no ancestor in the same group); its call count is their number.
    ``llm.complete_self_s`` is the time inside ``SimulatedLLM.complete``
    minus the time of the spans it called directly.
    """
    outermost = [True] * len(spans)
    for index, (name, _, _, parent) in enumerate(spans):
        while parent >= 0:
            if spans[parent][0] == name:
                outermost[index] = False
                break
            parent = spans[parent][3]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    metrics: Dict[str, float] = {}
    for time_metric, count_metric in _SPAN_METRICS.values():
        metrics[time_metric] = 0.0
        if count_metric is not None:
            metrics[count_metric] = 0
    complete_self = 0.0
    for index, (name, start, end, _) in enumerate(spans):
        if not outermost[index]:
            continue
        if name == "llm.complete":
            complete_self += end - start - child_time[index]
            continue
        time_metric, count_metric = _SPAN_METRICS[name]
        metrics[time_metric] += end - start
        if count_metric is not None:
            metrics[count_metric] += 1
    metrics["llm.complete_self_s"] = complete_self
    for counter in ("analysis.stream_passes", "exec.tasks"):
        metrics[counter] = counters.get(counter, 0)
    return metrics


def store_materializations(spans: Sequence[Sequence]) -> List[Dict[str, float]]:
    """Experiments that materialized a sharded store, with what followed.

    For each ``experiments.*`` span that contains an ``io.load_corpus``
    span: the number of such loads, the LLM calls made beneath it (all in
    the coordinator) and the experiment's time.
    """
    found: Dict[int, Dict[str, float]] = {}
    for name, _, _, parent in spans:
        if name not in ("io.load_corpus", "llm.complete"):
            continue
        while parent >= 0 and not spans[parent][0].startswith("experiments."):
            parent = spans[parent][3]
        if parent < 0:
            continue
        entry = found.setdefault(parent, {"load_corpus_calls": 0, "llm_calls": 0})
        entry["load_corpus_calls" if name == "io.load_corpus" else "llm_calls"] += 1
    return [
        {
            "experiment": spans[index][0].split(".", 1)[1],
            "seconds": spans[index][2] - spans[index][1],
            **entry,
        }
        for index, entry in sorted(found.items())
        if entry["load_corpus_calls"]
    ]
