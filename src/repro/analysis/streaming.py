"""Shard-parallel streaming analysis over any :class:`~repro.io.CorpusSource`.

Every corpus-driven stage of the measurement runs here, as a **map-reduce**
over the source's shards.  The source is either the on-disk
:class:`~repro.io.shards.ShardedCorpusStore` (N shards) or the in-memory
:class:`~repro.crawler.corpus.CrawlCorpus`, which is one shard and costs
no parse per pass:

* **GPT-record map** — runs once per runner: one task per GPT shard,
  scheduled on a :class:`~repro.exec.WorkerPool`, streams the shard's GPT
  records through one fixed set of accumulators (party, Action catalog,
  crawl stats, tool usage, multi-Action, co-occurrence, prevalence),
  holding one record at a time.  Right after the merge the runner
  finalizes every analysis that needs no classification and keeps only
  those results, the Action catalog and the prevalence counts, which
  every later request reads instead of the records.  Collection and
  prohibited read nothing of a record but its GPT id and Action ids, so
  once the classification exists they fold the party index's ``(gpt
  id, action id)`` embeddings;
* **policy-record map** — one task per policy shard: duplicate analysis
  profiles each document shard-locally (MinHash signatures included — see
  :class:`~repro.policy.duplicates.PolicyProfileAccumulator`) and the
  disclosure analysis runs the privacy-policy framework per document,
  folding per-Action outcomes into a
  :class:`~repro.analysis.disclosure.DisclosureAccumulator` and returning
  them beside it, so the coordinator assembles the policy report without
  running the framework again;
* **description-extraction map** — its own pass, run only when
  classification is requested: one task per GPT shard collects each
  Action's data descriptions keyed by ``(gpt order key, action
  position)``; the reduce reconstructs the exact global description list
  (first-occurrence order over the discovery-ordered corpus) without
  materializing the corpus.  It stays out of the GPT-record map because
  there the description rows would live as long as the runner, through
  the policy passes, and raise the peak memory of workloads that never
  classify;
* **classification map** — the global description list is classified in
  batch-aligned chunks (:data:`CLASSIFY_CHUNK_BATCHES`); the classifier's
  fixed inputs (taxonomy, LLM, few-shot store, config) are broadcast to
  the pool once, and chunk labels concatenate in submission order to the
  byte-identical ``classify_many`` result;
* **reduce** — shard partials merge (``accumulator.merge``), near-duplicate
  LSH candidates band over the *union* of the shard signatures and get
  exact-verified against only the candidate texts, and everything is
  finalized with the shared context (classification rollups, party index,
  the source's store counts and unresolved identifiers).

Because every ``finalize`` is order-canonical and the map tasks are pure
per-shard folds, the output is **byte-identical** to running the in-memory
analyzers (``analyze_crawl_stats`` … ``analyze_disclosure``, which stay as
the reference implementations) on the materialized corpus — at any shard
count, worker count, or backend (serial, thread, or process; map tasks
are module-level functions that read their pass's inputs from the pool's
broadcast state, and their accumulators pickle, so pure-Python
accumulation scales across cores instead of serializing on the GIL).
``tests/analysis/test_streaming.py`` and the determinism matrix assert
it.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.collection import CollectionAccumulator
from repro.analysis.cooccurrence import CooccurrenceAccumulator
from repro.analysis.coverage import CoverageAccumulator
from repro.analysis.crawlstats import CrawlStatsAccumulator
from repro.analysis.disclosure import DisclosureAccumulator
from repro.analysis.multiaction import MultiActionAccumulator
from repro.analysis.party import ActionPartyAccumulator, ActionPartyIndex
from repro.analysis.prevalence import PrevalenceAccumulator
from repro.analysis.prohibited import ProhibitedAccumulator, find_offending_actions
from repro.analysis.tools import ToolUsageAccumulator
from repro.classification.descriptions import DataDescription
from repro.classification.results import ClassificationResult, DescriptionLabel
from repro.crawler.corpus import CrawledGPT
from repro.exec import ExecTask, WorkerPool, make_pool, shared_state
from repro.io import CorpusSource
from repro.io.shards import shard_index
from repro.policy.duplicates import (
    PolicyProfileAccumulator,
    finalize_duplicate_report,
    normalize_policy_text,
)
from repro.taxonomy.schema import DataTaxonomy

#: Analyses computable by streaming GPT records alone.
CORPUS_STREAM_ANALYSES = (
    "crawl_stats",
    "tool_usage",
    "multi_action",
    "cooccurrence",
)

#: Analyses that additionally need the classification result.
CLASSIFIED_STREAM_ANALYSES = (
    "collection",
    "coverage",
    "prohibited",
    "prevalence",
)

#: Analyses that stream *policy* records (joined against the Action catalog
#: built in the GPT-record pass).  ``disclosure`` additionally runs the
#: policy framework per document and therefore needs the classification and
#: an LLM; ``policy_duplicates`` needs neither.
POLICY_STREAM_ANALYSES = (
    "policy_duplicates",
    "disclosure",
)

#: Everything this engine can compute.
STREAMABLE_ANALYSES = (
    CORPUS_STREAM_ANALYSES + CLASSIFIED_STREAM_ANALYSES + POLICY_STREAM_ANALYSES
)

#: Analyses that :meth:`ShardAnalysisRunner.run` computes only with a
#: classification result.
NEEDS_CLASSIFICATION = CLASSIFIED_STREAM_ANALYSES + ("disclosure",)


class ActionCatalogAccumulator:
    """Streaming Action registry: id → (policy URL, API domain, title).

    The compact join key between GPT shards (where Actions live) and policy
    shards (where their documents live), built by the runner's one
    GPT-record pass and kept for its policy passes.  Memory is
    O(#distinct Actions); duplicate embeddings of an Action carry identical
    specifications, so first-write-wins merging is order-insensitive.
    """

    def __init__(self) -> None:
        self.actions: Dict[str, Tuple[Optional[str], str, str]] = {}

    def update(self, gpt: CrawledGPT) -> None:
        """Register every Action of one GPT record."""
        for action in gpt.actions:
            self.actions.setdefault(
                action.action_id, (action.legal_info_url, action.domain, action.title)
            )

    def merge(self, other: "ActionCatalogAccumulator") -> None:
        """Fold another shard's registry into this one."""
        for action_id, row in other.actions.items():
            self.actions.setdefault(action_id, row)


#: The GPT-record map's fixed accumulator table: everything that reads GPT
#: records, except description extraction, folds here in one pass.
_GPT_PASS_ACCUMULATORS = (
    ("party", ActionPartyAccumulator),
    ("action_catalog", ActionCatalogAccumulator),
    ("crawl_stats", CrawlStatsAccumulator),
    ("tool_usage", ToolUsageAccumulator),
    ("multi_action", MultiActionAccumulator),
    ("cooccurrence", CooccurrenceAccumulator),
    ("prevalence", PrevalenceAccumulator),
)

#: Broadcast keys for the three map passes' shared inputs (see
#: :class:`~repro.exec.WorkerPool`): tasks carry only their shard index or
#: description chunk.
STREAM_GPT_KEY = "stream/gpt-pass"
STREAM_POLICY_KEY = "stream/policy-pass"
STREAM_CLASSIFY_KEY = "stream/classify-pass"


def _map_gpt_shard(index: int) -> Dict[str, object]:
    """Fold one GPT shard's record stream through the fixed accumulator table.

    The source is the :data:`STREAM_GPT_KEY` broadcast; the returned
    accumulators pickle, so the task runs the same in a process worker as
    in-process.
    """
    accumulators = {name: factory() for name, factory in _GPT_PASS_ACCUMULATORS}
    for gpt in shared_state(STREAM_GPT_KEY).iter_shard(index):
        for accumulator in accumulators.values():
            accumulator.update(gpt)
    return accumulators


def _fold_embeddings(accumulator, party_index: ActionPartyIndex):
    """Fold each Action-embedding GPT's ``(gpt id, action ids)`` into ``accumulator``.

    ``ActionPartyIndex.finalize`` key-sorts ``embedding_party``, so each
    GPT's embeddings are adjacent, and grouping them gives the projection
    of every record that the ``analyze_*`` oracles fold — without reading a
    record.
    """
    for gpt_id, keys in groupby(party_index.embedding_party, key=itemgetter(0)):
        accumulator.update(gpt_id, [action_id for _, action_id in keys])
    return accumulator


def _map_policy_shard(index: int) -> Dict[str, object]:
    """Fold one policy shard: duplicate profiles and/or disclosure analyses.

    The :data:`STREAM_POLICY_KEY` broadcast carries, per shard, a
    disclosure spec: the shard's slice of the URL → Actions join
    (``url_actions``: url → [(action id, collected types, title)]) plus the
    policy framework's inputs (taxonomy, LLM, single-pass flag).  The
    framework runs per document; its per-Action outcomes fold into a
    :class:`DisclosureAccumulator` and come back beside it as
    ``policy_analyses`` (action id → ``ActionPolicyAnalysis``).
    """
    spec = shared_state(STREAM_POLICY_KEY)
    disclosure_spec = spec["disclosure_specs"][index] if spec["disclosure_specs"] else None
    out: Dict[str, object] = {}
    duplicates = PolicyProfileAccumulator() if spec["want_duplicates"] else None
    disclosure = None
    analyzer = None
    analyses: Dict[str, object] = {}
    url_actions: Mapping[str, Sequence] = {}
    if disclosure_spec is not None:
        from repro.policy.framework import PrivacyPolicyAnalyzer

        disclosure = DisclosureAccumulator()
        analyzer = PrivacyPolicyAnalyzer(
            disclosure_spec["taxonomy"],
            disclosure_spec["llm"],
            single_pass=bool(disclosure_spec["single_pass"]),
        )
        url_actions = disclosure_spec["url_actions"]
    for result in spec["source"].iter_shard_policies(index):
        if duplicates is not None:
            duplicates.update(result)
        if disclosure is not None and result.ok and result.text is not None:
            for action_id, collected_types, title in url_actions.get(result.url, ()):
                analyses[action_id] = analyzer.analyze_action(
                    action_id=action_id,
                    policy_url=result.url,
                    policy_text=result.text,
                    collected_types=collected_types,
                )
                disclosure.update(analyses[action_id], name=title)
    if duplicates is not None:
        out["policy_duplicates"] = duplicates
    if disclosure is not None:
        out["disclosure"] = disclosure
        out["policy_analyses"] = analyses
    return out


def _policy_report(
    collected: Mapping[str, Sequence], catalog: ActionCatalogAccumulator, analyses: Mapping
):
    """Assemble the policy report from the policy shards' per-Action analyses.

    ``collected`` (the classification's Action → data types) is keyed in
    first-occurrence order of the extracted descriptions, which is the
    order ``PrivacyPolicyAnalyzer.analyze_corpus`` visits Actions in.  An
    Action no shard analyzed has no reachable policy; its record needs no
    LLM call.
    """
    from repro.policy.framework import ActionPolicyAnalysis, PolicyConsistencyReport

    report = PolicyConsistencyReport()
    for action_id in collected:
        analysis = analyses.get(action_id)
        if analysis is None:
            analysis = ActionPolicyAnalysis(
                action_id=action_id,
                policy_url=catalog.actions[action_id][0],
                policy_available=False,
            )
        report.add(analysis)
    return report


# ---------------------------------------------------------------------------
# Shard-partitioned classification
# ---------------------------------------------------------------------------
#: Chunk size of the classification map, in classifier batches.  Chunk
#: boundaries always land on batch boundaries, so batch composition — and
#: with it every prompt, since the pooled few-shot example union is built
#: per batch — is identical to one global ``classify_many`` call at any
#: chunk count, worker count, or backend.
CLASSIFY_CHUNK_BATCHES = 8


def _map_extract_shard(
    source: CorpusSource, index: int
) -> List[Tuple[int, int, str, List[Tuple[str, str]]]]:
    """Extract one GPT shard's data descriptions with global order keys.

    Returns one row per *first in-shard occurrence* of an Action:
    ``(gpt order key, action position, action id, [(parameter name,
    description text), …])``.  The coordinator keeps the globally smallest
    key per Action and sorts — which reproduces, exactly, the
    first-occurrence order of ``CrawlCorpus.unique_actions()`` over the
    discovery-ordered corpus, and therefore the exact description list of
    :func:`repro.classification.descriptions.extract_descriptions`.
    """
    rows: List[Tuple[int, int, str, List[Tuple[str, str]]]] = []
    seen: set = set()
    for order_key, gpt in source.iter_shard_gpts_indexed(index):
        for position, action in enumerate(gpt.actions):
            if action.action_id in seen:
                continue
            seen.add(action.action_id)
            pairs = [
                (name, text)
                for (name, _), text in zip(action.parameters, action.data_descriptions())
            ]
            rows.append((order_key, position, action.action_id, pairs))
    return rows


def _classify_chunk(chunk: Sequence[DataDescription]) -> List[DescriptionLabel]:
    """Classify one batch-aligned chunk of the global description list.

    The classifier's only inputs besides the chunk are fixed shared state
    (the :data:`STREAM_CLASSIFY_KEY` broadcast: taxonomy, LLM, few-shot
    store, config) and every simulated-LLM decision is a pure function of
    its prompt, so chunk results concatenate to the byte-identical global
    classification.
    """
    from repro.classification.classifier import DataCollectionClassifier

    spec = shared_state(STREAM_CLASSIFY_KEY)
    classifier = DataCollectionClassifier(
        taxonomy=spec["taxonomy"],
        llm=spec["llm"],
        fewshot_store=spec["fewshot_store"],
        config=spec["config"],
    )
    return classifier.classify_many(list(chunk)).labels


class ShardAnalysisRunner:
    """Runs streaming analyses shard-parallel on a :class:`~repro.exec.WorkerPool`.

    A runner reads the source's GPT records once: the first :meth:`run`
    folds them into every analysis that needs no classification, the
    party index, the Action catalog and the prevalence counts, and later
    calls reuse those.  Every :meth:`run` result carries ``"party"``.

    Parameters
    ----------
    source:
        The corpus to analyze: a :class:`~repro.io.shards.ShardedCorpusStore`
        or an in-memory :class:`~repro.crawler.corpus.CrawlCorpus` (one
        shard).  On a process pool it must be a store, which pickles as its
        root and manifest.
    workers:
        Worker-pool size for shard tasks (``<= 1`` streams shards
        sequentially).  Results are identical at any worker count.
    backend:
        ``"serial"`` / ``"thread"`` / ``"process"``, a borrowed
        ``WorkerPool``, or ``None`` (serial at ``workers <= 1``, threads
        above).  The process kind gives pure-Python accumulation real CPU
        scaling; results are identical on every backend.  A name builds a
        pool for the runner (close the runner, or use it as a context
        manager, to release a process pool's workers; a closed process
        runner cannot run again); a ``WorkerPool`` reuses the
        caller's warm workers across analysis passes and is never closed
        here.  Each map pass broadcasts its inputs (the source, the
        URL → Actions join, the classifier) to the pool, so per-task
        pickles carry a shard index instead; on a process pool a pass
        whose payload changed restarts the workers once rather than
        re-shipping per task.
    """

    def __init__(
        self,
        source: CorpusSource,
        workers: int = 0,
        backend: Union[str, WorkerPool, None] = None,
    ) -> None:
        self.source = source
        self.workers = workers
        #: The GPT-record pass's output (see :meth:`_corpus_pass`).
        self._corpus: Optional[
            Tuple[Dict[str, object], ActionCatalogAccumulator, PrevalenceAccumulator]
        ] = None
        self._owned_pool: Optional[WorkerPool] = None
        if isinstance(backend, WorkerPool):
            self.pool = backend
        else:
            # Only a process pool holds workers to release; a thread pool
            # holds nothing between runs, so close() leaves it usable.
            self.pool = make_pool(backend, workers)
            if self.pool.is_process:
                self._owned_pool = self.pool

    def close(self) -> None:
        """Release the owned warm pool (idempotent; borrowed pools stay up)."""
        if self._owned_pool is not None:
            self._owned_pool.close()
            self._owned_pool = None

    def __enter__(self) -> "ShardAnalysisRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _run_merge(self, tasks: List[ExecTask]) -> Dict[str, object]:
        """Run shard map tasks and merge partials in shard order."""
        merged: Dict[str, object] = {}
        for outcome in self.pool.run(tasks):
            if not outcome.ok:
                raise RuntimeError(f"shard analysis {outcome.key!r} failed: {outcome.error}")
            # Reduce: merge shard partials in shard (submission) order.
            # Per-Action record maps merge by update: shards partition the
            # Actions, so keys never collide.
            for name, accumulator in outcome.result.items():
                if name not in merged:
                    merged[name] = accumulator
                elif isinstance(accumulator, dict):
                    merged[name].update(accumulator)
                else:
                    merged[name].merge(accumulator)
        return merged

    def _corpus_pass(
        self,
    ) -> Tuple[Dict[str, object], ActionCatalogAccumulator, PrevalenceAccumulator]:
        """The runner's one GPT-record pass, run on first use and then cached.

        Returns the finalized analyses that need no classification (with
        ``"party"``), the Action catalog and the prevalence counts.  The
        other merged accumulators are dropped here, so none outlives the
        pass.
        """
        if self._corpus is None:
            self.pool.broadcast(STREAM_GPT_KEY, self.source)
            merged = self._run_merge(
                [
                    ExecTask(key=f"shard-{index:05d}", fn=_map_gpt_shard, args=(index,))
                    for index in range(self.source.n_shards)
                ]
            )
            party = merged["party"].finalize()
            analyses = {
                "party": party,
                "crawl_stats": merged["crawl_stats"].finalize(
                    store_counts=self.source.store_counts,
                    unresolved_gpt_ids=self.source.unresolved_gpt_ids,
                    available_policy_urls=self.source.available_policy_urls(),
                ),
                "tool_usage": merged["tool_usage"].finalize(party),
                "multi_action": merged["multi_action"].finalize(),
                "cooccurrence": merged["cooccurrence"].finalize(),
            }
            self._corpus = (analyses, merged["action_catalog"], merged["prevalence"])
        return self._corpus

    def extract_descriptions(self) -> List[DataDescription]:
        """Extract every data description, shard-parallel, in global order.

        One map task per GPT shard collects the shard's first-occurrence
        Actions keyed by ``(gpt discovery index, action position)``; the
        reduce keeps the globally smallest key per Action and sorts.  The
        result is the exact list ``extract_descriptions(corpus)`` would
        return for the materialized discovery-order corpus — without ever
        materializing it.
        """
        tasks = [
            ExecTask(
                key=f"extract-{index:05d}",
                fn=_map_extract_shard,
                args=(self.source, index),
            )
            for index in range(self.source.n_shards)
        ]
        best: Dict[str, Tuple[Tuple[int, int], List[Tuple[str, str]]]] = {}
        for outcome in self.pool.run(tasks):
            if not outcome.ok:
                raise RuntimeError(
                    f"description extraction {outcome.key!r} failed: {outcome.error}"
                )
            for gpt_index, position, action_id, pairs in outcome.result:
                key = (gpt_index, position)
                current = best.get(action_id)
                if current is None or key < current[0]:
                    best[action_id] = (key, pairs)
        descriptions: List[DataDescription] = []
        for action_id, (_, pairs) in sorted(best.items(), key=lambda item: item[1][0]):
            for name, text in pairs:
                descriptions.append(
                    DataDescription(action_id=action_id, parameter_name=name, text=text)
                )
        return descriptions

    def classify(
        self,
        taxonomy: DataTaxonomy,
        llm: object,
        fewshot_store: object,
        config: object,
        descriptions: Optional[Sequence[DataDescription]] = None,
    ) -> ClassificationResult:
        """Shard-partitioned classification of the source's descriptions.

        The global (discovery-order) description list is cut into chunks of
        ``CLASSIFY_CHUNK_BATCHES`` classifier batches and classified as map
        tasks; chunk labels concatenate in submission order.  Because chunk
        boundaries are batch boundaries and the classifier inputs are fixed
        shared state (broadcast to the pool once), the result is
        byte-identical to ``classify_many`` over the whole list — at any
        backend, worker count, or shard count.
        """
        if descriptions is None:
            descriptions = self.extract_descriptions()
        result = ClassificationResult()
        if not descriptions:
            return result
        chunk_size = max(1, int(getattr(config, "batch_size", 8))) * CLASSIFY_CHUNK_BATCHES
        chunks = [
            list(descriptions[start : start + chunk_size])
            for start in range(0, len(descriptions), chunk_size)
        ]
        self.pool.broadcast(
            STREAM_CLASSIFY_KEY,
            {
                "taxonomy": taxonomy,
                "llm": llm,
                "fewshot_store": fewshot_store,
                "config": config,
            },
        )
        tasks = [
            ExecTask(key=f"classify-{index:05d}", fn=_classify_chunk, args=(chunk,))
            for index, chunk in enumerate(chunks)
        ]
        for outcome in self.pool.run(tasks):
            if not outcome.ok:
                raise RuntimeError(
                    f"classification chunk {outcome.key!r} failed: {outcome.error}"
                )
            result.labels.extend(outcome.result)
        return result

    def _fetch_normalized_texts(self, urls: Sequence[str]) -> Dict[str, str]:
        """Re-read (only) the requested policy texts, normalized.

        Touches just the shards the URLs hash to — the near-duplicate
        verification's memory is O(candidate texts), not O(policy corpus).
        """
        wanted = set(urls)
        shards = {shard_index(url, self.source.n_shards) for url in wanted}
        texts: Dict[str, str] = {}
        for shard in sorted(shards):
            for result in self.source.iter_shard_policies(shard):
                if result.url in wanted and result.text is not None:
                    texts[result.url] = normalize_policy_text(result.text)
        return texts

    def run(
        self,
        names: Optional[Sequence[str]] = None,
        classification: Optional[ClassificationResult] = None,
        taxonomy: Optional[DataTaxonomy] = None,
        llm: Optional[object] = None,
        single_pass_policy: bool = False,
        near_duplicate_method: str = "auto",
    ) -> Dict[str, object]:
        """Compute the requested analyses from the runner's one GPT-record pass.

        The first call reads the GPT shards (:meth:`_corpus_pass`); no
        later call reads a GPT record.  Collection and prohibited fold the
        party index's embeddings, and ``disclosure`` and
        ``policy_duplicates`` share one pass over the policy shards.
        Returns analysis objects keyed by name, plus ``"party"`` (the
        :class:`~repro.analysis.party.ActionPartyIndex`) always and
        ``"policy_report"`` (the
        :class:`~repro.policy.framework.PolicyConsistencyReport`) with
        ``disclosure``.  Requesting a classification-dependent analysis
        without ``classification`` — or ``disclosure`` without
        ``llm``/``taxonomy`` — raises.
        """
        requested = list(names if names is not None else STREAMABLE_ANALYSES)
        unknown = [name for name in requested if name not in STREAMABLE_ANALYSES + ("party",)]
        if unknown:
            raise ValueError(f"unknown streaming analyses: {', '.join(sorted(unknown))}")
        needs_classification = [name for name in requested if name in NEEDS_CLASSIFICATION]
        if needs_classification and classification is None:
            raise ValueError(
                "classification required for: " + ", ".join(sorted(needs_classification))
            )
        if "disclosure" in requested and (llm is None or taxonomy is None):
            raise ValueError("disclosure requires an llm and a taxonomy")

        corpus, catalog, prevalence = self._corpus_pass()
        party = corpus["party"]
        results = {name: corpus[name] for name in requested if name in corpus}
        results["party"] = party
        collected = classification.action_data_types() if classification is not None else None
        if "collection" in requested:
            collection = _fold_embeddings(CollectionAccumulator(collected), party)
            results["collection"] = collection.finalize(party)
        if "prohibited" in requested:
            offending = find_offending_actions(classification, taxonomy)
            prohibited = _fold_embeddings(ProhibitedAccumulator(offending, collected), party)
            results["prohibited"] = prohibited.finalize()
        if "prevalence" in requested:
            results["prevalence"] = prevalence.finalize(classification, party)
        if "coverage" in requested:
            # Coverage streams classification labels, not GPT records; fold
            # it inline (the accumulator still supports chunked merging).
            coverage = CoverageAccumulator()
            for label in classification.labels:
                coverage.update(label)
            results["coverage"] = coverage.finalize()

        # Policy-record map: duplicates profile + disclosure framework run.
        policy_names = [name for name in requested if name in POLICY_STREAM_ANALYSES]
        if not policy_names:
            return results
        disclosure_specs: Optional[List[Dict[str, object]]] = None
        if "disclosure" in policy_names:
            # Shard-slice the URL → Actions join so each task carries only
            # the entries its policy shard can encounter.
            url_actions: List[Dict[str, List]] = [{} for _ in range(self.source.n_shards)]
            for action_id, (url, _domain, title) in catalog.actions.items():
                collected_types = collected.get(action_id, [])
                if not url or not collected_types:
                    continue
                shard = shard_index(url, self.source.n_shards)
                url_actions[shard].setdefault(url, []).append(
                    (action_id, collected_types, title)
                )
            disclosure_specs = [
                {
                    "taxonomy": taxonomy,
                    "llm": llm,
                    "single_pass": single_pass_policy,
                    "url_actions": url_actions[index],
                }
                for index in range(self.source.n_shards)
            ]
        self.pool.broadcast(
            STREAM_POLICY_KEY,
            {
                "source": self.source,
                "want_duplicates": "policy_duplicates" in policy_names,
                "disclosure_specs": disclosure_specs,
            },
        )
        merged = self._run_merge(
            [
                ExecTask(key=f"policies-{index:05d}", fn=_map_policy_shard, args=(index,))
                for index in range(self.source.n_shards)
            ]
        )
        if "disclosure" in merged:
            results["disclosure"] = merged["disclosure"].finalize()
            results["policy_report"] = _policy_report(
                collected, catalog, merged["policy_analyses"]
            )
        if "policy_duplicates" in merged:
            action_policy_urls = {
                action_id: row[0] for action_id, row in catalog.actions.items() if row[0]
            }
            action_domains = {action_id: row[1] for action_id, row in catalog.actions.items()}
            results["policy_duplicates"] = finalize_duplicate_report(
                action_policy_urls,
                action_domains,
                merged["policy_duplicates"].profiles,
                self._fetch_normalized_texts,
                near_duplicate_method=near_duplicate_method,
            )
        return results
