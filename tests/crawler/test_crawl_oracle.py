"""The crawl against an oracle built from the ecosystem alone.

The identity tests elsewhere compare the crawl's two sinks and its
partition counts with each other.  This module is the outside reference:
on a clean network (no flaky or hostile hosts), what the crawl must find
follows from the generated world alone, without running any of the
pipeline's listing, resolve, routing or merge code.

* The frontier is each store of ``store_listings``, in order, with each
  listing's identifier, deduplicated on first sight; an identifier's
  position in it is its discovery index.
* An identifier with no public manifest is unresolved.
* Every other identifier is its manifest, parsed as the gizmo API serves it,
  attributed to the first store that listed it, with every listing store
  in ``source_stores`` (sorted).
* Each policy URL of a resolved Action is fetched once: ok with the
  generated document's text, or not ok when the generator left it
  unavailable.
"""

from __future__ import annotations

import json

import pytest

from repro.crawler.corpus import CrawlCorpus, CrawledGPT
from repro.crawler.pipeline import CrawlPipeline
from repro.io import corpus_to_payload
from repro.io.shards import ShardedCorpusStore

SEED = 11


def _oracle(ecosystem) -> CrawlCorpus:
    expected = CrawlCorpus()
    sources = {}
    for store, listings in ecosystem.store_listings.items():
        expected.store_link_counts[store] = len(listings)
        for listing in listings:
            sources.setdefault(listing.gpt_id, []).append(store)
    policy_urls = set()
    for position, (gpt_id, stores) in enumerate(sources.items()):
        manifest = ecosystem.gpts.get(gpt_id)
        if manifest is None or not manifest.is_public:
            expected.unresolved_gpt_ids.append(gpt_id)
            continue
        gpt = CrawledGPT.from_manifest(json.loads(manifest.to_json()), source_store=stores[0])
        gpt.source_stores = sorted(set(stores))
        expected.gpts[gpt_id] = gpt
        expected.discovery_indices[gpt_id] = position
        for store in gpt.source_stores:
            expected.store_counts[store] = expected.store_counts.get(store, 0) + 1
        policy_urls.update(
            action.legal_info_url for action in manifest.actions() if action.legal_info_url
        )
    for url in sorted(policy_urls):
        document = ecosystem.policies.get(url)
        expected.policies[url] = document.text if document is not None else None
    return expected


@pytest.fixture(scope="module")
def oracle(small_ecosystem):
    expected = _oracle(small_ecosystem)
    # The world must exercise every branch the oracle describes.
    assert expected.unresolved_gpt_ids
    assert any(text is None for text in expected.policies.values())
    assert any(len(gpt.source_stores) > 1 for gpt in expected.gpts.values())
    return expected


def _assert_matches_oracle(
    corpus: CrawlCorpus, expected: CrawlCorpus, count_order: bool = True
) -> None:
    assert list(corpus.gpts) == list(expected.gpts)
    assert corpus_to_payload(corpus)["gpts"] == corpus_to_payload(expected)["gpts"]
    assert list(corpus.discovery_indices.items()) == list(expected.discovery_indices.items())
    assert corpus.store_counts == expected.store_counts
    assert corpus.store_link_counts == expected.store_link_counts
    if count_order:
        assert list(corpus.store_counts) == list(expected.store_counts)
        assert list(corpus.store_link_counts) == list(expected.store_link_counts)
    assert corpus.unresolved_gpt_ids == expected.unresolved_gpt_ids
    assert list(corpus.policies) == list(expected.policies)
    for url, text in expected.policies.items():
        result = corpus.policies[url]
        assert result.ok == (text is not None), url
        assert result.text == text, url


@pytest.mark.parametrize("workers", [0, 4])
def test_run_matches_oracle(small_ecosystem, oracle, workers):
    corpus = CrawlPipeline.from_ecosystem(small_ecosystem, seed=SEED, workers=workers).run()
    _assert_matches_oracle(corpus, oracle)


def test_sharded_store_matches_oracle(small_ecosystem, oracle, tmp_path):
    store = CrawlPipeline.from_ecosystem(small_ecosystem, seed=SEED, shards=3).run_sharded(
        tmp_path / "store"
    )
    # A store's manifest keeps its per-store counts key-sorted, so only
    # their contents are compared with the oracle's crawl order...
    _assert_matches_oracle(store.load_corpus(), oracle, count_order=False)
    # ...and the store the crawl returns iterates them in the same order as
    # that store reopened from disk.
    reopened = ShardedCorpusStore(store.root)
    assert list(store.store_counts) == list(reopened.store_counts)
    assert list(store.manifest.store_link_counts) == list(reopened.manifest.store_link_counts)
