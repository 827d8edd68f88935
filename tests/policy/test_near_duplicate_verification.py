"""The duplicate-policy analysis's near-duplicate verification against the
tuple-set reference.

``near_duplicates`` in :mod:`repro.nlp.similarity` verifies candidates on
tuple shingle sets with ``jaccard_similarity``; the policy analysis verifies
on its own representation.  Both must flag the same texts: the analysis's
``near_duplicate_share`` is the share of distinct normalized texts (in
text-hash order) that appear in any reference pair.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.streaming import ShardAnalysisRunner
from repro.crawler.corpus import CrawlCorpus, CrawledAction, CrawledGPT
from repro.crawler.policy_fetcher import PolicyFetchResult
from repro.io.shards import ShardedCorpusStore
from repro.nlp.minhash import minhash_candidate_pairs
from repro.nlp.similarity import near_duplicates
from repro.nlp.tokenization import tokenize
from repro.policy.duplicates import analyze_policy_corpus, normalize_policy_text

THRESHOLDS = (0.5, 0.8, 0.95, 1.0)


def policy_corpus(texts):
    """One GPT with one Action per text, each Action's policy that text."""
    corpus = CrawlCorpus()
    actions = []
    for index, text in enumerate(texts):
        url = f"https://vendor{index}.example/privacy"
        actions.append(
            CrawledAction(
                action_id=f"act-{index:04d}", title=f"Action {index}", description="",
                server_url=f"https://api.vendor{index}.example", legal_info_url=url,
                functionality="Utility", auth_type="none", parameters=[],
            )
        )
        corpus.policies[url] = PolicyFetchResult(url=url, status=200, text=text)
    gpt = CrawledGPT(
        gpt_id="g-policies01", name="Policies", description="", author_name="A",
        author_website=None, vendor_domain=None, tool_types=["action(plugins_prototype)"],
        actions=actions,
    )
    corpus.gpts[gpt.gpt_id] = gpt
    return corpus


def _distinct_in_hash_order(texts):
    by_hash = {}
    for text in texts:
        normalized = normalize_policy_text(text)
        by_hash[hashlib.sha256(normalized.encode("utf-8")).hexdigest()] = normalized
    return [by_hash[key] for key in sorted(by_hash)]


def _reference_share(distinct, threshold, method):
    pairs = near_duplicates(distinct, threshold, method=method)
    flagged = {index for i, j, _ in pairs for index in (i, j)}
    return len(flagged) / len(distinct) if len(distinct) > 1 else 0.0


# Small vocabularies make collisions, shared shingles and short texts common.
_WORDS = st.sampled_from(["we", "collect", "your", "data", "share", "never", "email"])
_BASES = st.lists(_WORDS, min_size=0, max_size=14)


@st.composite
def policy_corpora(draw):
    texts = []
    for base in draw(st.lists(_BASES, min_size=1, max_size=6)):
        text = " ".join(base)
        texts.append(text)
        variants = st.sampled_from("copy case edit short symbols spaces".split())
        for variant in draw(st.lists(variants)):
            if variant == "copy":
                texts.append(text)
            elif variant == "case":
                # A distinct text with the same tokens: Jaccard exactly 1.0.
                texts.append(text.upper() + ".")
            elif variant == "edit" and base:
                edited = list(base)
                edited[draw(st.integers(0, len(base) - 1))] = draw(_WORDS)
                texts.append(" ".join(edited))
            elif variant == "short":
                texts.append(" ".join(base[:4]))
            elif variant == "symbols":
                texts.append("!!! —")
            elif variant == "spaces":
                texts.append("  \n".join(base) + "\t")
    return texts


@settings(max_examples=60, deadline=None)
@given(texts=policy_corpora(), threshold=st.sampled_from(THRESHOLDS))
def test_exact_scan_matches_the_tuple_set_reference(texts, threshold):
    report = analyze_policy_corpus(
        policy_corpus(texts),
        near_duplicate_threshold=threshold,
        near_duplicate_method="exact",
    )
    distinct = _distinct_in_hash_order(texts)
    assert report.near_duplicate_share == _reference_share(distinct, threshold, "exact")


def _words(n, start=0):
    return " ".join(f"w{index}" for index in range(start, start + n))


@pytest.mark.parametrize(
    "texts, threshold",
    [
        # 4 shared of 5 shingles: exactly 0.8.
        ([_words(9), _words(8)], 0.8),
        # 1 shared of 2 shingles: exactly 0.5.
        ([_words(6), _words(5)], 0.5),
        # 19 shared of 20 shingles: 0.95 as a float.
        ([_words(24), _words(23)], 0.95),
        # Same tokens, different text: 1.0.
        ([_words(7), _words(7).upper() + "!"], 1.0),
    ],
)
def test_similarity_exactly_at_the_threshold_is_a_near_duplicate(texts, threshold):
    distinct = _distinct_in_hash_order(texts)
    assert _reference_share(distinct, threshold, "exact") == 1.0
    for method in ("exact", "auto"):
        report = analyze_policy_corpus(
            policy_corpus(texts),
            near_duplicate_threshold=threshold,
            near_duplicate_method=method,
        )
        assert report.near_duplicate_share == 1.0


def _templated_policies(n_families=45, seed=5):
    """Families of ~260-token policies: each base plus one-, two- and
    three-token edits, so some pairs clear 0.95 Jaccard and some only come
    close (LSH candidates that verification must reject)."""
    rng = random.Random(seed)
    vocabulary = [f"w{index}" for index in range(600)]
    texts = []
    for _ in range(n_families):
        base = [rng.choice(vocabulary) for _ in range(260)]
        texts.append(" ".join(base))
        for n_edits in (1, 1, 2, 3):
            edited = list(base)
            for position in rng.sample(range(10, 250), n_edits):
                edited[position] = rng.choice(vocabulary)
            texts.append(" ".join(edited))
    return texts


def test_lsh_scale_in_memory_and_streamed_match_the_reference(tmp_path):
    texts = _templated_policies()
    distinct = _distinct_in_hash_order(texts)
    assert len(distinct) >= 200
    reference = _reference_share(distinct, 0.95, "lsh")
    assert 0.0 < reference < 1.0

    # The verifier is exercised: some LSH candidate is not a verified pair.
    candidates = minhash_candidate_pairs([tokenize(text) for text in distinct], 5, 0.95)
    verified = {(i, j) for i, j, _ in near_duplicates(distinct, 0.95, method="lsh")}
    assert candidates - verified

    corpus = policy_corpus(texts)
    assert analyze_policy_corpus(corpus).near_duplicate_share == reference
    store = ShardedCorpusStore.write_corpus(corpus, tmp_path / "store", n_shards=3)
    with ShardAnalysisRunner(store) as runner:
        streamed = runner.run(["policy_duplicates"])["policy_duplicates"]
    assert streamed.near_duplicate_share == reference
