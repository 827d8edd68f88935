"""Duplicate and near-duplicate privacy-policy analysis (Section 5.1.1, Table 6).

Many Actions point their ``legal_info_url`` at the same document.  The paper
groups policies that appear more than once, measures near-duplicates (Jaccard
similarity of word shingles above 95%), flags very short policies, and
manually triages what the duplicated documents contain (Table 6).  This module
reproduces all of that, with the manual triage replaced by content heuristics.

The analysis is built as a shardable map-reduce so it runs over a
:class:`~repro.io.shards.ShardedCorpusStore`'s policy shards without
materializing the corpus:

* **map** — :class:`PolicyProfileAccumulator` folds one policy fetch record
  at a time into a compact :class:`PolicyTextProfile`: a hash of the
  normalized text (exact-duplicate key), the character count (short-policy
  check), a MinHash signature over the text's word shingles
  (:mod:`repro.nlp.minhash`, computed shard-locally), and the text/URL-only
  prefix of the Table 6 content triage;
* **reduce** — :func:`finalize_duplicate_report` joins the merged profiles
  against the Action → policy-URL catalog, groups exact duplicates by text
  hash, resolves the vendor-dependent content kinds, generates LSH candidate
  pairs from the *union* of the shard-local signatures, and verifies each
  candidate with exact shingle Jaccard — re-reading only the candidate texts
  through a caller-supplied fetcher, so memory stays O(profiles), never
  O(total policy text).  Verification interns each distinct shingle of the
  candidate texts as a dense integer id and compares integer bitsets over
  those ids (at most N·U/8 bytes for N texts and U distinct shingles), not
  tuple sets; the Jaccard floats are the same.

Every grouping and ranking is order-canonical (groups sort by their smallest
member id, the triage samples each group's smallest member), so the
in-memory entry point :func:`analyze_policy_corpus` and the shard-streamed
path (:mod:`repro.analysis.streaming`) produce identical reports for the
same records — at any shard count, worker count, or execution backend.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.crawler.corpus import CrawlCorpus
from repro.crawler.policy_fetcher import PolicyFetchResult
from repro.nlp.minhash import (
    DEFAULT_MINHASH_SEED,
    DEFAULT_NUM_PERM,
    LSHIndex,
    MinHasher,
    choose_band_structure,
    hash_token_shingles,
    lsh_supports_threshold,
)
from repro.nlp.similarity import DEFAULT_SHINGLE_K, LSH_MIN_TEXTS, _shingles_from_tokens
from repro.nlp.tokenization import tokenize
from repro.web.psl import registrable_domain
from repro.web.urls import url_host


class PolicyContentKind(str, enum.Enum):
    """What a duplicated privacy-policy document contains (Table 6 rows)."""

    EXTERNAL_SERVICE = "external_service"
    EMPTY = "empty"
    SAME_VENDOR = "same_vendor"
    JAVASCRIPT = "javascript"
    OPENAI_POLICY = "openai_policy"
    TRACKING_PIXEL = "tracking_pixel"
    OTHER = "other"


_EXTERNAL_SERVICE_DOMAINS = (
    "github.com", "docs.github.com", "policies.google.com", "google.com",
    "stripe.com", "microsoft.com", "aws.amazon.com", "cloudflare.com",
)

_JS_MARKERS = ("<script", "window.__", "document.getelementbyid", "enable javascript")

_PIXEL_MARKERS = ("gif89a", "\x89png")

#: Near-duplicate calibration, imported from the single source of truth
#: (:mod:`repro.nlp.minhash` / :mod:`repro.nlp.similarity`) so shard-local
#: signatures band into exactly the candidate set
#: :func:`repro.nlp.similarity.near_duplicates` would generate — retuning
#: those modules retunes this analysis with them.
_SHINGLE_K = DEFAULT_SHINGLE_K
_NUM_PERM = DEFAULT_NUM_PERM
_MINHASH_SEED = DEFAULT_MINHASH_SEED
_LSH_MIN_TEXTS = LSH_MIN_TEXTS


def classify_policy_text(url: str, text: str) -> Optional[PolicyContentKind]:
    """The text/URL-only prefix of the Table 6 content triage.

    Returns the content kind when it is decidable from the document and its
    URL alone, or ``None`` when the decision needs the referencing Actions'
    API domains (vendor-level policies versus ``OTHER``) — see
    :func:`resolve_policy_vendor_kind`.  Computable shard-locally, which is
    what lets the streaming analyzer triage policies in the map step.
    """
    stripped = (text or "").strip()
    lowered = stripped.lower()
    if not stripped:
        return PolicyContentKind.EMPTY
    if any(marker in lowered for marker in _PIXEL_MARKERS) or lowered.startswith("gif89a"):
        return PolicyContentKind.TRACKING_PIXEL
    if any(marker in lowered for marker in _JS_MARKERS) and "privacy" not in lowered[:200]:
        return PolicyContentKind.JAVASCRIPT
    if any(marker in lowered for marker in _JS_MARKERS) and len(re.sub(r"<[^>]+>", "", lowered)) < 200:
        return PolicyContentKind.JAVASCRIPT
    host = url_host(url)
    policy_domain = registrable_domain(host) if host else None
    if policy_domain == "openai.com" or "openai privacy policy" in lowered:
        return PolicyContentKind.OPENAI_POLICY
    if policy_domain and any(
        policy_domain == registrable_domain(external) for external in _EXTERNAL_SERVICE_DOMAINS
    ):
        return PolicyContentKind.EXTERNAL_SERVICE
    return None


def resolve_policy_vendor_kind(
    policy_domain: Optional[str], action_domains: Sequence[str]
) -> PolicyContentKind:
    """Resolve the vendor-dependent tail of the triage.

    A policy hosted on the same registrable domain as one of its referencing
    Actions' API servers is a vendor-level policy; anything else is
    ``OTHER``.
    """
    if policy_domain and action_domains:
        action_registrables = {registrable_domain(domain) for domain in action_domains if domain}
        if policy_domain in action_registrables:
            return PolicyContentKind.SAME_VENDOR
    return PolicyContentKind.OTHER


def classify_policy_content(
    url: str,
    text: str,
    action_domains: Sequence[str] = (),
) -> PolicyContentKind:
    """Heuristically classify what a policy document contains.

    ``action_domains`` are the API domains of the Actions that reference this
    policy; if the policy is hosted on the same registrable domain as one of
    them (and shared across several Actions), it is a vendor-level policy.
    """
    kind = classify_policy_text(url, text)
    if kind is not None:
        return kind
    host = url_host(url)
    policy_domain = registrable_domain(host) if host else None
    return resolve_policy_vendor_kind(policy_domain, action_domains)


# ---------------------------------------------------------------------------
# Map step: per-record policy text profiles
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PolicyTextProfile:
    """Everything the duplicate analysis needs about one fetched policy.

    Compact and picklable: the raw text is dropped after profiling (the
    near-duplicate verification re-reads only candidate texts).
    """

    url: str
    #: SHA-256 of the whitespace-normalized text — the exact-duplicate key.
    text_hash: str
    #: Characters of the *raw* text (the short-policy check).
    n_chars: int
    #: MinHash signature of the normalized text's word shingles.
    signature: np.ndarray
    #: Whether the text tokenizes to anything (empty docs never band).
    has_tokens: bool
    #: Whether the text has letters but no token (a script written without
    #: spaces, such as Chinese): counted, since it cannot be compared.
    untokenized: bool
    #: Text/URL-only content triage (``None`` = needs the Action domains).
    kind_partial: Optional[PolicyContentKind]
    policy_domain: Optional[str]


def normalize_policy_text(text: str) -> str:
    """Whitespace-normalize a policy text (the exact-duplicate key space)."""
    return " ".join(text.split())


class PolicyProfileAccumulator:
    """Streams policy fetch records into :class:`PolicyTextProfile` rows.

    One record at a time, any order, shard-parallel: per-token hashes are
    memoized per accumulator, signatures are pure functions of the text, and
    :meth:`merge` is a plain union (profiles are keyed by URL, which shards
    partition).
    """

    def __init__(self) -> None:
        self.profiles: Dict[str, PolicyTextProfile] = {}
        self._hasher = MinHasher(num_perm=_NUM_PERM, seed=_MINHASH_SEED)
        self._token_cache: Dict[str, int] = {}

    def update(self, result: PolicyFetchResult) -> None:
        """Profile one fetch record (failed fetches carry no text and skip)."""
        if not result.ok or result.text is None:
            return
        normalized = normalize_policy_text(result.text)
        tokens = tokenize(normalized)
        host = url_host(result.url)
        self.profiles[result.url] = PolicyTextProfile(
            url=result.url,
            text_hash=hashlib.sha256(normalized.encode("utf-8")).hexdigest(),
            n_chars=len(result.text),
            signature=self._hasher.signature(
                hash_token_shingles(tokens, _SHINGLE_K, self._token_cache)
            ),
            has_tokens=bool(tokens),
            untokenized=not tokens and any(char.isalpha() for char in normalized),
            kind_partial=classify_policy_text(result.url, result.text),
            policy_domain=registrable_domain(host) if host else None,
        )

    def merge(self, other: "PolicyProfileAccumulator") -> None:
        """Union another shard's profiles (URL-disjoint by sharding)."""
        self.profiles.update(other.profiles)


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------
@dataclass
class DuplicatePolicyReport:
    """Corpus-level duplicate / near-duplicate policy statistics."""

    n_actions_with_policy_url: int = 0
    n_policies_fetched: int = 0
    availability: float = 0.0
    #: Fraction of fetched policy documents whose text is shared by more than
    #: one distinct Action.
    duplicate_share: float = 0.0
    #: Fraction of distinct policy texts that are near-duplicates of another.
    near_duplicate_share: float = 0.0
    #: Fraction of fetched policies shorter than 500 characters.
    short_share: float = 0.0
    #: Fetched policies (per Action, like ``n_policies_fetched``) whose text
    #: has letters but no word token, so near-duplicate detection skips them.
    n_untokenized: int = 0
    #: Breakdown of what duplicated policies contain (Table 6).
    duplicate_content: Counter = field(default_factory=Counter)
    #: Groups of Action ids sharing an identical policy text.
    duplicate_groups: List[List[str]] = field(default_factory=list)

    def duplicate_content_fractions(self) -> Dict[str, float]:
        """Table 6 rows as fractions of duplicated policies."""
        total = sum(self.duplicate_content.values())
        if total == 0:
            return {}
        return {kind: count / total for kind, count in self.duplicate_content.most_common()}


# ---------------------------------------------------------------------------
# Reduce step
# ---------------------------------------------------------------------------
def _near_duplicate_hashes(
    distinct: List[Tuple[str, PolicyTextProfile]],
    fetch_normalized_texts: Callable[[Sequence[str]], Mapping[str, str]],
    threshold: float,
    method: str,
) -> Set[str]:
    """Text hashes participating in at least one verified near-duplicate pair.

    Candidate pairs come either from the exact all-pairs scan (small inputs
    or ``method="exact"``, mirroring ``near_duplicates``'s auto rule), which
    yields them lazily in nested-loop order, or from banding the
    shard-computed MinHash signatures; every candidate is then verified
    with exact Jaccard over the real shingle sets, re-reading only the
    candidate texts via ``fetch_normalized_texts(urls)``.

    The shingles are those of :func:`~repro.nlp.similarity.shingle_set`,
    compared as bitsets: each distinct shingle of the candidate texts gets a
    dense id in first-seen order (the intern table is dropped once the
    bitsets are built), each text becomes a Python int with one bit per
    shingle id plus its set size, and a pair's shared-shingle count is one
    AND and a popcount.  ``shared / (size_a + size_b - shared)`` divides the
    same integers as :func:`~repro.nlp.similarity.jaccard_similarity`, so
    every float, and every verified pair, is the same.  The bitsets hold at
    most N·U/8 bytes for N candidate texts over U distinct shingles (0.6 MB
    on a 25,000-GPT store, where the tuple sets held ~13 MB).
    :func:`~repro.nlp.similarity.near_duplicates` keeps the tuple sets: it
    is the reference this verifier is tested against, and its LSH path is
    benchmarked as a speed-up over its own exact scan, which a faster
    per-pair verifier would shrink.
    """
    if method not in ("auto", "exact", "lsh"):
        raise ValueError(f"unknown method: {method!r}")
    n_texts = len(distinct)
    if n_texts < 2:
        return set()
    active = [profile.has_tokens for _, profile in distinct]
    use_exact = (
        method == "exact"
        or (method == "auto" and n_texts < _LSH_MIN_TEXTS)
        or not lsh_supports_threshold(threshold)
    )
    candidates: Iterable[Tuple[int, int]]
    if use_exact:
        candidate_indices = [index for index in range(n_texts) if active[index]]
        candidates = itertools.combinations(candidate_indices, 2)
    else:
        bands, rows = choose_band_structure(_NUM_PERM, threshold)
        candidates = LSHIndex(bands=bands, rows=rows).candidate_pairs(
            np.stack([profile.signature for _, profile in distinct]), active=active
        )
        candidate_indices = sorted({index for pair in candidates for index in pair})
    if len(candidate_indices) < 2:
        return set()

    texts = fetch_normalized_texts(
        [distinct[index][1].url for index in candidate_indices]
    )
    shingle_ids: Dict[Tuple[str, ...], int] = {}
    bitsets: List[int] = [0] * n_texts
    sizes: List[int] = [0] * n_texts
    for index in candidate_indices:
        shingles = _shingles_from_tokens(
            tokenize(texts[distinct[index][1].url]), _SHINGLE_K
        )
        bits = 0
        for shingle in shingles:
            bits |= 1 << shingle_ids.setdefault(shingle, len(shingle_ids))
        bitsets[index], sizes[index] = bits, len(shingles)
    del shingle_ids, texts

    near: Set[str] = set()
    for i, j in candidates:
        size_a, size_b = sizes[i], sizes[j]
        smaller, larger = (size_a, size_b) if size_a <= size_b else (size_b, size_a)
        if larger > 0 and smaller / larger < threshold:
            # Even perfect containment cannot reach the threshold.
            continue
        shared = (bitsets[i] & bitsets[j]).bit_count()
        union = size_a + size_b - shared
        if (shared / union if union else 1.0) >= threshold:
            near.add(distinct[i][0])
            near.add(distinct[j][0])
    return near


def finalize_duplicate_report(
    action_policy_urls: Mapping[str, str],
    action_domains: Mapping[str, str],
    profiles: Mapping[str, PolicyTextProfile],
    fetch_normalized_texts: Callable[[Sequence[str]], Mapping[str, str]],
    near_duplicate_threshold: float = 0.95,
    short_policy_chars: int = 500,
    min_duplicate_group: int = 2,
    near_duplicate_method: str = "auto",
) -> DuplicatePolicyReport:
    """Reduce merged policy profiles into the duplicate-policy report.

    ``action_policy_urls`` maps every Action with a ``legal_info_url`` to
    that URL; ``action_domains`` maps Action ids to their API server domains
    (for the vendor triage).  ``fetch_normalized_texts`` resolves a list of
    URLs to their whitespace-normalized texts — the only point where text is
    (re)read, and only for near-duplicate candidates.

    All orderings are canonical: duplicate groups sort by their smallest
    member and sample that member's document for the Table 6 triage.
    """
    report = DuplicatePolicyReport()
    report.n_actions_with_policy_url = len(action_policy_urls)

    #: Action id → profile of its fetched policy (the "action_texts" set).
    fetched: Dict[str, PolicyTextProfile] = {}
    for action_id, url in action_policy_urls.items():
        profile = profiles.get(url)
        if profile is not None:
            fetched[action_id] = profile
    report.n_policies_fetched = len(fetched)
    if report.n_actions_with_policy_url:
        report.availability = report.n_policies_fetched / report.n_actions_with_policy_url
    if not fetched:
        return report

    # Exact duplicates: identical normalized text across distinct Actions.
    groups: Dict[str, List[str]] = {}
    for action_id, profile in fetched.items():
        groups.setdefault(profile.text_hash, []).append(action_id)
    duplicated_actions = 0
    duplicate_groups = [
        sorted(members)
        for members in groups.values()
        if len(members) >= min_duplicate_group
    ]
    for members in sorted(duplicate_groups, key=lambda group: group[0]):
        duplicated_actions += len(members)
        report.duplicate_groups.append(members)
        # Triage the duplicated content (Table 6) on the canonical sample:
        # the group's smallest Action id.
        sample_profile = fetched[members[0]]
        kind = sample_profile.kind_partial
        if kind is None:
            kind = resolve_policy_vendor_kind(
                sample_profile.policy_domain,
                [action_domains.get(member, "") for member in members],
            )
        # Table 6 reports the share of *Actions* whose duplicated policy
        # holds each kind of content, so weight by group size.
        report.duplicate_content[kind.value] += len(members)
    report.duplicate_share = duplicated_actions / report.n_policies_fetched

    # Near-duplicates among distinct texts (canonical order: text hash).
    distinct: Dict[str, PolicyTextProfile] = {}
    for profile in fetched.values():
        distinct.setdefault(profile.text_hash, profile)
    if len(distinct) > 1:
        near = _near_duplicate_hashes(
            sorted(distinct.items()),
            fetch_normalized_texts,
            threshold=near_duplicate_threshold,
            method=near_duplicate_method,
        )
        report.near_duplicate_share = len(near) / len(distinct)

    # Short policies (per Action, raw character count).
    short = sum(1 for profile in fetched.values() if profile.n_chars < short_policy_chars)
    report.short_share = short / report.n_policies_fetched
    report.n_untokenized = sum(1 for profile in fetched.values() if profile.untokenized)
    return report


def analyze_policy_corpus(
    corpus: CrawlCorpus,
    near_duplicate_threshold: float = 0.95,
    short_policy_chars: int = 500,
    min_duplicate_group: int = 2,
    near_duplicate_method: str = "auto",
) -> DuplicatePolicyReport:
    """Compute duplicate, near-duplicate, and short-policy statistics for a corpus.

    The in-memory entry point over the same map (profile) / reduce
    (finalize) machinery the shard-streamed path uses, so both produce
    identical reports.  ``near_duplicate_method`` selects how near-duplicate
    candidate pairs are generated: ``"auto"`` bands MinHash signatures at
    corpus scale and scans all pairs for small inputs; either way candidates
    are verified with exact Jaccard (LSH matches the exact pair set with
    overwhelming probability — per-pair miss probability below 1e-9 at the
    threshold).
    """
    actions = corpus.unique_actions()
    action_policy_urls = {
        action_id: action.legal_info_url
        for action_id, action in actions.items()
        if action.legal_info_url
    }
    action_domains = {action_id: action.domain for action_id, action in actions.items()}

    accumulator = PolicyProfileAccumulator()
    for result in corpus.policies.values():
        accumulator.update(result)

    def fetch_normalized_texts(urls: Sequence[str]) -> Dict[str, str]:
        return {
            url: normalize_policy_text(corpus.policies[url].text) for url in urls
        }

    return finalize_duplicate_report(
        action_policy_urls,
        action_domains,
        accumulator.profiles,
        fetch_normalized_texts,
        near_duplicate_threshold=near_duplicate_threshold,
        short_policy_chars=short_policy_chars,
        min_duplicate_group=min_duplicate_group,
        near_duplicate_method=near_duplicate_method,
    )
