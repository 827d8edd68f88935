"""Keyword knowledge base backing the simulated LLM.

The knowledge base indexes every taxonomy data type by its keywords, phrasing
templates, and name tokens, and scores free-text data descriptions against
them.  It also carries the "umbrella term" vocabulary (e.g. *personal
information*, *usage data*) that privacy policies use when disclosing data in
broader terms — these drive the *vague* consistency label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.nlp.stopwords import remove_stopwords
from repro.nlp.tokenization import normalize_text, tokenize
from repro.taxonomy.schema import DataTaxonomy, DataType, OTHER_CATEGORY, OTHER_TYPE

#: Umbrella terms used by privacy policies to disclose data categories in
#: broader terms.  Maps a phrase to the taxonomy categories it covers.
VAGUE_CATEGORY_TERMS: Dict[str, Tuple[str, ...]] = {
    "personal information": ("Personal information", "Identifier"),
    "personal data": ("Personal information", "Identifier"),
    "personally identifiable information": ("Personal information", "Identifier"),
    "contact information": ("Personal information",),
    "contact details": ("Personal information",),
    "profile information": ("Personal information", "Identifier"),
    "demographic information": ("Personal information",),
    "usage data": ("App usage data", "Query", "Message"),
    "usage information": ("App usage data", "Query"),
    "user data": ("App usage data", "Personal information", "Query", "Message",
                  "Files and documents"),
    "interaction data": ("App usage data",),
    "analytics data": ("App usage data",),
    "log data": ("Web and network data", "App usage data"),
    "technical information": ("Web and network data", "App usage data"),
    "device information": ("Identifier", "Web and network data"),
    "location information": ("Location",),
    "location data": ("Location",),
    "geolocation data": ("Location",),
    "financial information": ("Finance information", "Market data", "E-commerce data"),
    "payment information": ("Finance information", "E-commerce data"),
    "health information": ("Health information",),
    "health data": ("Health information",),
    "authentication information": ("Security credentials",),
    "credentials": ("Security credentials",),
    "account information": ("Identifier", "Security credentials", "Personal information"),
    "communications": ("Message",),
    "messages you send": ("Message",),
    "content you provide": ("Files and documents", "Message", "Query"),
    "information you provide": ("Personal information", "Query", "Message",
                                "Files and documents"),
    "user content": ("Files and documents", "Message", "Query"),
    "search information": ("Query",),
    "query data": ("Query",),
    "browsing data": ("Web and network data",),
    "network information": ("Web and network data",),
    "identifiers": ("Identifier",),
    "metadata": ("App metadata", "Files and documents"),
    "preference information": ("App usage data", "Food and nutrition information"),
    "travel details": ("Travel information", "Location"),
    "vehicle data": ("Vehicle information", "Identifier"),
    "employment information": ("Personal information",),
    "shopping information": ("E-commerce data",),
    "transaction information": ("E-commerce data", "Finance information"),
    "legal information": ("Legal and law enforcement data",),
    "gaming information": ("Gaming data",),
    "sports data": ("Sports information",),
    "weather data": ("Weather information",),
    "dietary information": ("Food and nutrition information", "Health information"),
    "property information": ("Real estate data",),
    "calendar information": ("Event information", "Time"),
    "temporal information": ("Time",),
    "file information": ("Files and documents",),
    "documents you upload": ("Files and documents",),
    "market information": ("Market data",),
}

#: Phrases indicating that a sentence talks about *collecting* data.
COLLECTION_VERBS: Tuple[str, ...] = (
    "collect", "collects", "collected", "collecting",
    "store", "stores", "stored", "storing",
    "process", "processes", "processed", "processing",
    "receive", "receives", "received",
    "obtain", "obtains", "obtained",
    "gather", "gathers", "gathered",
    "record", "records", "recorded",
    "retain", "retains", "retained",
    "use", "uses", "used",
    "share", "shares", "shared",
    "transmit", "transmits", "transmitted",
    "access", "accesses", "accessed",
    "request", "requests", "requested",
    "log", "logs", "logged",
    "save", "saves", "saved",
    "capture", "captures", "captured",
    "hold", "provide to us", "submit",
)

#: Phrases indicating negation of collection.
NEGATION_MARKERS: Tuple[str, ...] = (
    "do not collect", "does not collect", "don't collect", "doesn't collect",
    "do not store", "does not store", "don't store",
    "never collect", "never store", "never sell", "never share",
    "not collected", "not stored", "no data is collected", "no personal data",
    "we do not actively collect", "will not collect", "without collecting",
    "not for sale", "never for sale", "do not share", "does not share",
    "do not retain", "does not retain", "do not save", "not collect our customer",
    "does not store", "never share", "do not share anything", "does not collect any",
)

#: Bound of each per-instance memo of :class:`KeywordKnowledgeBase` (ranked
#: candidates per normalized description, facts per sentence).  Descriptions
#: and policy sentences repeat heavily within a run, so each distinct text is
#: scored once.  Wholesale-cleared at capacity, like
#: ``SentenceEmbedder.TEXT_CACHE_CAPACITY``.
MEMO_CAPACITY = 1 << 14


@dataclass(frozen=True)
class MatchCandidate:
    """A scored taxonomy match for a free-text description."""

    data_type: DataType
    score: float
    matched_terms: Tuple[str, ...] = ()

    @property
    def category(self) -> str:
        """The candidate's category name."""
        return self.data_type.category

    @property
    def type_name(self) -> str:
        """The candidate's data-type name."""
        return self.data_type.name


class SentenceFacts(NamedTuple):
    """What the consistency labeller asks of one policy sentence."""

    normalized: str
    tokens: FrozenSet[str]
    vague_categories: Tuple[str, ...]
    negation: bool
    affirmative: bool


class _MentionTerms(NamedTuple):
    """A data type's normalized terms, as :meth:`sentence_mentions_type` tests them."""

    phrases: Tuple[str, ...]
    words: FrozenSet[str]
    name_tokens: FrozenSet[str]


def _mention_terms(data_type: DataType) -> _MentionTerms:
    terms = [normalize_text(keyword) for keyword in data_type.keywords]
    terms.append(normalize_text(data_type.name))
    return _MentionTerms(
        phrases=tuple(term for term in terms if " " in term),
        words=frozenset(term for term in terms if term and " " not in term),
        name_tokens=frozenset(remove_stopwords(tokenize(data_type.name))),
    )


class KeywordKnowledgeBase:
    """Scores free-text data descriptions against taxonomy data types.

    Scoring is purely lexical: exact keyword-phrase hits score highest, token
    overlap with keywords / type names / descriptions scores lower.  The
    knowledge base is intentionally imperfect — short, empty, or multi-topic
    descriptions score poorly, which is exactly the behaviour the paper's
    mistake analysis attributes to the real LLM (Section 4.1.2).

    The index, and the memos of :meth:`match` and :meth:`sentence_facts`,
    reflect the taxonomy as it was when the knowledge base was built.
    """

    #: Minimum score for a match to be considered at all.
    MIN_SCORE = 0.9

    def __init__(self, taxonomy: DataTaxonomy) -> None:
        self.taxonomy = taxonomy
        self._phrase_index: List[Tuple[str, DataType, float]] = []
        self._token_index: Dict[str, List[Tuple[DataType, float]]] = {}
        self._type_terms: Dict[DataType, _MentionTerms] = {}
        self._ranked: Dict[str, Tuple[MatchCandidate, ...]] = {}
        self._sentences: Dict[str, SentenceFacts] = {}
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        # token -> {type key -> (weight, data type)}; a token contributes at
        # most once per data type (its highest weight), otherwise types with
        # many keyword variants of the same word would dominate scoring.
        token_weights: Dict[str, Dict[Tuple[str, str], Tuple[float, DataType]]] = {}

        def add_token(token: str, data_type: DataType, weight: float) -> None:
            per_type = token_weights.setdefault(token, {})
            existing = per_type.get(data_type.key)
            if existing is None or existing[0] < weight:
                per_type[data_type.key] = (weight, data_type)

        for data_type in self.taxonomy.iter_types():
            if data_type.is_other:
                continue
            seen_phrases = set()
            for keyword in data_type.keywords:
                phrase = normalize_text(keyword)
                if not phrase or phrase in seen_phrases:
                    continue
                seen_phrases.add(phrase)
                weight = 3.0 if " " in phrase else 2.0
                self._phrase_index.append((phrase, data_type, weight))
                for token in remove_stopwords(tokenize(phrase)):
                    add_token(token, data_type, 1.0)
            name_phrase = normalize_text(data_type.name)
            if name_phrase and name_phrase not in seen_phrases:
                self._phrase_index.append((name_phrase, data_type, 2.5))
            for token in remove_stopwords(tokenize(data_type.name)):
                add_token(token, data_type, 0.8)
            for token in remove_stopwords(tokenize(data_type.description)):
                add_token(token, data_type, 0.25)

        for token, per_type in token_weights.items():
            self._token_index[token] = [
                (data_type, weight) for weight, data_type in per_type.values()
            ]
        # Longest phrases first so that multi-word hits shadow their substrings.
        self._phrase_index.sort(key=lambda item: len(item[0]), reverse=True)

    # ------------------------------------------------------------------
    def match(self, description: str, limit: int = 5) -> List[MatchCandidate]:
        """Return up to ``limit`` scored taxonomy candidates for a description."""
        normalized = normalize_text(description)
        if not normalized:
            return []
        ranked = self._ranked.get(normalized)
        if ranked is None:
            if len(self._ranked) >= MEMO_CAPACITY:
                self._ranked.clear()
            ranked = self._ranked[normalized] = self._rank(normalized)
        return list(ranked[:limit])

    def _rank(self, normalized: str) -> Tuple[MatchCandidate, ...]:
        """Every candidate scoring at least :attr:`MIN_SCORE`, best first."""
        scores: Dict[Tuple[str, str], float] = {}
        matched: Dict[Tuple[str, str], List[str]] = {}
        description_tokens = set(tokenize(normalized))
        for phrase, data_type, weight in self._phrase_index:
            if not phrase:
                continue
            if " " in phrase:
                hit = phrase in normalized
            else:
                # Single-word keywords must match whole tokens, otherwise e.g.
                # "age" would fire inside "page".
                hit = phrase in description_tokens
            if hit:
                key = data_type.key
                scores[key] = scores.get(key, 0.0) + weight
                matched.setdefault(key, []).append(phrase)
        tokens = remove_stopwords(tokenize(normalized))
        for token in tokens:
            for data_type, weight in self._token_index.get(token, ()):
                key = data_type.key
                scores[key] = scores.get(key, 0.0) + weight
                matched.setdefault(key, []).append(token)
        candidates: List[MatchCandidate] = []
        for key, score in scores.items():
            if score < self.MIN_SCORE:
                continue
            data_type = self.taxonomy.get_type(*key)
            if data_type is None:
                continue
            candidates.append(
                MatchCandidate(
                    data_type=data_type,
                    score=score,
                    matched_terms=tuple(dict.fromkeys(matched.get(key, ()))),
                )
            )
        candidates.sort(key=lambda candidate: (-candidate.score, candidate.type_name))
        return tuple(candidates)

    def best_match(self, description: str) -> Optional[MatchCandidate]:
        """The single best candidate, or ``None`` when nothing matches."""
        candidates = self.match(description, limit=1)
        return candidates[0] if candidates else None

    def classify(self, description: str) -> Tuple[str, str]:
        """Classify a description to ``(category, type)`` or ``(Other, Other)``."""
        best = self.best_match(description)
        if best is None:
            return (OTHER_CATEGORY, OTHER_TYPE)
        return (best.category, best.type_name)

    # ------------------------------------------------------------------
    def sentence_facts(self, sentence: str) -> SentenceFacts:
        """The sentence-level predicates of a sentence, computed once per sentence."""
        facts = self._sentences.get(sentence)
        if facts is None:
            normalized = normalize_text(sentence)
            categories: List[str] = []
            for phrase, covered in VAGUE_CATEGORY_TERMS.items():
                if phrase in normalized:
                    for category in covered:
                        if category not in categories:
                            categories.append(category)
            if len(self._sentences) >= MEMO_CAPACITY:
                self._sentences.clear()
            facts = self._sentences[sentence] = SentenceFacts(
                normalized=normalized,
                tokens=frozenset(tokenize(normalized)),
                vague_categories=tuple(categories),
                negation=self.mentions_negation(sentence),
                affirmative=self.mentions_affirmative_collection(sentence),
            )
        return facts

    def vague_categories(self, sentence: str) -> List[str]:
        """Categories covered by umbrella terms mentioned in a sentence."""
        return list(self.sentence_facts(sentence).vague_categories)

    #: Nouns that indicate a sentence is talking about data (used to filter
    #: out sentences that merely contain a generic verb like "use").
    DATA_NOUNS: Tuple[str, ...] = (
        "data", "information", "content", "record", "records", "detail", "details",
        "address", "email", "name", "history", "identifier", "identifiers", "query",
        "queries", "message", "messages", "document", "documents", "file", "files",
        "location", "profile", "credentials", "password", "token", "cookie", "cookies",
        "logs", "metadata", "statistics", "analytics", "input",
    )

    @classmethod
    def mentions_collection(cls, sentence: str) -> bool:
        """Whether a sentence plausibly talks about collecting/processing data.

        Requires both a collection verb and either a second-person reference
        ("you"/"your") or a data-referring noun, so that sentences like
        "Children under 13 are not permitted to use the service" do not count.
        """
        normalized = normalize_text(sentence)
        tokens = set(tokenize(normalized))
        has_verb = False
        for verb in COLLECTION_VERBS:
            if " " in verb:
                if verb in normalized:
                    has_verb = True
                    break
            elif verb in tokens:
                has_verb = True
                break
        if not has_verb:
            return False
        if tokens & {"you", "your", "yours", "users", "user"}:
            return True
        return bool(tokens & set(cls.DATA_NOUNS))

    @staticmethod
    def mentions_negation(sentence: str) -> bool:
        """Whether a sentence negates data collection."""
        normalized = normalize_text(sentence)
        return any(marker in normalized for marker in NEGATION_MARKERS)

    @staticmethod
    def mentions_affirmative_collection(sentence: str, negation_window: int = 8) -> bool:
        """Whether a sentence contains a collection verb outside negation scope.

        A collection verb is considered negated when a negator (*not*, *never*,
        *no*, …) appears within ``negation_window`` tokens before it.  This
        distinguishes genuinely contradictory statements ("we do not collect X,
        although we use your X …", ambiguous) from plain denials ("we do not
        collect X or share it", incorrect).
        """
        tokens = tokenize(sentence)
        negators = {"not", "never", "no", "don't", "doesn't", "won't", "cannot", "without", "nor"}
        negator_positions = [index for index, token in enumerate(tokens) if token in negators]
        single_verbs = {verb for verb in COLLECTION_VERBS if " " not in verb}
        for index, token in enumerate(tokens):
            if token not in single_verbs:
                continue
            negated = any(
                0 <= index - position <= negation_window for position in negator_positions
            )
            if not negated:
                return True
        return False

    def sentence_mentions_type(self, sentence: str, data_type: DataType) -> bool:
        """Whether a sentence explicitly mentions a specific data type.

        A keyword or the type name counts as a whole-token hit when it is one
        word, as a substring hit otherwise.
        """
        facts = self.sentence_facts(sentence)
        terms = self._type_terms.get(data_type)
        if terms is None:
            terms = self._type_terms[data_type] = _mention_terms(data_type)
        if not terms.words.isdisjoint(facts.tokens):
            return True
        if any(phrase in facts.normalized for phrase in terms.phrases):
            return True
        # Token-level fallback: every content token of the type name appears.
        return bool(terms.name_tokens) and terms.name_tokens <= facts.tokens
