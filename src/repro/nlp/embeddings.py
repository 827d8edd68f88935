"""Hashed sentence embeddings and a nearest-neighbour index.

The paper uses Sentence-BERT embeddings with Euclidean distance to retrieve
the top-5 most relevant few-shot examples for a data description
(Section 3.2.3).  Offline we replace SBERT with a deterministic hashed
bag-of-features embedding: word tokens (stopword-filtered, sub-linearly
weighted) plus character trigrams are hashed into a fixed-dimension vector and
L2-normalized.  This preserves the property the framework relies on —
semantically/lexically similar descriptions land close together — while
staying dependency-free and reproducible.

The implementation is batch-first: :meth:`SentenceEmbedder.embed_many` builds
one ``(n_texts, dimensions)`` matrix with a single scatter-add instead of a
per-text Python loop, feature hashes are memoized in a process-wide bounded
cache, and :class:`EmbeddingIndex` grows its matrix incrementally and answers
whole batches of queries with one matrix product (:meth:`EmbeddingIndex.query_many`).

Word tokens and character n-grams are both derived from the *normalized* text
(one :func:`~repro.nlp.tokenization.normalize_text` pass per input).  Because
normalization is idempotent, the resulting features — and therefore the
embeddings — are identical to the historical per-call normalization; the text
is simply normalized once instead of twice.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nlp.stopwords import remove_stopwords
from repro.nlp.tokenization import (
    char_ngrams_normalized,
    normalize_text,
    tokenize_normalized,
)


def _stable_hash(token: str) -> int:
    """A stable (process-independent) 64-bit hash of a token."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class _BoundedFeatureCache:
    """A bounded ``feature -> (index, sign)`` cache for one dimensionality.

    Feature strings repeat heavily across a corpus (shared vocabulary, shared
    character trigrams), so memoizing the blake2b hash avoids the dominant
    per-feature cost.  Word tokens and character n-grams are kept in separate
    maps keyed by the *raw* token/gram, so cache hits skip building the
    namespaced ``w:``/``c:`` feature strings entirely.  Both maps are
    wholesale-cleared when their combined size reaches ``capacity`` — O(1)
    eviction with a bounded memory footprint, and the common corpora stay far
    below the bound.
    """

    __slots__ = ("dimensions", "capacity", "words", "grams")

    def __init__(self, dimensions: int, capacity: int = 1 << 20) -> None:
        self.dimensions = dimensions
        self.capacity = capacity
        self.words: Dict[str, Tuple[int, float]] = {}
        self.grams: Dict[str, Tuple[int, float]] = {}

    def __len__(self) -> int:
        return len(self.words) + len(self.grams)

    def _entry(self, feature: str) -> Tuple[int, float]:
        hashed = _stable_hash(feature)
        if len(self) >= self.capacity:
            self.words.clear()
            self.grams.clear()
        return (hashed % self.dimensions, 1.0 if (hashed >> 63) & 1 == 0 else -1.0)

    def word(self, token: str) -> Tuple[int, float]:
        entry = self.words.get(token)
        if entry is None:
            entry = self.words[token] = self._entry(f"w:{token}")
        return entry

    def gram(self, gram: str) -> Tuple[int, float]:
        entry = self.grams.get(gram)
        if entry is None:
            entry = self.grams[gram] = self._entry(f"c:{gram}")
        return entry


#: Process-wide caches, keyed by embedding dimensionality (the hashed index
#: depends on it).  All embedders with equal ``dimensions`` share one cache.
_FEATURE_CACHES: Dict[int, _BoundedFeatureCache] = {}


def _feature_cache(dimensions: int) -> _BoundedFeatureCache:
    cache = _FEATURE_CACHES.get(dimensions)
    if cache is None:
        cache = _FEATURE_CACHES[dimensions] = _BoundedFeatureCache(dimensions)
    return cache


@dataclass
class SentenceEmbedder:
    """Embeds short texts into fixed-dimension hashed feature vectors.

    Parameters
    ----------
    dimensions:
        Size of the embedding vector.
    char_ngram_size:
        Size of the character n-grams mixed into the representation (set to 0
        to disable character features).
    char_weight:
        Relative weight of character n-gram features versus word features.
    use_stopwords:
        Whether to drop stopwords before hashing word tokens.
    """

    dimensions: int = 512
    char_ngram_size: int = 3
    char_weight: float = 0.5
    use_stopwords: bool = True

    #: Bound of the per-instance text -> feature-array memo.  Data
    #: descriptions repeat heavily in real crawls (boilerplate parameter
    #: descriptions), so memoizing whole texts removes the extraction cost
    #: for every repeat.  Wholesale-cleared at capacity, like the feature
    #: cache.  Per instance because the arrays depend on every config knob.
    TEXT_CACHE_CAPACITY = 1 << 16

    def __post_init__(self) -> None:
        if self.dimensions <= 0:
            raise ValueError("dimensions must be positive")
        self._text_cache: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}

    def __setattr__(self, name: str, value: object) -> None:
        # Cached feature arrays depend on every config field; drop them when
        # a field is mutated after construction so one instance never mixes
        # two embedding spaces.
        if "_text_cache" in self.__dict__:
            self._text_cache.clear()
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    @staticmethod
    def _count_weight(count: int) -> float:
        """Sub-linear weight of a feature occurring ``count`` times."""
        return 1.0 if count == 1 else 1.0 + math.log(count)

    def _extract_counts(self, text: str) -> Tuple[Counter, Counter]:
        """Word-token and character-n-gram counts of a text.

        Both are computed on the normalized text (single normalization pass;
        the features are unchanged because normalization is idempotent).
        Single source of truth for :meth:`features` and the hashed hot path.
        """
        normalized = normalize_text(text)
        tokens = tokenize_normalized(normalized)
        if self.use_stopwords:
            content_tokens = remove_stopwords(tokens)
            if content_tokens:
                tokens = content_tokens
        gram_counts: Counter = Counter()
        if self.char_ngram_size > 0:
            gram_counts = Counter(char_ngrams_normalized(normalized, self.char_ngram_size))
        return Counter(tokens), gram_counts

    def features(self, text: str) -> Dict[str, float]:
        """Extract weighted features (word tokens + char n-grams) from text."""
        word_counts, gram_counts = self._extract_counts(text)
        weights: Dict[str, float] = {}
        for token, count in word_counts.items():
            weights[f"w:{token}"] = self._count_weight(count)
        for gram, count in gram_counts.items():
            weights[f"c:{gram}"] = self.char_weight * self._count_weight(count)
        return weights

    def _feature_arrays(self, text: str) -> Tuple[np.ndarray, np.ndarray]:
        """Hashed feature ``(indices, signed weights)`` arrays for one text.

        Fused feature extraction + cache lookup: produces exactly the hashed
        form of :meth:`features` (same values, same ordering) without
        materializing the namespaced feature strings on cache hits.  Whole
        texts are memoized too (callers must not mutate the returned arrays).
        """
        cached = self._text_cache.get(text)
        if cached is not None:
            return cached
        cache = _feature_cache(self.dimensions)
        word_counts, gram_counts = self._extract_counts(text)
        entries: List[Tuple[int, float]] = []
        values: List[float] = []
        count_weight = self._count_weight
        words_get = cache.words.get
        word_miss = cache.word
        for token, count in word_counts.items():
            entry = words_get(token)
            entries.append(entry if entry is not None else word_miss(token))
            values.append(count_weight(count))
        grams_get = cache.grams.get
        gram_miss = cache.gram
        char_weight = self.char_weight
        for gram, count in gram_counts.items():
            entry = grams_get(gram)
            entries.append(entry if entry is not None else gram_miss(gram))
            values.append(char_weight * count_weight(count))
        if entries:
            indices, signs = zip(*entries)
            result = (
                np.asarray(indices, dtype=np.intp),
                np.asarray(signs, dtype=np.float64) * np.asarray(values, dtype=np.float64),
            )
        else:
            result = (np.asarray([], dtype=np.intp), np.asarray([], dtype=np.float64))
        if len(self._text_cache) >= self.TEXT_CACHE_CAPACITY:
            self._text_cache.clear()
        self._text_cache[text] = result
        return result

    def embed(self, text: str) -> np.ndarray:
        """Embed a single text into a unit-length vector."""
        vector = np.zeros(self.dimensions, dtype=np.float64)
        indices, values = self._feature_arrays(text)
        np.add.at(vector, indices, values)
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
        return vector

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """Embed a batch of texts into a ``(len(texts), dimensions)`` matrix.

        One scatter-add (``np.add.at``) over precomputed ``(row, column,
        weight)`` arrays builds the whole matrix; rows are then L2-normalized
        in one vectorized pass.  Each row's norm is the ``ddot`` that
        :func:`numpy.linalg.norm` takes of a single vector, so rows equal
        per-text :meth:`embed` bit for bit.
        """
        matrix = np.zeros((len(texts), self.dimensions), dtype=np.float64)
        if not texts:
            return matrix
        arrays = [self._feature_arrays(text) for text in texts]
        lengths = np.fromiter(
            (indices.size for indices, _ in arrays), dtype=np.intp, count=len(arrays)
        )
        if lengths.sum():
            np.add.at(
                matrix,
                (
                    np.repeat(np.arange(len(texts), dtype=np.intp), lengths),
                    np.concatenate([indices for indices, _ in arrays]),
                ),
                np.concatenate([values for _, values in arrays]),
            )
        norms = np.sqrt(np.vecdot(matrix, matrix))
        nonzero = norms > 0
        matrix[nonzero] /= norms[nonzero, np.newaxis]
        return matrix


class EmbeddingIndex:
    """A brute-force nearest-neighbour index over embedded texts.

    Supports Euclidean-distance retrieval as used for few-shot example
    selection (smaller distance ⇒ higher semantic similarity).  Vectors are
    stored in a single capacity-doubling matrix (no rebuild on ``add``), and
    batched queries (:meth:`query_many`) compute every pairwise distance with
    one matrix product.
    """

    def __init__(self, embedder: Optional[SentenceEmbedder] = None) -> None:
        self.embedder = embedder or SentenceEmbedder()
        self._texts: List[str] = []
        self._payloads: List[object] = []
        self._matrix = np.zeros((0, self.embedder.dimensions), dtype=np.float64)
        self._sqnorms = np.zeros(0, dtype=np.float64)
        self._size = 0

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        capacity = self._matrix.shape[0]
        if needed <= capacity:
            return
        new_capacity = max(needed, capacity * 2, 8)
        matrix = np.zeros((new_capacity, self.embedder.dimensions), dtype=np.float64)
        matrix[: self._size] = self._matrix[: self._size]
        self._matrix = matrix
        sqnorms = np.zeros(new_capacity, dtype=np.float64)
        sqnorms[: self._size] = self._sqnorms[: self._size]
        self._sqnorms = sqnorms

    def add(self, text: str, payload: object = None) -> None:
        """Add a text (with an arbitrary payload) to the index."""
        vector = self.embedder.embed(text)
        self._reserve(1)
        self._matrix[self._size] = vector
        self._sqnorms[self._size] = float(vector @ vector)
        self._texts.append(text)
        self._payloads.append(payload)
        self._size += 1

    def add_many(self, items: Sequence[Tuple[str, object]]) -> None:
        """Add many ``(text, payload)`` pairs with one batched embedding pass."""
        if not items:
            return
        texts = [text for text, _ in items]
        vectors = self.embedder.embed_many(texts)
        self._reserve(len(items))
        self._matrix[self._size : self._size + len(items)] = vectors
        self._sqnorms[self._size : self._size + len(items)] = np.einsum(
            "ij,ij->i", vectors, vectors
        )
        self._texts.extend(texts)
        self._payloads.extend(payload for _, payload in items)
        self._size += len(items)

    def __len__(self) -> int:
        return self._size

    @property
    def vectors(self) -> np.ndarray:
        """A read-only view of the stored embedding matrix (``(len(self), dims)``).

        Writes must go through :meth:`add`/:meth:`add_many` so the cached
        squared norms stay consistent with the rows.
        """
        view = self._matrix[: self._size]
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    def _top_k(self, squared: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the ``k`` smallest entries, ties by index.

        ``argpartition`` finds the k-th smallest value in O(n); the selection
        is then rebuilt as "everything strictly closer, plus the
        lowest-indexed entries at exactly the boundary value", so entries at
        tied distances (e.g. duplicate texts) are chosen by insertion order —
        matching a stable full sort.  Only the k winners are ordered
        (distance, then insertion index) and square-rooted.
        """
        if k < squared.size:
            boundary = squared[np.argpartition(squared, k - 1)[k - 1]]
            closer = np.flatnonzero(squared < boundary)
            ties = np.flatnonzero(squared == boundary)
            candidates = np.concatenate([closer, ties[: k - closer.size]])
        else:
            candidates = np.arange(squared.size)
        order = candidates[np.lexsort((candidates, squared[candidates]))]
        return order, np.sqrt(np.maximum(squared[order], 0.0))

    def query(self, text: str, k: int = 5) -> List[Tuple[str, object, float]]:
        """Return the ``k`` nearest items as ``(text, payload, distance)`` tuples."""
        if k <= 0:
            raise ValueError("k must be positive")
        if self._size == 0:
            return []
        vector = self.embedder.embed(text)
        squared = (
            self._sqnorms[: self._size]
            - 2.0 * (self._matrix[: self._size] @ vector)
            + float(vector @ vector)
        )
        order, distances = self._top_k(squared, k)
        return [
            (self._texts[i], self._payloads[i], float(distance))
            for i, distance in zip(order, distances)
        ]

    def query_many(
        self, texts: Sequence[str], k: int = 5
    ) -> List[List[Tuple[str, object, float]]]:
        """Batched :meth:`query`: one matrix product answers every text.

        Returns one result list per input text, matching what :meth:`query`
        returns for that text up to floating-point tie-breaking (items at
        bit-identical distances may swap ranks between the two code paths).
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if not texts:
            return []
        if self._size == 0:
            return [[] for _ in texts]
        queries = self.embedder.embed_many(texts)
        squared = (
            self._sqnorms[np.newaxis, : self._size]
            - 2.0 * (queries @ self._matrix[: self._size].T)
            + np.einsum("ij,ij->i", queries, queries)[:, np.newaxis]
        )
        results: List[List[Tuple[str, object, float]]] = []
        for row in squared:
            order, distances = self._top_k(row, k)
            results.append(
                [
                    (self._texts[i], self._payloads[i], float(distance))
                    for i, distance in zip(order, distances)
                ]
            )
        return results

    def query_payloads(self, text: str, k: int = 5) -> List[object]:
        """Return only the payloads of the ``k`` nearest items."""
        return [payload for _, payload, _ in self.query(text, k)]
