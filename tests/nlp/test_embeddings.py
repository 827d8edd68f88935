"""Tests for hashed sentence embeddings and the nearest-neighbour index."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nlp.embeddings import EmbeddingIndex, SentenceEmbedder
from repro.taxonomy.builtin import load_builtin_taxonomy


@pytest.fixture(scope="module")
def embedder():
    return SentenceEmbedder()


class TestSentenceEmbedder:
    def test_dimensions(self, embedder):
        vector = embedder.embed("email address of the user")
        assert vector.shape == (embedder.dimensions,)

    def test_unit_norm_for_nonempty(self, embedder):
        vector = embedder.embed("email address of the user")
        assert np.isclose(np.linalg.norm(vector), 1.0)

    def test_empty_text_is_zero_vector(self, embedder):
        assert np.linalg.norm(embedder.embed("")) == 0.0

    def test_deterministic(self, embedder):
        a = embedder.embed("search query from the user")
        b = embedder.embed("search query from the user")
        assert np.array_equal(a, b)

    def test_similar_texts_closer_than_dissimilar(self, embedder):
        email_a = embedder.embed("email address of the user")
        email_b = embedder.embed("the user's email address")
        weather = embedder.embed("number of forecast days to return")
        assert np.linalg.norm(email_a - email_b) < np.linalg.norm(email_a - weather)

    def test_embed_many_shape(self, embedder):
        matrix = embedder.embed_many(["a", "b", "c"])
        assert matrix.shape == (3, embedder.dimensions)
        assert embedder.embed_many([]).shape == (0, embedder.dimensions)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            SentenceEmbedder(dimensions=0)

    def test_features_include_words_and_char_ngrams(self, embedder):
        features = embedder.features("email address")
        assert any(key.startswith("w:") for key in features)
        assert any(key.startswith("c:") for key in features)


class TestEmbeddingIndex:
    def test_query_returns_nearest_first(self):
        index = EmbeddingIndex()
        index.add("email address of the user", "email")
        index.add("the city to search in", "city")
        index.add("latitude of the location", "gps")
        results = index.query("user email address", k=2)
        assert results[0][1] == "email"
        assert len(results) == 2

    def test_query_payloads(self):
        index = EmbeddingIndex()
        index.add_many([("alpha text", 1), ("beta text", 2)])
        assert set(index.query_payloads("alpha text", k=2)) == {1, 2}

    def test_empty_index(self):
        index = EmbeddingIndex()
        assert index.query("anything", k=3) == []
        assert len(index) == 0

    def test_invalid_k(self):
        index = EmbeddingIndex()
        index.add("x", None)
        with pytest.raises(ValueError):
            index.query("x", k=0)

    def test_distances_sorted(self):
        index = EmbeddingIndex()
        for text in ("one two three", "four five six", "one two seven"):
            index.add(text, text)
        results = index.query("one two three", k=3)
        distances = [distance for _, _, distance in results]
        assert distances == sorted(distances)


@settings(max_examples=25)
@given(st.text(alphabet="abcdefg hij", min_size=1, max_size=40))
@pytest.mark.filterwarnings("ignore")
def test_property_embedding_norm_at_most_one(text):
    """Embeddings are unit-length (or zero for content-free input)."""
    vector = SentenceEmbedder(dimensions=128).embed(text)
    norm = np.linalg.norm(vector)
    assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0


class TestBatchedEmbedding:
    """The vectorized batch paths must match the per-text paths exactly."""

    def test_embed_many_matches_looped_embed(self, embedder):
        texts = [
            "email address of the user",
            "",
            "the city to search in",
            "email address of the user",  # repeated: exercises the hash cache
            "latitude and longitude of the location",
        ]
        batched = embedder.embed_many(texts)
        looped = np.vstack([embedder.embed(text) for text in texts])
        assert np.array_equal(batched, looped)

    def test_embed_many_rows_equal_embed_on_taxonomy_phrasings(self):
        # Few-shot adoption compares distances between rows of both paths,
        # so equal-to-the-last-bit rows keep its ties and threshold exact.
        texts = [
            phrasing
            for data_type in load_builtin_taxonomy().iter_types()
            for phrasing in data_type.phrasings
        ]
        embedder = SentenceEmbedder()
        batched = embedder.embed_many(texts)
        assert len(texts) > 200
        for row, text in zip(batched, texts):
            assert np.array_equal(row, embedder.embed(text)), text

    def test_add_many_matches_incremental_adds(self):
        texts = ["alpha beta", "gamma delta", "epsilon zeta", "alpha beta"]
        bulk = EmbeddingIndex()
        bulk.add_many([(text, i) for i, text in enumerate(texts)])
        incremental = EmbeddingIndex()
        for i, text in enumerate(texts):
            incremental.add(text, i)
        assert len(bulk) == len(incremental) == len(texts)
        assert np.array_equal(bulk.vectors, incremental.vectors)

    def test_query_many_matches_query(self):
        index = EmbeddingIndex()
        index.add_many(
            [(f"description about topic{i} and detail{i % 7}", i) for i in range(60)]
        )
        for text in ("late entry one", "late entry two"):
            index.add(text, text)
        queries = [f"description about topic{i}" for i in range(10)] + ["late entry one"]
        batched = index.query_many(queries, k=5)
        for query, batch_result in zip(queries, batched):
            single_result = index.query(query, k=5)
            # Same set of neighbours and the same distance ranking; items at
            # tied distances may swap ranks between the two BLAS code paths.
            assert {p for _, p, _ in batch_result} == {p for _, p, _ in single_result}
            assert np.allclose(
                [d for _, _, d in batch_result],
                [d for _, _, d in single_result],
                atol=1e-6,
            )

    def test_query_many_empty_cases(self):
        index = EmbeddingIndex()
        assert index.query_many(["anything"], k=3) == [[]]
        index.add("content", 1)
        assert index.query_many([], k=3) == []
        with pytest.raises(ValueError):
            index.query_many(["x"], k=0)

    def test_incremental_growth_preserves_order(self):
        index = EmbeddingIndex()
        for i in range(20):  # crosses several capacity doublings
            index.add(f"text number {i}", i)
        results = index.query("text number 7", k=1)
        assert results[0][1] == 7

    def test_vectors_view_shape(self):
        index = EmbeddingIndex()
        index.add_many([("a b c", 1), ("d e f", 2)])
        assert index.vectors.shape == (2, index.embedder.dimensions)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.text(alphabet="abcdefg hij", max_size=30), max_size=8))
@pytest.mark.filterwarnings("ignore")
def test_property_embed_many_identical_to_embed(texts):
    """Vectorized embed_many equals the per-text loop on arbitrary input."""
    embedder = SentenceEmbedder(dimensions=64)
    batched = embedder.embed_many(texts)
    assert batched.shape == (len(texts), 64)
    for row, text in zip(batched, texts):
        assert np.array_equal(row, embedder.embed(text))


def test_config_mutation_invalidates_text_cache():
    """Mutating a config field after embedding must not serve stale vectors."""
    embedder = SentenceEmbedder(dimensions=64)
    before = embedder.embed("hello world")
    embedder.char_weight = 99.0
    after = embedder.embed("hello world")
    assert not np.allclose(before, after)
    fresh = SentenceEmbedder(dimensions=64, char_weight=99.0).embed("hello world")
    assert np.allclose(after, fresh)


def test_top_k_breaks_distance_ties_by_insertion_order():
    """Duplicate texts at the k boundary are selected first-inserted-first."""
    index = EmbeddingIndex()
    for i in range(50):
        index.add(f"unrelated filler text number {i}", f"filler{i}")
    for i in range(6):
        index.add("email address", f"dup{i}")
    payloads = [payload for _, payload, _ in index.query("email address", k=3)]
    assert payloads == ["dup0", "dup1", "dup2"]
    batched = index.query_many(["email address"], k=3)[0]
    assert [payload for _, payload, _ in batched] == ["dup0", "dup1", "dup2"]
