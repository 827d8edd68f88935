"""Tests for similarity measures and near-duplicate detection."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.nlp.similarity import (
    cosine_similarity,
    duplicate_groups,
    euclidean_distance,
    jaccard_similarity,
    near_duplicates,
    shingle_set,
    text_jaccard,
)


class TestVectorSimilarity:
    def test_cosine_identical(self):
        vector = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(vector, vector) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_cosine_zero_vector(self):
        assert cosine_similarity(np.zeros(3), np.array([1.0, 1.0, 1.0])) == 0.0

    def test_euclidean(self):
        assert euclidean_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)


class TestJaccard:
    def test_basic(self):
        assert jaccard_similarity({1, 2, 3}, {2, 3, 4}) == pytest.approx(0.5)

    def test_both_empty(self):
        assert jaccard_similarity([], []) == 1.0

    def test_disjoint(self):
        assert jaccard_similarity({1}, {2}) == 0.0

    @given(
        a=st.lists(st.integers(0, 40), max_size=40),
        b=st.lists(st.integers(0, 40), max_size=40),
    )
    def test_equals_the_union_formula_exactly(self, a, b):
        """Every input kind gives the float ``|a ∩ b| / |a ∪ b|`` of copied sets."""
        set_a, set_b = set(a), set(b)
        expected = len(set_a & set_b) / len(set_a | set_b) if set_a or set_b else 1.0
        for left, right in (
            (set_a, set_b),
            (frozenset(a), frozenset(b)),
            (a, b),
            (set_a, frozenset(b)),
            (iter(a), tuple(b)),
        ):
            assert jaccard_similarity(left, right) == expected

    def test_empty_inputs(self):
        for empty in (set(), frozenset(), [], ()):
            assert jaccard_similarity(empty, empty) == 1.0
            assert jaccard_similarity(empty, {1, 2}) == 0.0
            assert jaccard_similarity([3, 3], empty) == 0.0

    def test_inputs_are_not_modified(self):
        a, b = {1, 2, 3}, frozenset({3, 4})
        jaccard_similarity(a, b)
        assert a == {1, 2, 3} and b == frozenset({3, 4})


class TestShingles:
    def test_shingle_count(self):
        text = "one two three four five six"
        assert len(shingle_set(text, k=5)) == 2

    def test_short_text_single_shingle(self):
        assert len(shingle_set("one two", k=5)) == 1

    def test_empty(self):
        assert shingle_set("", k=5) == frozenset()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            shingle_set("text", k=0)

    def test_text_jaccard_identical(self):
        text = "we collect your email address and your name for the booking"
        assert text_jaccard(text, text) == 1.0


class TestNearDuplicates:
    def test_detects_near_duplicates(self):
        base = " ".join(f"word{i}" for i in range(200))
        variant = base.replace("word100", "changed")
        pairs = near_duplicates([base, variant, "completely different text here"], threshold=0.9)
        assert (0, 1) in {(a, b) for a, b, _ in pairs}
        assert all({a, b} != {0, 2} for a, b, _ in pairs)

    def test_exact_duplicates_have_similarity_one(self):
        text = " ".join(f"tok{i}" for i in range(30))
        pairs = near_duplicates([text, text], threshold=0.95)
        assert pairs and pairs[0][2] == pytest.approx(1.0)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            near_duplicates(["a"], threshold=0.0)

    def test_empty_texts_skipped(self):
        assert near_duplicates(["", ""], threshold=0.95) == []


class TestDuplicateGroups:
    def test_groups_identical_texts(self):
        groups = duplicate_groups(["same policy", "same  policy", "unique text"])
        assert len(groups) == 1
        assert sorted(next(iter(groups.values()))) == [0, 1]

    def test_no_groups_for_unique_texts(self):
        assert duplicate_groups(["a", "b", "c"]) == {}


@given(
    st.lists(st.integers(0, 50), max_size=30),
    st.lists(st.integers(0, 50), max_size=30),
)
def test_property_jaccard_symmetric_and_bounded(a, b):
    """Jaccard similarity is symmetric and within [0, 1]."""
    forward = jaccard_similarity(a, b)
    backward = jaccard_similarity(b, a)
    assert forward == pytest.approx(backward)
    assert 0.0 <= forward <= 1.0


@given(st.text(alphabet="abcde fgh", min_size=0, max_size=120))
def test_property_text_jaccard_self_similarity(text):
    """Every text is a perfect near-duplicate of itself."""
    assert text_jaccard(text, text) == 1.0
