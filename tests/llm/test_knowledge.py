"""Tests for the keyword knowledge base."""

import pytest

from repro.llm import knowledge as knowledge_module
from repro.llm import prompts
from repro.llm.knowledge import KeywordKnowledgeBase, VAGUE_CATEGORY_TERMS
from repro.llm.simulated import SimulatedLLM
from repro.nlp.stopwords import remove_stopwords
from repro.nlp.tokenization import normalize_text, tokenize
from repro.taxonomy.builtin import load_builtin_taxonomy
from repro.taxonomy.schema import OTHER_CATEGORY, OTHER_TYPE, DataType

#: Descriptions and policy sentences the memo tests score, with repeats,
#: case and spacing variants of one text, and non-ASCII text.
TEXTS = (
    "Email address of the user",
    "email  address of the USER",
    "The search query from the user",
    "Latitude of the location",
    "Your API key for the service",
    "Ticker symbol of the stock, e.g. AAPL",
    "zzqq xxyy blorp",
    "",
    "Café location and résumé details",
    "我们收集您的位置信息",
    "We collect your email address when you sign up.",
    "We may collect personal information that you provide.",
    "We do not collect your email address.",
    "We do not actively collect and store any personal data from users, although we use "
    "your personal data to provide the service.",
    "We collect nothing and never share your usage data.",
    "Your device information and log data are stored for 30 days.",
    "This policy is governed by the laws of the state.",
)


def reference_mentions_type(sentence, data_type):
    """The per-call normalization that the precomputed type terms replaced."""
    normalized = normalize_text(sentence)
    sentence_tokens = set(tokenize(normalized))

    def phrase_hit(phrase):
        if not phrase:
            return False
        if " " in phrase:
            return phrase in normalized
        return phrase in sentence_tokens

    for keyword in data_type.keywords:
        if phrase_hit(normalize_text(keyword)):
            return True
    if phrase_hit(normalize_text(data_type.name)):
        return True
    name_tokens = remove_stopwords(tokenize(data_type.name))
    return bool(name_tokens) and all(token in sentence_tokens for token in name_tokens)


@pytest.fixture(scope="module")
def knowledge():
    return KeywordKnowledgeBase(load_builtin_taxonomy())


class TestClassification:
    @pytest.mark.parametrize(
        ("description", "expected_category", "expected_type"),
        [
            ("Email address of the user", "Personal information", "Email address"),
            ("The search query from the user", "Query", "Search query"),
            ("Latitude of the location", "Location", "GPS coordinates"),
            ("Your API key for the service", "Security credentials", "API key"),
            ("The URL of the page to summarize", "Web and network data", "URLs"),
            ("Ticker symbol of the stock, e.g. AAPL", "Market data", "Ticker symbol"),
            ("Number of checked bags for the flight", "Travel information", "Baggage information"),
        ],
    )
    def test_common_descriptions(self, knowledge, description, expected_category, expected_type):
        category, data_type = knowledge.classify(description)
        assert category == expected_category
        assert data_type == expected_type

    def test_empty_description_is_other(self, knowledge):
        assert knowledge.classify("") == (OTHER_CATEGORY, OTHER_TYPE)

    def test_gibberish_is_other(self, knowledge):
        assert knowledge.classify("zzqq xxyy blorp")[0] == OTHER_CATEGORY

    def test_match_returns_scored_candidates(self, knowledge):
        candidates = knowledge.match("email address of the user", limit=3)
        assert candidates
        assert candidates[0].type_name == "Email address"
        assert candidates[0].score >= candidates[-1].score
        assert candidates[0].matched_terms

    def test_best_match_none_for_empty(self, knowledge):
        assert knowledge.best_match("") is None


class TestSentenceHelpers:
    def test_mentions_collection(self, knowledge):
        assert knowledge.mentions_collection("We collect your email address.")
        assert knowledge.mentions_collection("The data you provide is stored on our servers.")
        assert not knowledge.mentions_collection("Contact our support team any time.")

    def test_mentions_negation(self, knowledge):
        assert knowledge.mentions_negation("We do not collect any personal data.")
        assert knowledge.mentions_negation("Your data is never for sale.")
        assert not knowledge.mentions_negation("We collect your email address.")

    def test_affirmative_collection_outside_negation_scope(self, knowledge):
        ambiguous = (
            "We do not actively collect and store any personal data from users, although we use "
            "your personal data to provide the service."
        )
        denial = "We do not collect your email address or share it with third parties."
        assert knowledge.mentions_affirmative_collection(ambiguous)
        assert not knowledge.mentions_affirmative_collection(denial)

    def test_vague_categories(self, knowledge):
        categories = knowledge.vague_categories("We may collect personal information you provide.")
        assert "Personal information" in categories
        assert knowledge.vague_categories("The weather is nice today.") == []

    def test_sentence_mentions_type(self, knowledge):
        taxonomy = knowledge.taxonomy
        email = taxonomy.get_type("Personal information", "Email address")
        gps = taxonomy.get_type("Location", "GPS coordinates")
        sentence = "We collect your email address when you sign up."
        assert knowledge.sentence_mentions_type(sentence, email)
        assert not knowledge.sentence_mentions_type(sentence, gps)


class TestMemos:
    """Memoized answers equal the answers of a knowledge base that never saw the text."""

    def test_memoized_match_equals_fresh_match(self, knowledge):
        every = KeywordKnowledgeBase(knowledge.taxonomy)
        ranked = {text: every.match(text, limit=1000) for text in TEXTS}
        assert max(len(candidates) for candidates in ranked.values()) > 8
        for limit in (1, 5, 8):
            cold = KeywordKnowledgeBase(knowledge.taxonomy)
            expected = {text: cold.match(text, limit) for text in TEXTS}
            warm = KeywordKnowledgeBase(knowledge.taxonomy)
            for text in TEXTS + tuple(reversed(TEXTS)):
                for warm_limit in (8, 1, 5):
                    warm.match(text, warm_limit)
                assert warm.match(text, limit) == expected[text] == ranked[text][:limit], (
                    text,
                    limit,
                )

    def test_sentence_facts_equal_the_predicates(self, knowledge):
        for sentence in TEXTS:
            facts = knowledge.sentence_facts(sentence)
            assert facts.normalized == normalize_text(sentence)
            assert facts.tokens == set(tokenize(sentence))
            assert facts.negation == knowledge.mentions_negation(sentence)
            assert facts.affirmative == knowledge.mentions_affirmative_collection(sentence)
            assert knowledge.vague_categories(sentence) == list(facts.vague_categories)

    def test_type_mentions_equal_per_call_normalization(self, knowledge):
        outside = DataType(
            name="Shoe size", category="Personal information", keywords=("shoe size", "Size")
        )
        types = list(knowledge.taxonomy.iter_types()) + [outside]
        # The type-name tokens in reverse order: only the token fallback hits.
        scrambled = tuple(
            " then ".join(reversed(remove_stopwords(tokenize(data_type.name))))
            for data_type in types
        )
        for data_type in types:
            for sentence in TEXTS + scrambled:
                assert knowledge.sentence_mentions_type(sentence, data_type) == (
                    reference_mentions_type(sentence, data_type)
                ), (sentence, data_type.name)

    def test_warm_and_cold_memos_give_identical_labels(self, knowledge):
        taxonomy = knowledge.taxonomy
        statements = [{"index": index, "text": text} for index, text in enumerate(TEXTS)]
        prompts_to_ask = [
            prompts.render_consistency_prompt(
                {"category": data_type.category, "data_type": data_type.name,
                 "description": data_type.description},
                statements,
            )
            for data_type in list(taxonomy.iter_types())[::9]
        ] + [
            prompts.render_classification_prompt(
                taxonomy, [{"name_and_description": text, "examples": []} for text in TEXTS], []
            )
        ]
        warm = SimulatedLLM(knowledge_taxonomy=taxonomy)
        for prompt in prompts_to_ask:
            warm.complete_text("system", prompt)
        for prompt in prompts_to_ask:
            cold = SimulatedLLM(knowledge_taxonomy=taxonomy)
            assert warm.complete_text("system", prompt) == cold.complete_text("system", prompt)

    def test_memos_stay_under_capacity(self, knowledge, monkeypatch):
        monkeypatch.setattr(knowledge_module, "MEMO_CAPACITY", 4)
        bounded = KeywordKnowledgeBase(knowledge.taxonomy)
        fresh = KeywordKnowledgeBase(knowledge.taxonomy)
        for text in TEXTS * 2:
            assert bounded.match(text, 5) == fresh.match(text, 5)
            assert bounded.sentence_facts(text) == fresh.sentence_facts(text)
            assert len(bounded._ranked) <= 4
            assert len(bounded._sentences) <= 4


class TestVagueTermTable:
    def test_umbrella_terms_reference_real_categories(self):
        taxonomy = load_builtin_taxonomy()
        for phrase, categories in VAGUE_CATEGORY_TERMS.items():
            assert phrase == phrase.lower()
            for category in categories:
                assert taxonomy.has_category(category), (phrase, category)
