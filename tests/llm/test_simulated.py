"""Tests for the simulated LLM's task handlers."""

import json
import random

import pytest

from repro.llm import prompts
from repro.llm.base import ChatMessage
from repro.llm.simulated import SimulatedLLM
from repro.nlp.similarity import euclidean_distance
from repro.taxonomy.bootstrap import load_bootstrap_taxonomy
from repro.taxonomy.builtin import load_builtin_taxonomy


@pytest.fixture(scope="module")
def taxonomy():
    return load_builtin_taxonomy()


@pytest.fixture(scope="module")
def llm(taxonomy):
    return SimulatedLLM(knowledge_taxonomy=taxonomy, classification_error_rate=0.0,
                        consistency_error_rate=0.0, extraction_error_rate=0.0)


def ask(llm, prompt):
    return json.loads(llm.complete_text("system", prompt))


class TestClassificationTask:
    def test_classifies_known_descriptions(self, llm, taxonomy):
        prompt = prompts.render_classification_prompt(
            taxonomy,
            [
                {"name_and_description": "email address of the user", "examples": []},
                {"name_and_description": "the search query from the user", "examples": []},
            ],
            [],
        )
        response = ask(llm, prompt)
        labels = response["classifications"]
        assert labels[0] == {"category": "Personal information", "data_type": "Email address"}
        assert labels[1] == {"category": "Query", "data_type": "Search query"}

    def test_unknown_description_is_other(self, llm, taxonomy):
        prompt = prompts.render_classification_prompt(
            taxonomy, [{"name_and_description": "zzxqy unintelligible", "examples": []}], []
        )
        response = ask(llm, prompt)
        assert response["classifications"][0]["category"] == "Other"

    def test_restricted_taxonomy_forces_other(self, llm):
        bootstrap = load_bootstrap_taxonomy()
        # "Betting market to fetch odds for" belongs to Sports information,
        # which is absent from the bootstrap taxonomy.
        prompt = prompts.render_classification_prompt(
            bootstrap,
            [{"name_and_description": "The betting market to fetch odds for", "examples": []}],
            [],
        )
        response = ask(llm, prompt)
        category = response["classifications"][0]["category"]
        assert category in ("Other",) or bootstrap.has_category(category)

    def test_fewshot_example_adoption(self, llm, taxonomy):
        examples = [
            {
                "description": "script to be produced by the assistant",
                "category": "Files and documents",
                "data_type": "File content",
            }
        ]
        prompt = prompts.render_classification_prompt(
            taxonomy,
            [{"name_and_description": "script to be produced", "examples": []}],
            examples,
        )
        response = ask(llm, prompt)
        assert response["classifications"][0]["data_type"] == "File content"

    def test_category_and_type_phases(self, llm, taxonomy):
        category_prompt = prompts.render_classification_prompt(
            taxonomy,
            [{"name_and_description": "email address of the user", "examples": []}],
            [],
            phase="category",
        )
        category = ask(llm, category_prompt)["classifications"][0]["category"]
        assert category == "Personal information"
        type_prompt = prompts.render_classification_prompt(
            taxonomy,
            [{"name_and_description": "email address of the user", "examples": []}],
            [],
            phase="type",
            category="Personal information",
        )
        response = ask(llm, type_prompt)["classifications"][0]
        assert response == {"category": "Personal information", "data_type": "Email address"}


def reference_adoption(llm, description, examples):
    """The per-example few-shot loop that the distance-matrix path replaced."""
    adopted = None
    if examples and description.strip():
        query_vector = llm.embedder.embed(description)
        best_distance = float("inf")
        for example in examples:
            example_text = str(example.get("description", ""))
            if not example_text:
                continue
            distance = euclidean_distance(query_vector, llm.embedder.embed(example_text))
            if distance < best_distance:
                best_distance = distance
                adopted = (str(example.get("category", "")), str(example.get("data_type", "")))
        if adopted is not None and best_distance > 0.55:
            adopted = None
    return adopted


def classify_full(llm, taxonomy, descriptions, examples):
    prompt = prompts.render_classification_prompt(
        taxonomy,
        [{"name_and_description": text, "examples": []} for text in descriptions],
        examples,
    )
    return [
        (label["category"], label["data_type"])
        for label in ask(llm, prompt)["classifications"]
    ]


class TestFewShotAdoption:
    """The distance-matrix adoption decides exactly as the per-example loop."""

    def check_against_reference(self, llm, descriptions, examples):
        adopted = llm._fewshot_labels(descriptions, examples)
        assert adopted == [
            reference_adoption(llm, description, examples) for description in descriptions
        ]
        return adopted

    def test_duplicate_texts_first_label_wins(self, llm, taxonomy):
        examples = [
            {
                "description": "email address of the user",
                "category": "Location",
                "data_type": "City",
            },
            {
                "description": "email address of the user",
                "category": "Personal information",
                "data_type": "Email address",
            },
        ]
        descriptions = ["email address of the user", "the email address of a user"]
        adopted = self.check_against_reference(llm, descriptions, examples)
        assert adopted[0] == ("Location", "City")
        assert classify_full(llm, taxonomy, descriptions[:1], examples) == [("Location", "City")]

    def test_empty_example_texts_are_skipped(self, llm):
        examples = [
            {"description": "", "category": "Location", "data_type": "City"},
            {"description": "the city you live in", "category": "Location", "data_type": "City"},
            {"category": "Query", "data_type": "Search query"},
        ]
        descriptions = ["the city you live in", "", "   ", "zzxqy unintelligible"]
        adopted = self.check_against_reference(llm, descriptions, examples)
        assert adopted == [("Location", "City"), None, None, None]
        only_empty = [examples[0], examples[2]]
        assert self.check_against_reference(llm, descriptions, only_empty) == [None] * 4
        assert self.check_against_reference(llm, descriptions, []) == [None] * 4

    def test_no_example_within_distance_falls_back_to_knowledge(self, llm, taxonomy):
        examples = [
            {
                "description": "ticker symbol of the stock",
                "category": "Market data",
                "data_type": "Ticker symbol",
            }
        ]
        descriptions = ["email address of the user", "the search query from the user"]
        assert self.check_against_reference(llm, descriptions, examples) == [None, None]
        assert classify_full(llm, taxonomy, descriptions, examples) == [
            llm.knowledge.classify(description) for description in descriptions
        ]

    def test_seeded_pools_match_reference(self, llm, taxonomy):
        phrases = [
            phrasing for data_type in taxonomy.iter_types() for phrasing in data_type.phrasings[:2]
        ] + [data_type.name for data_type in taxonomy.iter_types()]
        rng = random.Random(13)
        for _ in range(40):
            pool = [
                {"description": rng.choice(phrases + [""]), "category": "Q", "data_type": str(i)}
                for i in range(rng.randint(0, 12))
            ]
            descriptions = [rng.choice(phrases) for _ in range(rng.randint(1, 8))]
            descriptions += [example["description"] for example in pool[:2]]
            self.check_against_reference(llm, descriptions, pool)


class TestRefinementTask:
    def test_covered_and_add_decisions(self, llm):
        bootstrap = load_bootstrap_taxonomy()
        prompt = prompts.render_refinement_prompt(
            bootstrap,
            [
                {"name_and_description": "The full name of the user", "amount_appears": 5},
                {"name_and_description": "The betting market to fetch odds for", "amount_appears": 4},
                {"name_and_description": "zzxqy unintelligible", "amount_appears": 1},
            ],
        )
        decisions = ask(llm, prompt)["decisions"]
        assert decisions[0]["action"] == "Covered"
        assert decisions[1]["action"] in ("Add", "Combine")
        assert decisions[2]["action"] == "Deprecate"


class TestExtractionTask:
    def test_collection_sentences_identified(self, llm):
        sentences = [
            "We collect your email address when you register.",
            "This policy was last updated in January 2024.",
            "We do not collect any payment information.",
        ]
        prompt = prompts.render_collection_extraction_prompt(sentences)
        indices = ask(llm, prompt)["collection_sentence_indices"]
        assert 0 in indices
        assert 2 in indices
        assert 1 not in indices


class TestConsistencyTask:
    def test_label_assignment(self, llm):
        prompt = prompts.render_consistency_prompt(
            {
                "category": "Personal information",
                "data_type": "Email address",
                "description": "A personal email address.",
            },
            [
                {"index": 0, "text": "We collect your email address when you sign up."},
                {"index": 1, "text": "We may collect personal information that you provide."},
                {"index": 2, "text": "This policy is governed by the laws of the state."},
                {"index": 3, "text": "We do not collect your email address."},
                {
                    "index": 4,
                    "text": "We do not actively collect and store any personal data from users, "
                            "although we use your personal data to provide the service.",
                },
            ],
        )
        labels = {entry["sentence_index"]: entry["label"] for entry in ask(llm, prompt)["labels"]}
        assert labels[0] == "CLEAR"
        assert labels[1] == "VAGUE"
        assert labels[2] == "OMITTED"
        assert labels[3] == "INCORRECT"
        assert labels[4] == "AMBIGUOUS"


class TestImproveTask:
    def test_breaks_draft_into_steps(self, llm):
        prompt = prompts.render_improve_prompt("Classify the data. Check the taxonomy. Respond in JSON.")
        improved = ask(llm, prompt)["improved"]
        assert "1." in improved and "2." in improved and "3." in improved


class TestClientBehaviour:
    def test_usage_accounting_and_call_count(self, taxonomy):
        llm = SimulatedLLM(knowledge_taxonomy=taxonomy)
        before = llm.call_count
        prompt = prompts.render_collection_extraction_prompt(["We collect data."])
        llm.complete([ChatMessage(role="user", content=prompt)])
        assert llm.call_count == before + 1
        assert llm.usage.total_tokens > 0

    def test_unknown_task_raises(self, llm):
        with pytest.raises(prompts.PromptError):
            llm.complete_text("system", "TASK: unknown-task\n### INPUT (JSON) ###\n{}\n### END INPUT ###")

    def test_chat_message_role_validation(self):
        with pytest.raises(ValueError):
            ChatMessage(role="wizard", content="hi")

    def test_error_injection_changes_some_labels(self, taxonomy):
        clean = SimulatedLLM(knowledge_taxonomy=taxonomy, classification_error_rate=0.0)
        noisy = SimulatedLLM(knowledge_taxonomy=taxonomy, classification_error_rate=0.5, seed=9)
        descriptions = [f"email address of user number {i}" for i in range(40)]
        prompt = prompts.render_classification_prompt(
            taxonomy,
            [{"name_and_description": text, "examples": []} for text in descriptions],
            [],
        )
        clean_labels = json.loads(clean.complete_text("s", prompt))["classifications"]
        noisy_labels = json.loads(noisy.complete_text("s", prompt))["classifications"]
        assert clean_labels != noisy_labels
