"""Tests for prompt rendering and response parsing."""

import json
import random

import pytest

from repro.llm import prompts
from repro.taxonomy.builtin import load_builtin_taxonomy
from repro.taxonomy.schema import DataTaxonomy, DataType


@pytest.fixture(scope="module")
def taxonomy():
    return load_builtin_taxonomy()


class TestPromptRendering:
    def test_classification_prompt_contains_task_and_payload(self, taxonomy):
        prompt = prompts.render_classification_prompt(
            taxonomy,
            [{"name_and_description": "email of the user", "examples": []}],
            [{"description": "the city", "category": "Location", "data_type": "City"}],
        )
        assert prompts.extract_task(prompt) == prompts.TASK_CLASSIFY
        payload = prompts.extract_payload(prompt)
        assert payload["entities"][0]["name_and_description"] == "email of the user"
        assert "Location" in payload["taxonomy"]

    def test_classification_phases(self, taxonomy):
        category_prompt = prompts.render_classification_prompt(taxonomy, [], [], phase="category")
        type_prompt = prompts.render_classification_prompt(
            taxonomy, [], [], phase="type", category="Location"
        )
        assert prompts.extract_task(category_prompt) == prompts.TASK_CLASSIFY_CATEGORY
        assert prompts.extract_task(type_prompt) == prompts.TASK_CLASSIFY_TYPE
        assert prompts.extract_payload(type_prompt)["category"] == "Location"

    def test_unknown_phase_rejected(self, taxonomy):
        with pytest.raises(prompts.PromptError):
            prompts.render_classification_prompt(taxonomy, [], [], phase="bogus")

    def test_refinement_prompt(self, taxonomy):
        prompt = prompts.render_refinement_prompt(
            taxonomy, [{"name_and_description": "wind speed", "amount_appears": 3}]
        )
        assert prompts.extract_task(prompt) == prompts.TASK_REFINE_TAXONOMY
        assert prompts.extract_payload(prompt)["entities"][0]["amount_appears"] == 3

    def test_collection_extraction_prompt_indexes_sentences(self):
        prompt = prompts.render_collection_extraction_prompt(["First.", "Second."])
        payload = prompts.extract_payload(prompt)
        assert payload["sentences"][1] == {"index": 1, "text": "Second."}

    def test_consistency_prompt(self):
        prompt = prompts.render_consistency_prompt(
            {"category": "Location", "data_type": "City", "description": "A city."},
            [{"index": 0, "text": "We collect your city."}],
        )
        assert prompts.extract_task(prompt) == prompts.TASK_LABEL_CONSISTENCY
        payload = prompts.extract_payload(prompt)
        assert payload["data_entity"]["data_type"] == "City"

    def test_improve_prompt(self):
        prompt = prompts.render_improve_prompt("Classify things. Be careful.")
        assert prompts.extract_task(prompt) == prompts.TASK_IMPROVE_PROMPT

    def test_taxonomy_summary_structure(self, taxonomy):
        summary = prompts.taxonomy_summary(taxonomy)
        assert "Location" in summary
        assert "City" in summary["Location"]["data_types"]


class TestPayloadExtraction:
    def test_missing_task_marker(self):
        with pytest.raises(prompts.PromptError):
            prompts.extract_task("no marker here")

    def test_missing_payload_block(self):
        with pytest.raises(prompts.PromptError):
            prompts.extract_payload("TASK: classify-data-descriptions\nno payload")

    def test_invalid_payload_json(self):
        text = (
            "TASK: x\n### INPUT (JSON) ###\nnot json\n### END INPUT ###"
        )
        with pytest.raises(prompts.PromptError):
            prompts.extract_payload(text)


class TestResponseParsing:
    def test_plain_json(self):
        assert prompts.parse_json_response('{"a": 1}') == {"a": 1}

    def test_json_in_code_fence(self):
        text = "Here you go:\n```json\n{\"a\": 1}\n```\nthanks"
        assert prompts.parse_json_response(text) == {"a": 1}

    def test_json_with_surrounding_prose(self):
        text = "Sure! {\"labels\": []} Hope that helps."
        assert prompts.parse_json_response(text) == {"labels": []}

    def test_invalid_json_raises(self):
        with pytest.raises(prompts.PromptError):
            prompts.parse_json_response("not json at all")

    def test_non_object_json_raises(self):
        with pytest.raises(prompts.PromptError):
            prompts.parse_json_response("[1, 2, 3]")


# ---------------------------------------------------------------------------
# Byte identity of the spliced payload fragments
# ---------------------------------------------------------------------------
#: Characters that stress the JSON encoder: non-ASCII (including outside the
#: BMP), quotes, backslashes, control characters, JSON punctuation and
#: line separators.
_ALPHABET = (
    "a", "Z", "0", " ", "é", "中", "😀", '"', "\\", "\n", "\t", "\r", "\x00", "\x7f",
    "\u2028", "{", "}", "[", "]", ",", ":", "'", "/",
)

_CLASSIFY_OUTPUT = {"classifications": [{"category": "<category>", "data_type": "<data type>"}]}
_PHASES = {
    "full": (prompts.TASK_CLASSIFY, prompts._CLASSIFY_INSTRUCTIONS),
    "category": (prompts.TASK_CLASSIFY_CATEGORY, prompts._CLASSIFY_CATEGORY_INSTRUCTIONS),
    "type": (prompts.TASK_CLASSIFY_TYPE, prompts._CLASSIFY_TYPE_INSTRUCTIONS),
}


def reference_render(task, instructions, payload):
    """A prompt as assembled with one ``json.dumps`` of the whole payload."""
    return (
        f"{prompts.TASK_MARKER} {task}\n"
        f"{instructions.strip()}\n\n"
        "### INPUT (JSON) ###\n"
        f"{json.dumps(payload, indent=2, ensure_ascii=False)}\n"
        "### END INPUT ###\n"
        "You MUST STRICTLY follow the provided output example. "
        "Respond only in the specified JSON format, with no additional text.\n"
    )


def adversarial_text(rng, max_length=10):
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, max_length)))


def adversarial_taxonomy(rng):
    taxonomy = DataTaxonomy()
    for category_index in range(rng.randint(1, 4)):
        category = f"c{category_index} {adversarial_text(rng)}"
        taxonomy.add_category(category, adversarial_text(rng))
        for type_index in range(rng.randint(0, 4)):
            taxonomy.add_data_type(
                DataType(
                    name=f"t{type_index} {adversarial_text(rng)}",
                    category=category,
                    description=adversarial_text(rng),
                )
            )
    return taxonomy


def adversarial_examples(rng, keys=("description", "category", "data_type")):
    return [{key: adversarial_text(rng) for key in keys} for _ in range(rng.randint(0, 4))]


def adversarial_value(rng, depth=0):
    kind = rng.randrange(9 if depth < 3 else 6)
    if kind == 0:
        return adversarial_text(rng)
    if kind == 1:
        return rng.randint(-10, 10)
    if kind == 2:
        return rng.choice([0.1, -2.5, 1e300, 3.0])
    if kind == 3:
        return rng.choice([True, False])
    if kind == 4:
        return None
    if kind == 5:
        return rng.choice([[], {}])
    if kind in (6, 7):
        return [adversarial_value(rng, depth + 1) for _ in range(rng.randint(1, 3))]
    return {
        adversarial_text(rng): adversarial_value(rng, depth + 1) for _ in range(rng.randint(1, 3))
    }


class TestSplicedPayloadIdentity:
    """Spliced prompts equal one ``json.dumps(payload, indent=2)`` byte for byte."""

    def test_render_equals_plain_encoding(self):
        rng = random.Random(0)
        assert prompts._render("t", "Do it.", {}) == reference_render("t", "Do it.", {})
        for _ in range(200):
            payload = {
                adversarial_text(rng): adversarial_value(rng) for _ in range(rng.randint(1, 4))
            }
            assert prompts._render("t", " Do it. ", payload) == reference_render(
                "t", " Do it. ", payload
            )

    @pytest.mark.parametrize("seed", range(40))
    def test_classification_prompts(self, seed):
        rng = random.Random(seed)
        taxonomy = adversarial_taxonomy(rng)
        pools = [adversarial_examples(rng), []]
        for _ in range(6):  # renders after the first reuse the taxonomy fragment
            examples = rng.choice(pools)
            entities = [
                {"name_and_description": adversarial_text(rng), "examples": []}
                for _ in range(rng.randint(0, 3))
            ]
            phase = rng.choice(sorted(_PHASES))
            category = rng.choice([None, adversarial_text(rng)])
            prompt = prompts.render_classification_prompt(
                taxonomy, entities, examples, phase=phase, category=category
            )
            payload = {
                "taxonomy": prompts.taxonomy_summary(taxonomy),
                "examples": list(examples),
                "entities": entities,
                "output_format": _CLASSIFY_OUTPUT,
            }
            if category is not None:
                payload["category"] = category
            assert prompt == reference_render(*_PHASES[phase], payload)

    @pytest.mark.parametrize("seed", range(20))
    def test_refinement_and_consistency_prompts(self, seed):
        rng = random.Random(1000 + seed)
        taxonomy = adversarial_taxonomy(rng)
        entities = [
            {"name_and_description": adversarial_text(rng), "amount_appears": rng.randint(1, 5)}
        ]
        assert prompts.render_refinement_prompt(taxonomy, entities) == reference_render(
            prompts.TASK_REFINE_TAXONOMY,
            prompts._REFINE_INSTRUCTIONS,
            {
                "existing_taxonomy": prompts.taxonomy_summary(taxonomy),
                "entities": entities,
                "output_format": {
                    "decisions": [
                        {
                            "action": "Covered|Add|Combine|Deprecate",
                            "category": "<category>",
                            "data_type": "<data type>",
                            "description": "<description>",
                        }
                    ]
                },
            },
        )
        entity = {key: adversarial_text(rng) for key in ("category", "data_type", "description")}
        statements = [{"index": index, "text": adversarial_text(rng)} for index in range(3)]
        examples = adversarial_examples(rng, keys=("policy_text", "data_description", "label"))
        assert prompts.render_consistency_prompt(entity, statements, examples) == reference_render(
            prompts.TASK_LABEL_CONSISTENCY,
            prompts._CONSISTENCY_INSTRUCTIONS,
            {
                "data_entity": entity,
                "statements": statements,
                "examples": examples,
                "output_format": {
                    "labels": [
                        {"sentence_index": 0, "label": "CLEAR|VAGUE|AMBIGUOUS|INCORRECT|OMITTED"}
                    ]
                },
            },
        )

    def test_taxonomy_mutation_between_renders(self):
        taxonomy = load_builtin_taxonomy().copy()
        entities = [{"name_and_description": "wind speed at the location", "examples": []}]

        def rendered_summary():
            prompt = prompts.render_classification_prompt(taxonomy, entities, [])
            assert prompt == reference_render(
                *_PHASES["full"],
                {
                    "taxonomy": prompts.taxonomy_summary(taxonomy),
                    "examples": [],
                    "entities": entities,
                    "output_format": _CLASSIFY_OUTPUT,
                },
            )
            return prompts.extract_payload(prompt)["taxonomy"]

        before = rendered_summary()
        taxonomy.add_data_type(
            DataType(name="Wind gusts", category="Weather information", description="Gust speed.")
        )
        taxonomy.add_data_type(
            DataType(name="Tide height", category="Ocean data", description="Height of the tide.")
        )
        added = rendered_summary()
        taxonomy.remove_data_type("Weather information", "Wind gusts")
        removed = rendered_summary()

        assert "Wind gusts" not in before["Weather information"]["data_types"]
        assert added["Weather information"]["data_types"]["Wind gusts"] == "Gust speed."
        assert added["Ocean data"]["data_types"] == {"Tide height": "Height of the tide."}
        assert "Wind gusts" not in removed["Weather information"]["data_types"]
        assert "Ocean data" in removed

    def test_fragment_cache_stays_under_capacity(self, monkeypatch):
        monkeypatch.setattr(prompts, "FRAGMENT_CACHE_CAPACITY", 2)
        monkeypatch.setattr(prompts, "_FRAGMENTS", {})
        rng = random.Random(7)
        for _ in range(10):
            taxonomy = adversarial_taxonomy(rng)
            examples = adversarial_examples(rng)
            prompt = prompts.render_classification_prompt(taxonomy, [], examples)
            assert prompt == reference_render(
                *_PHASES["full"],
                {
                    "taxonomy": prompts.taxonomy_summary(taxonomy),
                    "examples": examples,
                    "entities": [],
                    "output_format": _CLASSIFY_OUTPUT,
                },
            )
            assert len(prompts._FRAGMENTS) <= 2
