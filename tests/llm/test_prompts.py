"""Tests for prompt rendering and response parsing."""

import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

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
        parsed = prompts.parse_prompt(prompt.text)
        assert parsed.task == prompts.TASK_CLASSIFY
        payload = parsed.payload
        assert payload["entities"][0]["name_and_description"] == "email of the user"
        assert "Location" in payload["taxonomy"]

    def test_classification_phases(self, taxonomy):
        category_prompt = prompts.render_classification_prompt(taxonomy, [], [], phase="category")
        type_prompt = prompts.render_classification_prompt(
            taxonomy, [], [], phase="type", category="Location"
        )
        assert prompts.parse_prompt(category_prompt.text).task == prompts.TASK_CLASSIFY_CATEGORY
        assert prompts.parse_prompt(type_prompt.text).task == prompts.TASK_CLASSIFY_TYPE
        assert prompts.parse_prompt(type_prompt.text).payload["category"] == "Location"

    def test_unknown_phase_rejected(self, taxonomy):
        with pytest.raises(prompts.PromptError):
            prompts.render_classification_prompt(taxonomy, [], [], phase="bogus")

    def test_refinement_prompt(self, taxonomy):
        prompt = prompts.render_refinement_prompt(
            taxonomy, [{"name_and_description": "wind speed", "amount_appears": 3}]
        )
        parsed = prompts.parse_prompt(prompt.text)
        assert parsed.task == prompts.TASK_REFINE_TAXONOMY
        assert parsed.payload["entities"][0]["amount_appears"] == 3

    def test_collection_extraction_prompt_indexes_sentences(self):
        prompt = prompts.render_collection_extraction_prompt(["First.", "Second."])
        payload = prompts.parse_prompt(prompt.text).payload
        assert payload["sentences"][1] == {"index": 1, "text": "Second."}

    def test_consistency_prompt(self):
        prompt = prompts.render_consistency_prompt(
            {"category": "Location", "data_type": "City", "description": "A city."},
            [{"index": 0, "text": "We collect your city."}],
        )
        parsed = prompts.parse_prompt(prompt.text)
        assert parsed.task == prompts.TASK_LABEL_CONSISTENCY
        payload = parsed.payload
        assert payload["data_entity"]["data_type"] == "City"

    def test_improve_prompt(self):
        prompt = prompts.render_improve_prompt("Classify things. Be careful.")
        assert prompts.parse_prompt(prompt.text).task == prompts.TASK_IMPROVE_PROMPT

    def test_taxonomy_summary_structure(self, taxonomy):
        summary = prompts.taxonomy_summary(taxonomy)
        assert "Location" in summary
        assert "City" in summary["Location"]["data_types"]


class TestPayloadExtraction:
    def test_missing_task_marker(self):
        with pytest.raises(prompts.PromptError, match="TASK"):
            prompts.parse_prompt("no marker here\n### INPUT (JSON) ###\n{}\n### END INPUT ###")

    def test_missing_payload_block(self):
        with pytest.raises(prompts.PromptError, match="payload"):
            prompts.parse_prompt("TASK: classify-data-descriptions\nno payload")

    def test_invalid_payload_json(self):
        text = (
            "TASK: x\n### INPUT (JSON) ###\nnot json\n### END INPUT ###"
        )
        with pytest.raises(prompts.PromptError):
            prompts.parse_prompt(text)


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
            assert prompt.text == reference_render(*_PHASES[phase], payload)

    @pytest.mark.parametrize("seed", range(20))
    def test_refinement_and_consistency_prompts(self, seed):
        rng = random.Random(1000 + seed)
        taxonomy = adversarial_taxonomy(rng)
        entities = [
            {"name_and_description": adversarial_text(rng), "amount_appears": rng.randint(1, 5)}
        ]
        assert prompts.render_refinement_prompt(taxonomy, entities).text == reference_render(
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
        assert prompts.render_consistency_prompt(
            entity, statements, examples
        ).text == reference_render(
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
            assert prompt.text == reference_render(
                *_PHASES["full"],
                {
                    "taxonomy": prompts.taxonomy_summary(taxonomy),
                    "examples": [],
                    "entities": entities,
                    "output_format": _CLASSIFY_OUTPUT,
                },
            )
            return prompts.parse_prompt(prompt.text).payload["taxonomy"]

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
            assert prompt.text == reference_render(
                *_PHASES["full"],
                {
                    "taxonomy": prompts.taxonomy_summary(taxonomy),
                    "examples": examples,
                    "entities": [],
                    "output_format": _CLASSIFY_OUTPUT,
                },
            )
            assert len(prompts._FRAGMENTS) <= 2


# ---------------------------------------------------------------------------
# Prompt values: word counts without rendering, and text read back
# ---------------------------------------------------------------------------
#: The adversarial alphabet plus whitespace that JSON leaves unescaped
#: (``\xa0``, ``\x85``, ``\u3000``) and the separators ``\x1c``-``\x1f``,
#: which ``str.split`` treats as whitespace but JSON escapes; and the
#: prompt's own markers, which may appear inside payload strings.
_WORD_ALPHABET = _ALPHABET + ("\xa0", "\x85", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f")
_MARKERS = (prompts.TASK_MARKER + " x", prompts._PAYLOAD_START, prompts._PAYLOAD_END)

word_text = st.lists(
    st.one_of(st.sampled_from(_WORD_ALPHABET), st.sampled_from(_MARKERS)), max_size=8
).map("".join)
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**20), max_value=10**20),
        st.floats(),
        word_text,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(word_text, children, max_size=4)
    ),
    max_leaves=24,
)
payloads = st.dictionaries(word_text, json_values, max_size=5)


@st.composite
def word_taxonomies(draw):
    taxonomy = DataTaxonomy()
    for category_index in range(draw(st.integers(1, 3))):
        category = f"c{category_index} {draw(word_text)}"
        taxonomy.add_category(category, draw(word_text))
        for type_index in range(draw(st.integers(0, 3))):
            taxonomy.add_data_type(
                DataType(
                    name=f"t{type_index} {draw(word_text)}",
                    category=category,
                    description=draw(word_text),
                )
            )
    return taxonomy


class TestPromptValue:
    @settings(deadline=None)
    @given(task=word_text, instructions=word_text, payload=payloads)
    @example(task="t", instructions="", payload={})
    @example(
        task=prompts.TASK_CLASSIFY,
        instructions=" Do it. ",
        payload={
            "é 中": {"": [], "x": {}, "😀": [[], {}, [None, True, False]]},
            "n": [0, -7, 2.5, 1e300, float("inf"), float("nan")],
            "s": ["\x1c\x1f", "a\xa0b", "\u3000", " \x85 ", ""],
        },
    )
    def test_word_count_equals_rendered_split(self, task, instructions, payload):
        prompt = prompts.Prompt(task, instructions, payload)
        assert prompt.word_count == len(prompt.text.split())

    @settings(deadline=None, max_examples=50)
    @given(
        taxonomy=word_taxonomies(),
        descriptions=st.lists(word_text, max_size=3),
        examples=st.lists(
            st.fixed_dictionaries(
                {"description": word_text, "category": word_text, "data_type": word_text}
            ),
            max_size=3,
        ),
        phase=st.sampled_from(sorted(_PHASES)),
    )
    def test_word_count_with_taxonomy_fragment(self, taxonomy, descriptions, examples, phase):
        entities = [{"name_and_description": text, "examples": []} for text in descriptions]
        category = "c0" if phase == "type" else None
        for prompt in (
            prompts.render_classification_prompt(
                taxonomy, entities, examples, phase=phase, category=category
            ),
            prompts.render_refinement_prompt(
                taxonomy,
                [{"name_and_description": text, "amount_appears": 2} for text in descriptions],
            ),
        ):
            assert prompt.word_count == len(prompt.text.split())

    def test_word_count_does_not_render(self, taxonomy):
        prompt = prompts.render_classification_prompt(
            taxonomy, [{"name_and_description": "email of the user", "examples": []}]
        )
        assert prompt.word_count > 0
        assert "text" not in vars(prompt)
        assert prompt.word_count == len(prompt.text.split())

    def test_text_is_kept_and_is_the_string_form(self):
        prompt = prompts.render_improve_prompt("Classify things.")
        assert prompt.text is prompt.text
        assert str(prompt) == prompt.text

    def test_prompt_does_not_equal_its_text(self):
        prompt = prompts.render_improve_prompt("Classify things.")
        assert prompt != prompt.text
        assert prompt != prompts.render_improve_prompt("Classify things.")

    def test_unserializable_payload_is_refused(self):
        prompt = prompts.Prompt("t", "Do it.", {"value": object()})
        with pytest.raises(TypeError):
            prompt.word_count
        with pytest.raises(TypeError):
            prompt.text

    @settings(deadline=None)
    @given(
        template=st.sampled_from(sorted(_PHASES.values())),
        payload=payloads,
        system=st.sampled_from(["", "You are a data classification assistant.\n"]),
    )
    def test_parse_prompt_reads_back_the_text(self, template, payload, system):
        prompt = prompts.Prompt(*template, payload)
        parsed = prompts.parse_prompt(system + "\n\n" + prompt.text)
        assert parsed.task == prompt.task
        assert parsed.text == prompt.text

    def test_parse_prompt_reads_a_taxonomy_like_its_fragment(self, taxonomy):
        prompt = prompts.render_classification_prompt(taxonomy, [], [])
        summary = prompts.parse_prompt(prompt.text).payload["taxonomy"]
        assert prompts.taxonomy_type_names(summary) == prompts.taxonomy_type_names(
            prompt.payload["taxonomy"]
        )
        assert "City" in prompts.taxonomy_type_names(summary)["Location"]
