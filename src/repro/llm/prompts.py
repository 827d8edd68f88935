"""Prompt templates mirroring the paper's Appendix C prompts (Codes 3–6).

Every ``render_*`` function returns a :class:`Prompt`: a task id, natural-
language instructions and a structured payload.  :attr:`Prompt.text` is the
prompt a remote model receives, the instructions followed by a fenced JSON
payload block; it is rendered on first access, so an API-backed
:class:`~repro.llm.base.LLMClient` sends the text while the offline
:class:`~repro.llm.simulated.SimulatedLLM` reads the task and payload
directly and never renders.  :attr:`Prompt.word_count`, which the token
accounting uses, counts the words of that text without rendering it.  Prompt
text from any other source is read with :func:`parse_prompt`.  Responses are
expected to be JSON documents, parsed with :func:`parse_json_response`.
"""

from __future__ import annotations

import functools
import json
import json.encoder
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Marker introducing the machine-readable task name inside a prompt.
TASK_MARKER = "TASK:"
_PAYLOAD_START = "### INPUT (JSON) ###"
_PAYLOAD_END = "### END INPUT ###"

#: Task identifiers understood by the simulated LLM.
TASK_CLASSIFY = "classify-data-descriptions"
TASK_CLASSIFY_CATEGORY = "classify-data-category"
TASK_CLASSIFY_TYPE = "classify-data-type"
TASK_REFINE_TAXONOMY = "refine-taxonomy"
TASK_EXTRACT_COLLECTION = "extract-collection-statements"
TASK_LABEL_CONSISTENCY = "label-consistency"
TASK_IMPROVE_PROMPT = "improve-prompt"


class PromptError(ValueError):
    """Raised when a prompt or an LLM response cannot be parsed."""


@dataclass(frozen=True)
class _Fragment:
    """A taxonomy summary prepared once for every prompt that embeds it.

    ``encoded`` is the summary as :func:`_encode_value` writes it, ``words``
    the number of whitespace-separated words in it, and ``type_names`` what
    :func:`taxonomy_type_names` reads from the summary.
    """

    encoded: str
    words: int
    type_names: Dict[str, List[str]]


#: Bound of the process-wide cache of encoded taxonomy summaries, which
#: repeat across a run's prompts.  Wholesale-cleared at capacity, like
#: ``SentenceEmbedder.TEXT_CACHE_CAPACITY``.  Each entry is a pure function of
#: its key, so threads share it unlocked: a race can only encode a summary
#: twice or clear the cache early.
FRAGMENT_CACHE_CAPACITY = 1 << 8

_FRAGMENTS: Dict[tuple, _Fragment] = {}


@dataclass(eq=False)
class Prompt:
    """One prompt: its task id, instructions and JSON payload.

    :attr:`text` is rendered on first access and then kept.  The payload is
    held by reference, so build a new prompt instead of mutating one.  A
    prompt equals only itself; compare :attr:`text` to compare it with text.
    """

    task: str
    instructions: str
    payload: Dict[str, object] = field(repr=False)

    @functools.cached_property
    def text(self) -> str:
        """The prompt as a remote model receives it."""
        return _render(self.task, self.instructions, self.payload)

    @property
    def word_count(self) -> int:
        """``len(self.text.split())``, counted without rendering the text."""
        return _frame_words(self.task, self.instructions) + _value_words(self.payload)

    def __str__(self) -> str:
        return self.text


def _encode_value(value: object) -> str:
    """``value`` as ``json.dumps(payload, indent=2)`` writes a top-level value.

    JSON escapes newlines inside strings, so every newline of the encoding
    starts a line that the payload indents by one more level.
    """
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n  ")


def _string_words(text: str) -> int:
    """Words of ``text``'s JSON encoding, which escapes newlines and tabs.

    ``encode_basestring`` is the string encoder of ``json.dumps(...,
    ensure_ascii=False)``, without building an encoder per call.
    """
    return len(json.encoder.encode_basestring(text).split())


def _value_words(value: object) -> int:
    """Whitespace-separated words of ``value``'s indented JSON encoding.

    Every encoded string starts and ends with a quote, and the indented
    layout adds only whitespace, ``{ } [ ]`` words around non-empty
    containers, and ``,`` and ``:`` attached to a word.  So the count is a
    sum over the encoded strings plus one word per other scalar or empty
    container.  A key that is not a string is encoded as a one-word string.
    """
    if isinstance(value, str):
        return _string_words(value)
    if isinstance(value, dict):
        if not value:
            return 1
        words = 2
        for key, item in value.items():
            words += _value_words(item) + (_string_words(key) if isinstance(key, str) else 1)
        return words
    if isinstance(value, (list, tuple)):
        return 2 + sum(map(_value_words, value)) if value else 1
    if isinstance(value, _Fragment):
        return value.words
    if value is None or isinstance(value, (int, float)):
        return 1
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@functools.lru_cache(maxsize=64)
def _frame_words(task: str, instructions: str) -> int:
    """Words of a prompt outside its payload: task line, instructions, markers, footer."""
    return len(_frame(task, instructions, "").split())


def taxonomy_type_names(summary: object) -> Dict[str, List[str]]:
    """Category name -> data-type names, from a prompt's taxonomy value.

    Reads a :func:`taxonomy_summary` mapping, or the fragment that the
    ``render_*`` functions embed in its place.  A fragment's map is computed
    once and shared, so callers must not mutate the result.
    """
    if isinstance(summary, _Fragment):
        return summary.type_names
    allowed: Dict[str, List[str]] = {}
    if isinstance(summary, Mapping):
        for category, info in summary.items():
            types: List[object] = []
            if isinstance(info, Mapping):
                data_types = info.get("data_types", {})
                if isinstance(data_types, Mapping):
                    types = list(data_types.keys())
            allowed[str(category)] = [str(name) for name in types]
    return allowed


def _taxonomy_fragment(taxonomy) -> _Fragment:
    """:func:`taxonomy_summary` of a taxonomy, prepared once per distinct content.

    The key holds every string of the summary; it is far cheaper to build
    than the indented encoding, which ``json`` does in pure Python.
    """
    key = tuple(
        (
            category.name,
            category.description,
            tuple((data_type.name, data_type.description) for data_type in category.data_types),
        )
        for category in taxonomy.categories
    )
    fragment = _FRAGMENTS.get(key)
    if fragment is None:
        if len(_FRAGMENTS) >= FRAGMENT_CACHE_CAPACITY:
            _FRAGMENTS.clear()
        summary = taxonomy_summary(taxonomy)
        encoded = _encode_value(summary)
        fragment = _FRAGMENTS[key] = _Fragment(
            encoded, len(encoded.split()), taxonomy_type_names(summary)
        )
    return fragment


def _frame(task: str, instructions: str, body: str) -> str:
    """A prompt around an encoded payload ``body``."""
    return (
        f"{TASK_MARKER} {task}\n"
        f"{instructions.strip()}\n\n"
        f"{_PAYLOAD_START}\n"
        f"{body}\n"
        f"{_PAYLOAD_END}\n"
        "You MUST STRICTLY follow the provided output example. "
        "Respond only in the specified JSON format, with no additional text.\n"
    )


def _render(task: str, instructions: str, payload: Mapping[str, object]) -> str:
    """Assemble a prompt from a task id, instructions, and a JSON payload.

    The payload is written as ``json.dumps(payload, indent=2,
    ensure_ascii=False)`` writes it, one top-level value at a time, so that
    :class:`_Fragment` values are spliced in without being encoded again.
    """
    members = ",\n  ".join(
        json.dumps(key, ensure_ascii=False)
        + ": "
        + (value.encoded if isinstance(value, _Fragment) else _encode_value(value))
        for key, value in payload.items()
    )
    return _frame(task, instructions, f"{{\n  {members}\n}}" if members else "{}")


def parse_prompt(text: str) -> Prompt:
    """Read a prompt's task, instructions and payload back from its text.

    The inverse of :attr:`Prompt.text`, for text from clients that do not
    send a :class:`Prompt`.  The payload block runs from the first start
    marker to the last end marker, which payload strings may contain.  The
    task is on the first line before the block that starts with ``TASK:``;
    the instructions are the text between that line and the block.
    """
    start = text.find(_PAYLOAD_START)
    end = text.rfind(_PAYLOAD_END)
    if start < 0 or end <= start:
        raise PromptError("prompt has no JSON payload block")
    try:
        payload = json.loads(text[start + len(_PAYLOAD_START):end].strip())
    except json.JSONDecodeError as exc:
        raise PromptError(f"invalid JSON payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise PromptError("payload must be a JSON object")
    lines = text[:start].splitlines(keepends=True)
    for index, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith(TASK_MARKER):
            task = stripped[len(TASK_MARKER):].strip()
            return Prompt(task, "".join(lines[index + 1:]), payload)
    raise PromptError("prompt has no TASK marker")


def parse_json_response(text: str) -> Dict[str, object]:
    """Parse an LLM response expected to be a JSON object.

    Tolerates surrounding prose and markdown code fences, as real LLMs often
    wrap JSON in them despite instructions.
    """
    stripped = text.strip()
    fence = re.search(r"```(?:json)?\s*(\{.*\})\s*```", stripped, flags=re.DOTALL)
    if fence:
        stripped = fence.group(1)
    else:
        brace_start = stripped.find("{")
        brace_end = stripped.rfind("}")
        if brace_start >= 0 and brace_end > brace_start:
            stripped = stripped[brace_start:brace_end + 1]
    try:
        payload = json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise PromptError(f"LLM response is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise PromptError("LLM response must be a JSON object")
    return payload


# ---------------------------------------------------------------------------
# Code 3 — data description classification
# ---------------------------------------------------------------------------
_CLASSIFY_INSTRUCTIONS = """
Objective:
You are a data classification assistant. Your objective is to categorize each
data entity into ONE data type within this data taxonomy. For data entities
not covered by the taxonomy, you should categorize them as "Other".

You should follow these steps to categorize each data entity:
1. Fully understand the data taxonomy and refer to the description of each
   data type; do not identify data types based solely on their names.
2. Read all the information provided in the input.
3. Review all the attached examples and ask yourself whether any example has
   the same meaning as this data entity.
4. Categorize the current data entity into one data type.
5. Double-check that the data entity is covered by the chosen data type's
   description; otherwise consider the "Other" label.
"""

_CLASSIFY_CATEGORY_INSTRUCTIONS = """
Objective:
You are a data classification assistant. In this first phase your objective is
to identify the higher-level data CATEGORY for each data entity within the
provided taxonomy. Use "Other" when no category is suitable.
"""

_CLASSIFY_TYPE_INSTRUCTIONS = """
Objective:
You are a data classification assistant. In this second phase your objective
is to identify the lower-level data TYPE within the already-selected category
for each data entity. Use "Other" when no data type in the category matches.
"""


def taxonomy_summary(taxonomy) -> Dict[str, object]:
    """Compact JSON summary of a taxonomy for inclusion in prompts."""
    summary: Dict[str, object] = {}
    for category in taxonomy.categories:
        summary[category.name] = {
            "description": category.description,
            "data_types": {
                data_type.name: data_type.description for data_type in category.data_types
            },
        }
    return summary


def render_classification_prompt(
    taxonomy,
    entities: Sequence[Mapping[str, object]],
    examples: Sequence[Mapping[str, str]] = (),
    phase: str = "full",
    category: Optional[str] = None,
) -> Prompt:
    """Render the data-description classification prompt (Code 3).

    Parameters
    ----------
    taxonomy:
        The :class:`~repro.taxonomy.schema.DataTaxonomy` to classify against.
    entities:
        Data entities, each ``{"name_and_description": str, "examples": [...]}``.
    examples:
        Few-shot examples retrieved for the entities, each
        ``{"description", "category", "data_type"}``.
    phase:
        ``"full"`` (category and type at once), ``"category"``, or ``"type"``.
    category:
        When ``phase == "type"``, the category chosen in the first phase.
    """
    if phase == "full":
        instructions = _CLASSIFY_INSTRUCTIONS
        task = TASK_CLASSIFY
    elif phase == "category":
        instructions = _CLASSIFY_CATEGORY_INSTRUCTIONS
        task = TASK_CLASSIFY_CATEGORY
    elif phase == "type":
        instructions = _CLASSIFY_TYPE_INSTRUCTIONS
        task = TASK_CLASSIFY_TYPE
    else:
        raise PromptError(f"unknown classification phase: {phase!r}")
    payload: Dict[str, object] = {
        "taxonomy": _taxonomy_fragment(taxonomy),
        "examples": list(examples),
        "entities": list(entities),
        "output_format": {
            "classifications": [{"category": "<category>", "data_type": "<data type>"}]
        },
    }
    if category is not None:
        payload["category"] = category
    return Prompt(task, instructions, payload)


# ---------------------------------------------------------------------------
# Code 4 — addressing non-classified data descriptions
# ---------------------------------------------------------------------------
_REFINE_INSTRUCTIONS = """
Objective:
You are a data taxonomy expert. Your objective is to decide whether the data
entities are valuable enough to create a new sub datatype and add it to the
existing data taxonomy. We want a concise data taxonomy instead of a
comprehensive one.

For each data entity, choose one action:
1. ['Covered', '<existing sub datatype>'] if it is covered by an existing type.
2. ['Add', '<new sub datatype>'] if it is valuable and should become a new type.
3. ['Combine', '<new sub datatype>'] if it should be combined with other
   entities into a new type.
4. ['Deprecate', ''] if it is not valuable and should be deprecated.
"""


def render_refinement_prompt(
    taxonomy,
    entities: Sequence[Mapping[str, object]],
) -> Prompt:
    """Render the taxonomy-refinement prompt (Code 4).

    ``entities`` are ``{"name_and_description": str, "amount_appears": int}``.
    """
    payload = {
        "existing_taxonomy": _taxonomy_fragment(taxonomy),
        "entities": list(entities),
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
    }
    return Prompt(TASK_REFINE_TAXONOMY, _REFINE_INSTRUCTIONS, payload)


# ---------------------------------------------------------------------------
# Code 5 — identifying data-collection sentences
# ---------------------------------------------------------------------------
_EXTRACT_INSTRUCTIONS = """
Objective:
You are a privacy policy data collection statement extractor. You will be
given sentences from a privacy policy and your goal is to identify the
sentences related to data collection.
"""


def render_collection_extraction_prompt(sentences: Sequence[str]) -> Prompt:
    """Render the collection-statement extraction prompt (Code 5)."""
    payload = {
        "sentences": [
            {"index": index, "text": sentence} for index, sentence in enumerate(sentences)
        ],
        "output_format": {"collection_sentence_indices": [0]},
    }
    return Prompt(TASK_EXTRACT_COLLECTION, _EXTRACT_INSTRUCTIONS, payload)


# ---------------------------------------------------------------------------
# Code 6 — assigning consistency labels
# ---------------------------------------------------------------------------
_CONSISTENCY_INSTRUCTIONS = """
Objective:
You are a privacy policy consistency checker. You will be given a list of
data-collection sentences from an app's privacy policy as well as a data
entity disclosed by the same app. Assign one of the following labels for each
sentence:

CLEAR: the data type description exactly matches a data type in the statement.
VAGUE: the data type is mentioned in broader or vague terms.
AMBIGUOUS: there are contradictory statements about the data type.
INCORRECT: the data type is collected but the statement says it is not.
OMITTED: the statements do not mention the collected data type at all.
"""


def render_consistency_prompt(
    data_entity: Mapping[str, str],
    statements: Sequence[Mapping[str, object]],
    examples: Sequence[Mapping[str, str]] = (),
) -> Prompt:
    """Render the consistency-labelling prompt (Code 6).

    ``data_entity`` carries ``category``, ``data_type``, and ``description``;
    ``statements`` carry ``index`` and ``text``.
    """
    payload = {
        "data_entity": dict(data_entity),
        "statements": list(statements),
        "examples": list(examples),
        "output_format": {
            "labels": [{"sentence_index": 0, "label": "CLEAR|VAGUE|AMBIGUOUS|INCORRECT|OMITTED"}]
        },
    }
    return Prompt(TASK_LABEL_CONSISTENCY, _CONSISTENCY_INSTRUCTIONS, payload)


# ---------------------------------------------------------------------------
# Prompt-improvement helper (Section 3.2.3: the task prompt is refined with the LLM)
# ---------------------------------------------------------------------------
_IMPROVE_INSTRUCTIONS = """
Objective:
You are a prompt engineer. Improve the provided draft task description by
breaking it down into a clear set of numbered instructions.
"""


def render_improve_prompt(draft: str) -> Prompt:
    """Render the prompt-improvement request."""
    payload = {"draft": draft, "output_format": {"improved": "<improved prompt>"}}
    return Prompt(TASK_IMPROVE_PROMPT, _IMPROVE_INSTRUCTIONS, payload)
