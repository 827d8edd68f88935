"""Prompt templates mirroring the paper's Appendix C prompts (Codes 3–6).

Prompts are rendered as natural-language instructions followed by a fenced
JSON payload block.  Any :class:`~repro.llm.base.LLMClient` receives the full
prompt text; the offline :class:`~repro.llm.simulated.SimulatedLLM` recovers
the structured payload from the fenced block, while an API-backed client would
simply send the whole prompt to the remote model.  Responses are expected to
be JSON documents, parsed with :func:`parse_json_response`.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Mapping, Optional, Sequence

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


class _Fragment(str):
    """A payload value already encoded by :func:`_encode_value`."""


#: Bound of the process-wide cache of encoded taxonomy summaries, which
#: repeat across a run's prompts.  Wholesale-cleared at capacity, like
#: ``SentenceEmbedder.TEXT_CACHE_CAPACITY``.  Each entry is a pure function of
#: its key, so threads share it unlocked: a race can only encode a summary
#: twice or clear the cache early.
FRAGMENT_CACHE_CAPACITY = 1 << 8

_FRAGMENTS: Dict[tuple, _Fragment] = {}


def _encode_value(value: object) -> str:
    """``value`` as ``json.dumps(payload, indent=2)`` writes a top-level value.

    JSON escapes newlines inside strings, so every newline of the encoding
    starts a line that the payload indents by one more level.
    """
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n  ")


def _taxonomy_fragment(taxonomy) -> _Fragment:
    """:func:`taxonomy_summary` of a taxonomy, encoded once per distinct content.

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
        fragment = _FRAGMENTS[key] = _Fragment(_encode_value(taxonomy_summary(taxonomy)))
    return fragment


def _render(task: str, instructions: str, payload: Mapping[str, object]) -> str:
    """Assemble a prompt from a task id, instructions, and a JSON payload.

    The payload is written as ``json.dumps(payload, indent=2,
    ensure_ascii=False)`` writes it, one top-level value at a time, so that
    :class:`_Fragment` values are spliced in without being encoded again.
    """
    members = ",\n  ".join(
        json.dumps(key, ensure_ascii=False)
        + ": "
        + (value if isinstance(value, _Fragment) else _encode_value(value))
        for key, value in payload.items()
    )
    body = f"{{\n  {members}\n}}" if members else "{}"
    return (
        f"{TASK_MARKER} {task}\n"
        f"{instructions.strip()}\n\n"
        f"{_PAYLOAD_START}\n"
        f"{body}\n"
        f"{_PAYLOAD_END}\n"
        "You MUST STRICTLY follow the provided output example. "
        "Respond only in the specified JSON format, with no additional text.\n"
    )


def extract_task(prompt: str) -> str:
    """Extract the task identifier from a rendered prompt."""
    for line in prompt.splitlines():
        stripped = line.strip()
        if stripped.startswith(TASK_MARKER):
            return stripped[len(TASK_MARKER):].strip()
    raise PromptError("prompt has no TASK marker")


def extract_payload(prompt: str) -> Dict[str, object]:
    """Extract the JSON payload embedded in a rendered prompt."""
    start = prompt.find(_PAYLOAD_START)
    end = prompt.find(_PAYLOAD_END)
    if start < 0 or end < 0 or end <= start:
        raise PromptError("prompt has no JSON payload block")
    raw = prompt[start + len(_PAYLOAD_START):end].strip()
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise PromptError(f"invalid JSON payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise PromptError("payload must be a JSON object")
    return payload


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
) -> str:
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
    return _render(task, instructions, payload)


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
) -> str:
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
    return _render(TASK_REFINE_TAXONOMY, _REFINE_INSTRUCTIONS, payload)


# ---------------------------------------------------------------------------
# Code 5 — identifying data-collection sentences
# ---------------------------------------------------------------------------
_EXTRACT_INSTRUCTIONS = """
Objective:
You are a privacy policy data collection statement extractor. You will be
given sentences from a privacy policy and your goal is to identify the
sentences related to data collection.
"""


def render_collection_extraction_prompt(sentences: Sequence[str]) -> str:
    """Render the collection-statement extraction prompt (Code 5)."""
    payload = {
        "sentences": [
            {"index": index, "text": sentence} for index, sentence in enumerate(sentences)
        ],
        "output_format": {"collection_sentence_indices": [0]},
    }
    return _render(TASK_EXTRACT_COLLECTION, _EXTRACT_INSTRUCTIONS, payload)


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
) -> str:
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
    return _render(TASK_LABEL_CONSISTENCY, _CONSISTENCY_INSTRUCTIONS, payload)


# ---------------------------------------------------------------------------
# Prompt-improvement helper (Section 3.2.3: the task prompt is refined with the LLM)
# ---------------------------------------------------------------------------
_IMPROVE_INSTRUCTIONS = """
Objective:
You are a prompt engineer. Improve the provided draft task description by
breaking it down into a clear set of numbered instructions.
"""


def render_improve_prompt(draft: str) -> str:
    """Render the prompt-improvement request."""
    payload = {"draft": draft, "output_format": {"improved": "<improved prompt>"}}
    return _render(TASK_IMPROVE_PROMPT, _IMPROVE_INSTRUCTIONS, payload)
