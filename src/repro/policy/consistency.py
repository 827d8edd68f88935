"""Per-data-type consistency checking (framework step three, Code 6).

For every data type an Action collects, the checker passes the Action's
collection statements and the data type's description to the LLM, receives one
label per ``(sentence, data type)`` pair, and reduces them to the most precise
label using the precedence rule.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.llm import prompts
from repro.llm.base import LLMClient
from repro.policy.extraction import ExtractedStatements
from repro.policy.labels import ConsistencyLabel, most_precise_label
from repro.taxonomy.schema import DataTaxonomy

#: Example tuples included in the Code 6 prompt (Table 2 of the paper).
_CONSISTENCY_EXAMPLES: Tuple[Dict[str, str], ...] = (
    {
        "policy_text": "For example, we collect information ..., and a timestamp for the request.",
        "data_description": "End time of the query as unix timestamp.",
        "label": "CLEAR",
    },
    {
        "policy_text": "User Data that includes data about how you use our website and any online services.",
        "data_description": "Script to be produced",
        "label": "VAGUE",
    },
    {
        "policy_text": "We only collect user name and mailing address",
        "data_description": "Email address of the user",
        "label": "OMITTED",
    },
    {
        "policy_text": "We do not actively collect and store any personal data from users... "
                       "We use Your Personal data to provide and improve the Service.",
        "data_description": "Shopping category data",
        "label": "AMBIGUOUS",
    },
    {
        "policy_text": "We do not collect our customer's personal information or share it with "
                       "unaffiliated third parties.",
        "data_description": "User's level of fitness",
        "label": "INCORRECT",
    },
)


@dataclass
class DataTypeConsistency:
    """The consistency outcome for one (Action, data type) pair."""

    category: str
    data_type: str
    final_label: ConsistencyLabel
    sentence_labels: List[Tuple[int, ConsistencyLabel]] = field(default_factory=list)

    @property
    def is_consistent(self) -> bool:
        """Whether the final label is consistent (clear or vague)."""
        return self.final_label.is_consistent


class ConsistencyChecker:
    """Labels the disclosure consistency of collected data types."""

    def __init__(self, taxonomy: DataTaxonomy, llm: LLMClient) -> None:
        self.taxonomy = taxonomy
        self.llm = llm

    # ------------------------------------------------------------------
    def check_type(
        self,
        category: str,
        data_type: str,
        statements: ExtractedStatements,
    ) -> DataTypeConsistency:
        """Label one collected data type against a policy's collection statements."""
        collection = statements.collection_statements
        if not collection:
            return DataTypeConsistency(
                category=category,
                data_type=data_type,
                final_label=ConsistencyLabel.OMITTED,
            )
        resolved = self.taxonomy.get_type(category, data_type)
        description = resolved.description if resolved else ""
        prompt = prompts.render_consistency_prompt(
            data_entity={
                "category": category,
                "data_type": data_type,
                "description": description,
            },
            statements=[{"index": index, "text": text} for index, text in collection],
            examples=list(_CONSISTENCY_EXAMPLES),
        )
        response = prompts.parse_json_response(
            self.llm.complete_text("You are a privacy policy consistency checker.", prompt)
        )
        sentence_labels: List[Tuple[int, ConsistencyLabel]] = []
        for entry in response.get("labels", []):
            if not isinstance(entry, Mapping):
                continue
            try:
                index = int(entry.get("sentence_index", -1))
            except (TypeError, ValueError):
                continue
            label = ConsistencyLabel.from_string(str(entry.get("label", "omitted")))
            sentence_labels.append((index, label))
        final = most_precise_label(label for _, label in sentence_labels)
        return DataTypeConsistency(
            category=category,
            data_type=data_type,
            final_label=final,
            sentence_labels=sentence_labels,
        )

    def check_types(
        self,
        collected_types: Sequence[Tuple[str, str]],
        statements: ExtractedStatements,
    ) -> List[DataTypeConsistency]:
        """Label every collected data type of one Action."""
        return [
            self.check_type(category, data_type, statements)
            for category, data_type in collected_types
        ]
