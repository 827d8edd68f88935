"""A deterministic simulated LLM implementing the paper's prompt tasks.

:class:`SimulatedLLM` plays the role of GPT-4o / GPT-o1 in the measurement
frameworks.  It receives the prompts built by
:mod:`repro.llm.prompts`, reads each one's task and payload without rendering
its text, and answers from:

* a :class:`~repro.llm.knowledge.KeywordKnowledgeBase` built over a "world
  knowledge" taxonomy (by default the full built-in taxonomy);
* the few-shot examples embedded in the prompt (in-context learning: when a
  retrieved example is very close to the queried description, its label is
  adopted, which measurably improves accuracy — the behaviour the paper relies
  on in Section 3.2.3);
* a calibrated :class:`~repro.llm.errors.ErrorModel` that perturbs a small,
  deterministic fraction of decisions so framework accuracy lands in the
  ranges the paper reports (≈91–93% classification, ≈87% policy consistency).

Because everything is deterministic for a given seed, the full measurement
pipeline is reproducible.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.llm.base import (
    ChatMessage,
    LLMClient,
    LLMResponse,
    UsageStats,
    estimate_tokens,
    tokens_for_words,
)
from repro.llm.errors import ErrorModel
from repro.llm.knowledge import KeywordKnowledgeBase
from repro.llm import prompts
from repro.nlp.embeddings import SentenceEmbedder
from repro.taxonomy.builtin import load_builtin_taxonomy
from repro.taxonomy.schema import DataTaxonomy, OTHER_CATEGORY, OTHER_TYPE

#: Maximum embedding distance at which a few-shot example's label is adopted.
_FEWSHOT_ADOPTION_DISTANCE = 0.55

#: Consistency labels the simulated LLM can emit (upper-case wire format).
_CONSISTENCY_LABELS = ("CLEAR", "VAGUE", "AMBIGUOUS", "INCORRECT", "OMITTED")


@dataclass
class SimulatedLLM(LLMClient):
    """Offline stand-in for the paper's GPT-4o / GPT-o1 usage.

    Parameters
    ----------
    knowledge_taxonomy:
        The taxonomy that constitutes the model's world knowledge (defaults to
        the full built-in taxonomy).
    classification_error_rate:
        Probability of perturbing a classification decision.
    consistency_error_rate:
        Probability of perturbing a consistency-label decision.
    extraction_error_rate:
        Probability of dropping/adding a collection-statement decision.
    seed:
        Seed for the deterministic error model.
    """

    knowledge_taxonomy: Optional[DataTaxonomy] = None
    classification_error_rate: float = 0.02
    consistency_error_rate: float = 0.35
    extraction_error_rate: float = 0.01
    seed: int = 0
    model_name: str = "simulated-gpt-4o"

    def __post_init__(self) -> None:
        if self.knowledge_taxonomy is None:
            self.knowledge_taxonomy = load_builtin_taxonomy()
        self.knowledge = KeywordKnowledgeBase(self.knowledge_taxonomy)
        self.embedder = SentenceEmbedder()
        self._classification_errors = ErrorModel(self.classification_error_rate, seed=self.seed)
        self._consistency_errors = ErrorModel(self.consistency_error_rate, seed=self.seed + 1)
        self._extraction_errors = ErrorModel(self.extraction_error_rate, seed=self.seed + 2)
        self.usage = UsageStats()
        self.call_count = 0

    # ------------------------------------------------------------------
    # LLMClient interface
    # ------------------------------------------------------------------
    def complete(self, messages: List[ChatMessage]) -> LLMResponse:
        """Dispatch a prompt to the appropriate task handler.

        The first :class:`~repro.llm.prompts.Prompt` among the messages is
        read as it is; without one, the messages' text is read with
        :func:`~repro.llm.prompts.parse_prompt`.  Prompt tokens count the
        words of every message, as if their texts were joined into one.
        """
        prompt = None
        words = 0
        for message in messages:
            if isinstance(message.content, prompts.Prompt):
                prompt = prompt or message.content
                words += message.content.word_count
            else:
                words += len(message.content.split())
        if prompt is None:
            prompt = prompts.parse_prompt("\n\n".join(message.content for message in messages))
        task = prompt.task
        handlers = {
            prompts.TASK_CLASSIFY: self._handle_classify,
            prompts.TASK_CLASSIFY_CATEGORY: self._handle_classify_category,
            prompts.TASK_CLASSIFY_TYPE: self._handle_classify_type,
            prompts.TASK_REFINE_TAXONOMY: self._handle_refine,
            prompts.TASK_EXTRACT_COLLECTION: self._handle_extract,
            prompts.TASK_LABEL_CONSISTENCY: self._handle_consistency,
            prompts.TASK_IMPROVE_PROMPT: self._handle_improve,
        }
        handler = handlers.get(task)
        if handler is None:
            raise prompts.PromptError(f"simulated LLM has no handler for task {task!r}")
        result = handler(prompt.payload)
        content = json.dumps(result, ensure_ascii=False)
        usage = UsageStats(
            prompt_tokens=tokens_for_words(words),
            completion_tokens=estimate_tokens(content),
        )
        self.usage.add(usage)
        self.call_count += 1
        return LLMResponse(content=content, model=self.model_name, usage=usage,
                           metadata={"task": task})

    # ------------------------------------------------------------------
    # Classification (Code 3)
    # ------------------------------------------------------------------
    def _payload_taxonomy(self, payload: Mapping[str, object]) -> Dict[str, List[str]]:
        """Map category name -> list of data-type names from a prompt payload."""
        summary = payload.get("taxonomy") or payload.get("existing_taxonomy") or {}
        return prompts.taxonomy_type_names(summary)

    def _fewshot_labels(
        self, descriptions: Sequence[str], examples: Sequence[Mapping[str, str]]
    ) -> List[Optional[Tuple[str, str]]]:
        """In-context learning: adopt a near-identical example's label.

        Per description, the label of the first example at the smallest
        embedding distance, or ``None`` beyond ``_FEWSHOT_ADOPTION_DISTANCE``.
        Examples with empty text are skipped; blank descriptions adopt
        nothing.  The pool is embedded once per prompt, and each distance is
        the ``ddot`` that :func:`numpy.linalg.norm` takes of one difference
        vector, so ties and the threshold resolve as a per-example loop would.
        """
        adopted: List[Optional[Tuple[str, str]]] = [None] * len(descriptions)
        texts = [str(example.get("description", "")) for example in examples]
        pool = [index for index, text in enumerate(texts) if text]
        queries = [index for index, description in enumerate(descriptions) if description.strip()]
        if not pool or not queries:
            return adopted
        vectors = self.embedder.embed_many(
            [texts[index] for index in pool] + [descriptions[index] for index in queries]
        )
        pool_vectors = vectors[: len(pool)]
        for index, query_vector in zip(queries, vectors[len(pool):]):
            differences = query_vector - pool_vectors
            distances = np.sqrt(np.vecdot(differences, differences))
            nearest = int(np.argmin(distances))
            if distances[nearest] <= _FEWSHOT_ADOPTION_DISTANCE:
                example = examples[pool[nearest]]
                adopted[index] = (
                    str(example.get("category", "")),
                    str(example.get("data_type", "")),
                )
        return adopted

    def _classify_one(
        self,
        description: str,
        adopted: Optional[Tuple[str, str]],
        allowed: Dict[str, List[str]],
        restrict_category: Optional[str] = None,
    ) -> Tuple[str, str]:
        """Classify one description to an allowed ``(category, type)`` pair."""
        category, data_type = (adopted if adopted else self.knowledge.classify(description))

        # Restrict to the payload taxonomy (the model may only answer from it).
        if allowed:
            if restrict_category is not None:
                category = restrict_category
                if data_type not in allowed.get(category, []):
                    fallback = self.knowledge.match(description, limit=8)
                    data_type = OTHER_TYPE
                    for candidate in fallback:
                        if candidate.category == category and candidate.type_name in allowed.get(category, []):
                            data_type = candidate.type_name
                            break
            elif category not in allowed or (
                data_type != OTHER_TYPE and data_type not in allowed.get(category, [])
            ):
                # Try the next best candidates that fit the allowed taxonomy.
                category, data_type = OTHER_CATEGORY, OTHER_TYPE
                for candidate in self.knowledge.match(description, limit=8):
                    if candidate.category in allowed and candidate.type_name in allowed[candidate.category]:
                        category, data_type = candidate.category, candidate.type_name
                        break

        # Calibrated error injection.
        if category != OTHER_CATEGORY and self._classification_errors.should_perturb(
            description, context="classify"
        ):
            alternatives: List[Tuple[str, str]] = []
            for alt_category, type_names in allowed.items():
                for type_name in type_names:
                    if (alt_category, type_name) != (category, data_type):
                        alternatives.append((alt_category, type_name))
            if not alternatives:
                alternatives = [(OTHER_CATEGORY, OTHER_TYPE)]
            category, data_type = self._classification_errors.choose(
                description, alternatives, context="classify-alt"
            )
        return category, data_type

    def _classify_entities(
        self, payload: Mapping[str, object], restrict_category: Optional[str] = None
    ) -> List[Tuple[str, str]]:
        """Classify every entity of a classification payload, in order."""
        allowed = self._payload_taxonomy(payload)
        descriptions = [
            str(entity.get("name_and_description", ""))
            for entity in payload.get("entities", [])  # type: ignore[union-attr]
        ]
        examples = payload.get("examples", [])
        adopted = self._fewshot_labels(descriptions, examples)  # type: ignore[arg-type]
        return [
            self._classify_one(description, label, allowed, restrict_category)
            for description, label in zip(descriptions, adopted)
        ]

    def _handle_classify(self, payload: Mapping[str, object]) -> Dict[str, object]:
        return {
            "classifications": [
                {"category": category, "data_type": data_type}
                for category, data_type in self._classify_entities(payload)
            ]
        }

    def _handle_classify_category(self, payload: Mapping[str, object]) -> Dict[str, object]:
        return {
            "classifications": [
                {"category": category, "data_type": ""}
                for category, _ in self._classify_entities(payload)
            ]
        }

    def _handle_classify_type(self, payload: Mapping[str, object]) -> Dict[str, object]:
        category = str(payload.get("category", OTHER_CATEGORY))
        return {
            "classifications": [
                {"category": category, "data_type": data_type}
                for _, data_type in self._classify_entities(payload, restrict_category=category)
            ]
        }

    # ------------------------------------------------------------------
    # Taxonomy refinement (Code 4)
    # ------------------------------------------------------------------
    def _handle_refine(self, payload: Mapping[str, object]) -> Dict[str, object]:
        allowed = self._payload_taxonomy(payload)
        entities = payload.get("entities", [])
        decisions = []
        proposed: Dict[Tuple[str, str], bool] = {}
        for entity in entities:  # type: ignore[union-attr]
            description = str(entity.get("name_and_description", ""))
            amount = int(entity.get("amount_appears", 1))
            best = self.knowledge.best_match(description)
            if best is None:
                decisions.append({"action": "Deprecate", "category": "", "data_type": "",
                                  "description": ""})
                continue
            category, type_name = best.category, best.type_name
            in_existing = category in allowed and type_name in allowed.get(category, [])
            if in_existing:
                decisions.append({
                    "action": "Covered",
                    "category": category,
                    "data_type": type_name,
                    "description": best.data_type.description,
                })
            elif amount >= 2 or best.score >= 2.0:
                key = (category, type_name)
                action = "Combine" if proposed.get(key) else "Add"
                proposed[key] = True
                decisions.append({
                    "action": action,
                    "category": category,
                    "data_type": type_name,
                    "description": best.data_type.description,
                })
            else:
                decisions.append({"action": "Deprecate", "category": "", "data_type": "",
                                  "description": ""})
        return {"decisions": decisions}

    # ------------------------------------------------------------------
    # Collection-statement extraction (Code 5)
    # ------------------------------------------------------------------
    def _handle_extract(self, payload: Mapping[str, object]) -> Dict[str, object]:
        sentences = payload.get("sentences", [])
        indices: List[int] = []
        for entry in sentences:  # type: ignore[union-attr]
            index = int(entry.get("index", -1))
            text = str(entry.get("text", ""))
            is_collection = (
                self.knowledge.mentions_collection(text)
                or self.knowledge.mentions_negation(text)
            )
            if self._extraction_errors.should_perturb(text, context="extract"):
                is_collection = not is_collection
            if is_collection and index >= 0:
                indices.append(index)
        return {"collection_sentence_indices": indices}

    # ------------------------------------------------------------------
    # Consistency labelling (Code 6)
    # ------------------------------------------------------------------
    def _label_sentence(
        self, sentence: str, category: str, type_name: str, description: str
    ) -> str:
        data_type = self.knowledge_taxonomy.get_type(category, type_name)
        if data_type is None:
            data_type = self.knowledge_taxonomy.find_type(type_name)
        mentions_type = bool(data_type) and self.knowledge.sentence_mentions_type(sentence, data_type)
        if not mentions_type and description:
            probe = self.knowledge.best_match(sentence)
            if probe is not None and data_type is not None and probe.data_type.key == data_type.key:
                mentions_type = True
        facts = self.knowledge.sentence_facts(sentence)
        vague_hit = category in facts.vague_categories
        negation = facts.negation
        affirmative = facts.affirmative

        if mentions_type:
            if negation and affirmative:
                return "AMBIGUOUS"
            if negation:
                return "INCORRECT"
            return "CLEAR"
        if vague_hit:
            if negation and affirmative:
                return "AMBIGUOUS"
            if negation:
                return "INCORRECT"
            return "VAGUE"
        if negation and not affirmative:
            # Blanket denials ("we do not collect any personal data", "we
            # collect nothing") contradict the collection of any data type,
            # even ones outside the categories the denied umbrella covers.
            tokens = facts.tokens
            denies_broadly = (
                ("any" in tokens and ("collect" in tokens or "store" in tokens or "data" in tokens))
                or "no data" in sentence.lower()
                or "nothing" in tokens
                or bool(facts.vague_categories)
            )
            if denies_broadly:
                return "INCORRECT"
        return "OMITTED"

    def _handle_consistency(self, payload: Mapping[str, object]) -> Dict[str, object]:
        entity = payload.get("data_entity", {})
        category = str(entity.get("category", ""))  # type: ignore[union-attr]
        type_name = str(entity.get("data_type", ""))  # type: ignore[union-attr]
        description = str(entity.get("description", ""))  # type: ignore[union-attr]
        statements = payload.get("statements", [])
        labels = []
        for statement in statements:  # type: ignore[union-attr]
            index = int(statement.get("index", -1))
            text = str(statement.get("text", ""))
            label = self._label_sentence(text, category, type_name, description)
            if label in ("CLEAR", "VAGUE") and self._consistency_errors.should_perturb(
                f"{type_name}|{text}", context="consistency"
            ):
                # Real-model failure mode from the paper's mistake analysis
                # (Section 5.1.2): the model misses umbrella phrasing and
                # paraphrases, i.e. it reads consistent statements as silent,
                # but it rarely invents disclosures that are not there.  So
                # perturbations only downgrade consistent labels to OMITTED.
                label = "OMITTED"
            labels.append({"sentence_index": index, "label": label})
        return {"labels": labels}

    # ------------------------------------------------------------------
    # Prompt improvement
    # ------------------------------------------------------------------
    def _handle_improve(self, payload: Mapping[str, object]) -> Dict[str, object]:
        draft = str(payload.get("draft", "")).strip()
        steps = [segment.strip() for segment in draft.replace("\n", " ").split(".") if segment.strip()]
        improved_lines = [f"{number}. {step}." for number, step in enumerate(steps, start=1)]
        improved = "Follow these instructions:\n" + "\n".join(improved_lines)
        return {"improved": improved}
