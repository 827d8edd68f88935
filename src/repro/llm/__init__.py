"""Simulated LLM substrate.

The paper's measurement frameworks use GPT-4o / GPT-o1 through natural-language
prompts (Appendix C).  Offline, we replace the remote model with
:class:`SimulatedLLM`: a deterministic model that receives the same prompts
(built by :mod:`repro.llm.prompts`), reads each one's task and payload
directly, without rendering the prompt text a remote model would receive, and
answers from a keyword knowledge base plus the retrieved few-shot examples,
with a calibrated error model so that framework accuracy lands in the ranges
reported by the paper.

The surrounding frameworks (:mod:`repro.classification` and
:mod:`repro.policy`) are written against the abstract :class:`LLMClient`
interface, so a real API-backed client could be swapped in without changing
the measurement code.
"""

from repro.llm.base import ChatMessage, LLMClient, LLMResponse, UsageStats
from repro.llm.knowledge import KeywordKnowledgeBase, MatchCandidate, VAGUE_CATEGORY_TERMS
from repro.llm.fewshot import FewShotExample, FewShotStore
from repro.llm.errors import ErrorModel
from repro.llm.simulated import SimulatedLLM
from repro.llm import prompts

__all__ = [
    "ChatMessage",
    "LLMClient",
    "LLMResponse",
    "UsageStats",
    "KeywordKnowledgeBase",
    "MatchCandidate",
    "VAGUE_CATEGORY_TERMS",
    "FewShotExample",
    "FewShotStore",
    "ErrorModel",
    "SimulatedLLM",
    "prompts",
]
