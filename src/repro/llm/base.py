"""Abstract LLM client interface and response containers."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Union

if TYPE_CHECKING:
    from repro.llm.prompts import Prompt


@dataclass(frozen=True)
class ChatMessage:
    """A single chat message (role + content).

    ``content`` is text or a :class:`~repro.llm.prompts.Prompt`.  A client
    that sends text sends ``str(content)``, which renders a prompt;
    :class:`~repro.llm.simulated.SimulatedLLM` reads a prompt's task and
    payload without rendering it.
    """

    role: str
    content: Union[str, "Prompt"]

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown chat role: {self.role!r}")


@dataclass
class UsageStats:
    """Token accounting for an LLM call (approximated by word counts offline)."""

    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def total_tokens(self) -> int:
        """Total tokens consumed by the call."""
        return self.prompt_tokens + self.completion_tokens

    def add(self, other: "UsageStats") -> None:
        """Accumulate another call's usage into this one."""
        self.prompt_tokens += other.prompt_tokens
        self.completion_tokens += other.completion_tokens


@dataclass
class LLMResponse:
    """The result of one LLM completion."""

    content: str
    model: str
    usage: UsageStats = field(default_factory=UsageStats)
    metadata: Dict[str, object] = field(default_factory=dict)


class LLMClient(abc.ABC):
    """Abstract interface every LLM backend must implement.

    The measurement frameworks only depend on :meth:`complete`; everything
    else (retries, temperature, etc.) is backend-specific.
    """

    #: Human-readable model name.
    model_name: str = "abstract"

    @abc.abstractmethod
    def complete(self, messages: List[ChatMessage]) -> LLMResponse:
        """Run one completion over a list of chat messages."""

    def complete_text(self, system: str, user: Union[str, "Prompt"]) -> str:
        """Convenience wrapper: system + user message, return text content.

        ``user`` is passed through as it is, text or a prompt.
        """
        response = self.complete(
            [ChatMessage(role="system", content=system), ChatMessage(role="user", content=user)]
        )
        return response.content


def tokens_for_words(words: int) -> int:
    """Token estimate of ``words`` whitespace-separated words.

    ≈ 0.75 words per token, floor 1: the one rule for text and prompts alike.
    """
    return max(1, int(words / 0.75))


def estimate_tokens(text: str) -> int:
    """Rough token estimate of a text: :func:`tokens_for_words` of its word count."""
    return tokens_for_words(len(text.split()))
