"""The golden worlds' prompts are answered and counted without rendering.

The simulated LLM reads each prompt's task and payload, and counts its
tokens from the payload's word count.  These tests run the golden cases with
prompt rendering disabled, then check every prompt the runs answered
against the text a remote model would have received.
"""

from __future__ import annotations

import functools

import pytest
from test_golden_outputs import GOLDEN_CASES, GOLDEN_DIR, GOLDEN_LLM_USAGE, _llm_usage

from repro.analysis.suite import MeasurementSuite, SuiteConfig
from repro.experiments.registry import run_all_experiments
from repro.llm import prompts
from repro.llm.base import ChatMessage
from repro.reporting import render_experiment_report


def _refuse_to_render(*args, **kwargs):
    raise AssertionError("a prompt was rendered")


@functools.lru_cache(maxsize=None)
def _unrendered_run(n_gpts: int, seed: int):
    """One golden case with ``prompts._render`` made to raise.

    Returns the suite, its report, its LLM usage and the message lists its
    LLM answered.
    """
    suite = MeasurementSuite(config=SuiteConfig(n_gpts=n_gpts, seed=seed))
    answered = []
    complete = suite.llm.complete

    def recording(messages):
        answered.append(messages)
        return complete(messages)

    suite.llm.complete = recording
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prompts, "_render", _refuse_to_render)
        report = render_experiment_report(run_all_experiments(suite), n_gpts, seed)
    del suite.llm.complete
    return suite, report, _llm_usage(suite), answered


@pytest.mark.parametrize("filename, n_gpts, seed", GOLDEN_CASES)
def test_golden_report_without_rendering(filename, n_gpts, seed):
    _, report, usage, answered = _unrendered_run(n_gpts, seed)
    assert report == (GOLDEN_DIR / filename).read_text(encoding="utf-8")
    assert usage == GOLDEN_LLM_USAGE[n_gpts, seed]
    assert len(answered) == usage[0]


@pytest.mark.parametrize("filename, n_gpts, seed", GOLDEN_CASES)
def test_every_prompt_word_count_equals_its_text(filename, n_gpts, seed):
    _, _, _, answered = _unrendered_run(n_gpts, seed)
    counted = [message.content for messages in answered for message in messages
               if isinstance(message.content, prompts.Prompt)]
    assert len(counted) == len(answered)
    for prompt in counted:
        assert prompt.word_count == len(prompt.text.split())


@pytest.mark.parametrize("filename, n_gpts, seed", GOLDEN_CASES)
def test_every_prompt_is_answered_as_its_text(filename, n_gpts, seed):
    """A prompt and the text read back from it get the same answer and usage."""
    suite, _, _, answered = _unrendered_run(n_gpts, seed)
    for messages in answered:
        as_text = [ChatMessage(message.role, str(message.content)) for message in messages]
        direct, parsed = suite.llm.complete(messages), suite.llm.complete(as_text)
        assert direct.content == parsed.content
        assert direct.usage == parsed.usage
        assert direct.metadata == parsed.metadata
