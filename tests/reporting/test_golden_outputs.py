"""Golden-output regression tests for the rendered paper tables.

Small canonical corpora are rendered through the *same* code path as
``examples/reproduce_paper_tables.py`` (``repro.reporting.render_experiment_report``)
and compared **byte-for-byte** against files checked into
``tests/reporting/golden/``.  A refactor that changes any reported number,
row ordering, or formatting fails here instead of silently shifting the
published tables.

To regenerate after an *intentional* change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/reporting/test_golden_outputs.py

then review the golden diff like any other code change.
"""

from __future__ import annotations

import functools
import os
from pathlib import Path

import pytest

from repro.analysis.suite import MeasurementSuite, SuiteConfig
from repro.experiments.registry import run_all_experiments
from repro.reporting import render_experiment_report

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Small, fast canonical configurations.  Two seeds so a change that happens
#: to preserve one rendering by luck still trips the other.
GOLDEN_CASES = [
    ("report_120gpts_seed3.md", 120, 3),
    ("report_150gpts_seed11.md", 150, 11),
]

#: The simulated LLM's (calls, prompt tokens, completion tokens) per golden
#: case.  Token counts follow the prompt bytes, which the report does not show.
GOLDEN_LLM_USAGE = {
    (120, 3): (87, 155322, 2358),
    (150, 11): (105, 178372, 1935),
}


def _llm_usage(suite: MeasurementSuite):
    usage = suite.llm.usage
    return suite.llm.call_count, usage.prompt_tokens, usage.completion_tokens


@functools.lru_cache(maxsize=None)
def _in_memory_run(n_gpts: int, seed: int):
    """The unsharded suite of one golden case, after every experiment."""
    suite = MeasurementSuite(config=SuiteConfig(n_gpts=n_gpts, seed=seed))
    return suite, run_all_experiments(suite)


def _render(n_gpts: int, seed: int) -> str:
    suite, results = _in_memory_run(n_gpts, seed)
    assert _llm_usage(suite) == GOLDEN_LLM_USAGE[n_gpts, seed]
    return render_experiment_report(results, n_gpts, seed)


@pytest.mark.parametrize("filename, n_gpts, seed", GOLDEN_CASES)
def test_rendered_report_matches_golden(filename: str, n_gpts: int, seed: int):
    rendered = _render(n_gpts, seed)
    path = GOLDEN_DIR / filename
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered, encoding="utf-8")
        pytest.skip(f"updated golden {filename}")
    assert path.exists(), (
        f"golden file {path} missing; regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    golden = path.read_text(encoding="utf-8")
    assert rendered == golden, (
        f"rendered report diverged from {filename}; if the change is "
        "intentional, regenerate with REPRO_UPDATE_GOLDEN=1 and review the diff"
    )


def test_sharded_rendering_matches_golden(tmp_path):
    """The sharded suite renders the exact same golden bytes."""
    filename, n_gpts, seed = GOLDEN_CASES[0]
    path = GOLDEN_DIR / filename
    if not path.exists():
        pytest.skip("golden file not generated yet")
    suite = MeasurementSuite(
        config=SuiteConfig(
            n_gpts=n_gpts, seed=seed, shards=3, shard_workers=2,
            shard_dir=str(tmp_path / "shards"),
        )
    )
    rendered = render_experiment_report(run_all_experiments(suite), n_gpts, seed)
    assert rendered == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("filename, n_gpts, seed", GOLDEN_CASES)
def test_sharded_suite_runs_the_policy_framework_once(filename, n_gpts, seed, shards, tmp_path):
    """A sharded suite takes its policy report from the streamed disclosure
    pass: the same LLM usage as the in-memory suite, no materialized
    corpus, and the same report, Action for Action and in the same order."""
    memory, _ = _in_memory_run(n_gpts, seed)
    suite = MeasurementSuite(
        config=SuiteConfig(n_gpts=n_gpts, seed=seed, shards=shards, shard_dir=str(tmp_path))
    )
    run_all_experiments(suite)
    assert _llm_usage(suite) == GOLDEN_LLM_USAGE[n_gpts, seed]
    assert not suite.stage_materialized("corpus")
    assert list(suite.policy_report.analyses.items()) == list(
        memory.policy_report.analyses.items()
    )


def test_example_script_uses_shared_renderer():
    """The example must render through the exact function pinned here."""
    import importlib.util

    example = Path(__file__).resolve().parents[2] / "examples" / "reproduce_paper_tables.py"
    spec = importlib.util.spec_from_file_location("reproduce_paper_tables", example)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.render_report is render_experiment_report
