"""Tests of the benchmark harness itself, on tiny worlds of 120 GPTs."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402

TINY_GPTS = 120


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert [workload["name"] for workload in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.LAYER_METRICS
    ]
    for name, value in run.PINNED_ENV.items():
        assert f"{name}={value}" in spec["command"]


def test_experiment_ids_match_the_registry():
    from repro.experiments.registry import EXPERIMENTS

    assert tracing.EXPERIMENT_IDS == tuple(EXPERIMENTS)


def test_layer_metrics_count_outermost_spans_and_self_time():
    spans = [
        ["classification.classify", 0.0, 10.0, -1],
        ["llm.complete", 1.0, 5.0, 0],
        ["llm.knowledge_match", 2.0, 3.0, 1],
        ["nlp.embed", 3.0, 4.0, 1],
        ["nlp.embed", 3.2, 3.5, 3],
        ["llm.complete", 6.0, 7.0, 0],
    ]
    metrics = tracing.layer_metrics(spans, {"exec.tasks": 4})
    assert metrics["classification.classify_s"] == 10.0
    assert metrics["llm.complete_self_s"] == pytest.approx(2.0 + 1.0)
    assert metrics["nlp.embed_calls"] == 1
    assert metrics["nlp.embed_s"] == 1.0
    assert metrics["llm.knowledge_match_calls"] == 1
    assert metrics["exec.tasks"] == 4
    assert metrics["analysis.stream_passes"] == 0


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_prints_every_metric(workload, monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setitem(run.WORKLOADS, workload, TINY_GPTS)
    args = ["--workload", workload, "--seed", "1", "--seconds", "0"]
    for trace, metrics in (("0", run.E2E_METRICS), ("1", tracing.LAYER_METRICS)):
        assert run.main(args + ["--trace", trace]) == 0
        printed = capsys.readouterr().out
        result = _last_json(printed)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 1 + int(trace)
        assert list(result["metrics"]) == [metric[0] for metric in metrics]
        lines = printed.splitlines()
        for name, unit, *_ in metrics:
            assert result["metrics"][name]["unit"] == unit
            assert any(line.startswith(name + " ") and unit in line for line in lines)


def test_tampered_reference_digest_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setitem(run.WORKLOADS, "paper_2k", TINY_GPTS)
    recorded = run.load_reference

    def tampered(workload, n_gpts):
        return dict(recorded(workload, n_gpts), report_sha256="0" * 64)

    monkeypatch.setattr(run, "load_reference", tampered)
    args = ["--workload", "paper_2k", "--seconds", "0"]
    assert run.main(args) == 1
    result = _last_json(capsys.readouterr().out)
    assert result == {**result, "correct": False, "attempted": 1, "failed": 1}


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_2k", "--seed", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
