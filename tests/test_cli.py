"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.suite import MeasurementSuite, SuiteConfig
from repro.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS, run_all_experiments
from repro.reporting import render_experiment_report


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.gpts == 2000
        assert args.seed == 0
        assert args.command == "generate"
        assert args.shards == 0
        assert args.shard_workers == 0
        assert args.shard_dir is None

    def test_shard_flags(self):
        args = build_parser().parse_args(
            ["--shards", "8", "--shard-workers", "4", "--shard-dir", "/tmp/x", "analyze"]
        )
        assert args.shards == 8
        assert args.shard_workers == 4
        assert args.shard_dir == "/tmp/x"

    def test_experiment_requires_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment"])


class TestCommands:
    def test_generate(self, capsys):
        assert main(["--gpts", "200", "--seed", "3", "generate"]) == 0
        output = capsys.readouterr().out
        assert "SyntheticEcosystem" in output
        assert "200 GPTs" in output

    def test_crawl(self, capsys):
        assert main(["--gpts", "200", "--seed", "3", "crawl"]) == 0
        output = capsys.readouterr().out
        assert "Total unique GPTs: 200" in output
        assert "Policy availability" in output

    def test_crawl_sharded_output_identical(self, capsys, tmp_path):
        assert main(["--gpts", "150", "--seed", "3", "crawl"]) == 0
        plain = capsys.readouterr().out
        assert main([
            "--gpts", "150", "--seed", "3",
            "--shards", "3", "--shard-workers", "2",
            "--shard-dir", str(tmp_path / "shards"),
            "crawl",
        ]) == 0
        sharded = capsys.readouterr().out
        # Sharding is an execution knob: the printed Table 1 is identical,
        # and the shard store landed where --shard-dir pointed.
        assert sharded == plain
        assert (tmp_path / "shards" / "manifest.json").exists()

    def test_evolve(self, capsys):
        assert main(["--gpts", "200", "--seed", "3", "evolve", "--epochs", "2"]) == 0
        output = capsys.readouterr().out
        assert "epoch 1:" in output
        assert "epoch 2:" in output
        assert "re-described" in output
        assert "policies drifted" in output

    def test_evolve_rejects_zero_epochs(self, capsys):
        assert main(["evolve", "--epochs", "0"]) == 2
        assert "--epochs must be >= 1" in capsys.readouterr().err

    def test_crawl_incremental_epoch(self, capsys, tmp_path):
        parent_dir = str(tmp_path / "epoch0")
        base = ["--gpts", "150", "--seed", "3", "--shards", "3"]
        assert main(base + ["--shard-dir", parent_dir, "crawl"]) == 0
        capsys.readouterr()

        argv = base + [
            "--shard-dir", str(tmp_path / "epoch1"),
            "crawl", "--epoch", "1", "--parent-store", parent_dir,
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "Incremental epoch 1:" in output
        assert "carried forward" in output
        assert "requests for the delta" in output
        assert (tmp_path / "epoch1" / "manifest.json").exists()

    def test_crawl_parent_store_needs_shard_flags(self, capsys, tmp_path):
        argv = ["crawl", "--epoch", "1", "--parent-store", str(tmp_path / "p")]
        assert main(argv) == 2
        assert "--parent-store needs --shards" in capsys.readouterr().err

    def test_crawl_parent_store_needs_epoch(self, capsys, tmp_path):
        argv = [
            "--shards", "3", "--shard-dir", str(tmp_path / "out"),
            "crawl", "--parent-store", str(tmp_path / "p"),
        ]
        assert main(argv) == 2
        assert "--parent-store needs --epoch" in capsys.readouterr().err

    def test_analyze(self, capsys):
        assert main(["--gpts", "250", "--seed", "4", "analyze"]) == 0
        output = capsys.readouterr().out
        assert "Data categories observed" in output
        assert "Classifier" in output

    def test_experiment_table1(self, capsys):
        assert main(["--gpts", "200", "--seed", "3", "experiment", "table1"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "Paper" in output and "Measured" in output

    def test_experiment_unknown_id(self, capsys):
        assert main(["--gpts", "200", "experiment", "table99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        for known in ("table1", "figure9"):
            assert known in err

    def test_report_prints_the_golden_pinned_renderer(self, capsys):
        assert main(["--gpts", "120", "--seed", "3", "report"]) == 0
        suite = MeasurementSuite(config=SuiteConfig(n_gpts=120, seed=3))
        rendered = render_experiment_report(run_all_experiments(suite), 120, 3)
        assert capsys.readouterr().out == rendered + "\n"

    def test_sweep_smoke(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = [
            "--gpts", "90", "--seed", "2", "sweep",
            "--scenarios", "baseline,flaky-hosts", "--seeds", "2",
            "--workers", "2", "--experiments", "table1",
            "--cache-dir", str(cache),
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "4 cells" in output
        assert "baseline/seed2: computed" in output
        assert "flaky-hosts" in output
        assert "total_unique_gpts" in output

        # An unchanged grid re-run resumes entirely from the cache.
        assert main(argv + ["--resume", "--report"]) == 0
        output = capsys.readouterr().out
        assert "Cache: 4/4 cells" in output
        assert "hit rate 100%" in output
        assert "## Scenario deltas vs baseline" in output
        assert "## Paper comparison" in output

    def test_sweep_resume_requires_cache_dir(self, capsys):
        assert main(["sweep", "--resume"]) == 2
        assert "--resume requires --cache-dir" in capsys.readouterr().err

    def test_sweep_resume_requires_existing_cache(self, capsys, tmp_path):
        argv = ["sweep", "--resume", "--cache-dir", str(tmp_path / "empty")]
        assert main(argv) == 2
        assert "no cached artifacts" in capsys.readouterr().err

    def test_sweep_unknown_scenario(self, capsys):
        assert main(["sweep", "--scenarios", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "baseline" in err

    def test_export_writes_dataset(self, capsys, tmp_path):
        target = tmp_path / "dataset"
        assert main(["--gpts", "150", "--seed", "5", "export", str(target)]) == 0
        assert (target / "corpus.json").exists()
        assert (target / "policies.json").exists()
        assert "Wrote corpus" in capsys.readouterr().out

    def test_known_experiments_listed(self):
        # Guard: the CLI error message enumerates the registry; make sure the
        # registry has not silently shrunk.
        assert len(EXPERIMENTS) >= 18


class TestInvalidArguments:
    """Values a config validator refuses end in a message and exit code 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--gpts", "0", "generate"], "n_gpts must be positive"),
            (["--gpts", "-5", "generate"], "n_gpts must be positive"),
            (["--gpts", "0", "evolve"], "n_gpts must be positive"),
            (["--shards", "-1", "analyze"], "invalid SuiteConfig: shards must be >= 0"),
            (
                ["--shard-workers", "2", "analyze"],
                "invalid SuiteConfig: shard_workers has no effect without sharding",
            ),
        ],
    )
    def test_exit_2_with_the_message_and_no_traceback(self, argv, message):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 2
        assert message in completed.stderr
        assert "Traceback" not in completed.stderr
        assert completed.stdout == ""
