"""Tests for the perf-report artifact layer (``benchmarks/perf_report.py``).

Focus: the ``note_skipped`` bookkeeping that keeps gated-away benchmark
metrics visible — a skip must survive the write/load roundtrip, and
``gated_metric_notices`` must report a gated metric with no committed
baseline row as an explicit MISSING notice instead of letting ``--check``
pass silently forever.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import perf_report  # noqa: E402
from perf_report import (  # noqa: E402
    FRESH_DIR,
    REPO_ROOT,
    PerfReport,
    committed_report,
    gated_metric_notices,
    load_report,
    stale_missing_failures,
)


def _write(report, directory):
    return report.write(directory=directory)


class TestNoteSkippedRoundtrip:
    def test_skip_survives_write_and_load(self, tmp_path):
        report = PerfReport("gatedemo")
        report.record("measured_row", baseline_s=1.0, optimized_s=0.5, items=10)
        report.note_skipped("gated_row", "needs >= 4 cores (this runner has 1)")
        path = _write(report, tmp_path)

        loaded = load_report(path)
        assert loaded.skipped == {
            "gated_row": "needs >= 4 cores (this runner has 1)"
        }
        assert loaded["measured_row"].speedup == 2.0

    def test_no_skips_keeps_artifact_schema_unchanged(self, tmp_path):
        report = PerfReport("plaindemo")
        report.record("row", baseline_s=1.0, optimized_s=1.0, items=1)
        path = _write(report, tmp_path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert "skipped" not in payload
        assert load_report(path).skipped == {}


class TestGatedMetricNotices:
    def test_unrecorded_gated_metric_is_missing(self, tmp_path):
        """No committed baseline row anywhere + skipped this run = MISSING."""
        report = PerfReport("gatedemo")
        report.record("measured_row", baseline_s=1.0, optimized_s=0.5, items=10)
        report.note_skipped("gated_row", "needs >= 4 cores")
        _write(report, tmp_path)

        notices = gated_metric_notices(directory=tmp_path)
        assert len(notices) == 1
        assert notices[0].startswith("MISSING BENCH_gatedemo.json: gated_row")
        assert "needs >= 4 cores" in notices[0]
        assert "no committed baseline row" in notices[0]

    def test_metric_recorded_this_run_needs_no_notice(self, tmp_path):
        """A metric that skipped its *assertion* but still recorded its row
        (the dispatch benchmarks' pattern) is not a gap."""
        report = PerfReport("gatedemo")
        report.record("gated_row", baseline_s=2.0, optimized_s=1.0, items=5)
        report.note_skipped("gated_row", "speedup gate needs >= 4 cores")
        _write(report, tmp_path)
        assert gated_metric_notices(directory=tmp_path) == []

    def test_gated_metric_with_committed_row_stands(self, tmp_path):
        """Skipped this run but measured in the committed baseline: noticed,
        not MISSING — the old row remains the reference."""
        committed = committed_report(Path("BENCH_scale.json"))
        if committed is None or not committed.records:
            pytest.skip("no committed BENCH_scale.json baseline in this checkout")
        metric = committed.records[0].name

        report = PerfReport("scale")  # resolves against HEAD:BENCH_scale.json
        report.note_skipped(metric, "gated on this runner")
        _write(report, tmp_path)

        notices = gated_metric_notices(directory=tmp_path)
        assert len(notices) == 1
        assert not notices[0].startswith("MISSING")
        assert "the committed baseline row stands" in notices[0]

    def test_artifact_without_skips_is_silent(self, tmp_path):
        report = PerfReport("plaindemo")
        report.record("row", baseline_s=1.0, optimized_s=1.0, items=1)
        _write(report, tmp_path)
        assert gated_metric_notices(directory=tmp_path) == []


class TestMergeWithPrior:
    """Two benchmark modules share one artifact: a refresh by either must
    preserve the other's rows, skips, and foreign sections (the pattern the
    cold-crawl and incremental-crawl benches use for ``BENCH_crawl.json``)."""

    def test_other_modules_rows_survive_a_refresh(self, tmp_path):
        first = PerfReport("shared")
        first.record("cold_crawl", baseline_s=4.0, optimized_s=2.0, items=100)
        _write(first, tmp_path)

        second = PerfReport("shared")
        second.record("incr_crawl", baseline_s=8.0, optimized_s=1.0, items=100)
        path = _write(second, tmp_path)

        merged = load_report(path)
        assert merged["cold_crawl"].optimized_s == 2.0
        assert merged["incr_crawl"].speedup == 8.0
        # Prior row order first, new names appended: diff-stable refreshes.
        assert [entry.name for entry in merged.records] == ["cold_crawl", "incr_crawl"]

    def test_rerecorded_row_takes_the_fresh_value(self, tmp_path):
        first = PerfReport("shared")
        first.record("row", baseline_s=4.0, optimized_s=2.0, items=100)
        _write(first, tmp_path)

        second = PerfReport("shared")
        second.record("row", baseline_s=4.0, optimized_s=1.0, items=100)
        merged = load_report(_write(second, tmp_path))
        assert len(merged.records) == 1
        assert merged["row"].optimized_s == 1.0

    def test_foreign_sections_survive_a_refresh(self, tmp_path):
        target = tmp_path / "BENCH_shared.json"
        target.write_text(
            json.dumps(
                {
                    "benchmark": "shared",
                    "records": [],
                    "invariants": {"rss_import_floor_mb_2000": 321.1},
                }
            ),
            encoding="utf-8",
        )
        report = PerfReport("shared")
        report.record("row", baseline_s=1.0, optimized_s=0.5, items=1)
        payload = json.loads(_write(report, tmp_path).read_text(encoding="utf-8"))
        assert payload["invariants"] == {"rss_import_floor_mb_2000": 321.1}

    def test_prior_skips_survive_until_measured(self, tmp_path):
        first = PerfReport("shared")
        first.note_skipped("gated_row", "needs >= 4 cores")
        _write(first, tmp_path)

        # A refresh by a module that never mentions the metric keeps it.
        second = PerfReport("shared")
        second.record("other_row", baseline_s=1.0, optimized_s=0.5, items=1)
        merged = load_report(_write(second, tmp_path))
        assert merged.skipped == {"gated_row": "needs >= 4 cores"}

        # Measuring the metric resolves the skip note.
        third = PerfReport("shared")
        third.record("gated_row", baseline_s=2.0, optimized_s=1.0, items=1)
        payload = json.loads(_write(third, tmp_path).read_text(encoding="utf-8"))
        assert "gated_row" not in payload.get("skipped", {})


class TestSkipHistoryAging:
    """Unmeasured gated metrics age in ``skip_history`` until they either
    get measured (entry dropped) or go stale enough to fail the gate."""

    def test_refresh_count_ages_and_first_seen_sticks(self, tmp_path):
        first = PerfReport("aging")
        first.note_skipped("gated_row", "needs >= 4 cores")
        path = _write(first, tmp_path)
        entry = json.loads(path.read_text(encoding="utf-8"))["skip_history"]["gated_row"]
        assert entry["refreshes"] == 1
        first_seen = entry["first_seen"]

        second = PerfReport("aging")
        second.record("other_row", baseline_s=1.0, optimized_s=0.5, items=1)
        entry = json.loads(
            _write(second, tmp_path).read_text(encoding="utf-8")
        )["skip_history"]["gated_row"]
        assert entry["refreshes"] == 2
        assert entry["first_seen"] == first_seen

    def test_measuring_the_metric_drops_its_history(self, tmp_path):
        first = PerfReport("aging")
        first.note_skipped("gated_row", "needs >= 4 cores")
        _write(first, tmp_path)

        second = PerfReport("aging")
        second.record("gated_row", baseline_s=2.0, optimized_s=1.0, items=1)
        payload = json.loads(_write(second, tmp_path).read_text(encoding="utf-8"))
        assert "skip_history" not in payload

    def test_stale_missing_escalates_past_the_grace_period(self, tmp_path):
        (tmp_path / "BENCH_aging.json").write_text(
            json.dumps(
                {
                    "benchmark": "aging",
                    "records": [],
                    "skipped": {"gated_row": "needs >= 4 cores"},
                    "skip_history": {
                        "gated_row": {"first_seen": "2026-07-01", "refreshes": 5}
                    },
                }
            ),
            encoding="utf-8",
        )
        failures = stale_missing_failures(directory=tmp_path, max_refreshes=5)
        assert len(failures) == 1
        assert failures[0].startswith("STALE-MISSING BENCH_aging.json: gated_row")
        assert "2026-07-01" in failures[0]
        # Inside the grace period the same artifact only rates a notice.
        assert stale_missing_failures(directory=tmp_path, max_refreshes=6) == []

    def test_fresh_row_resolves_a_stale_history_entry(self, tmp_path):
        (tmp_path / "BENCH_aging.json").write_text(
            json.dumps(
                {
                    "benchmark": "aging",
                    "records": [
                        {
                            "name": "gated_row",
                            "baseline_s": 2.0,
                            "optimized_s": 1.0,
                            "items": 1,
                        }
                    ],
                    "skip_history": {
                        "gated_row": {"first_seen": "2026-07-01", "refreshes": 9}
                    },
                }
            ),
            encoding="utf-8",
        )
        assert stale_missing_failures(directory=tmp_path, max_refreshes=5) == []


class TestFreshArtifacts:
    """Benchmarks write to the gitignored fresh directory, never the root."""

    def _porcelain(self) -> str:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), "status", "--porcelain", "--untracked-files=all"],
            capture_output=True, text=True, check=True,
        ).stdout

    def test_bench_style_write_leaves_git_status_unchanged(self):
        if shutil.which("git") is None or not (REPO_ROOT / ".git").exists():
            pytest.skip("needs a git checkout")
        before = self._porcelain()
        report = PerfReport("tier1_write_probe")
        report.record("probe", baseline_s=2.0, optimized_s=1.0, items=1)
        path = report.write()
        try:
            assert path == FRESH_DIR / "BENCH_tier1_write_probe.json"
            assert self._porcelain() == before
        finally:
            path.unlink()

    def test_first_fresh_write_merges_the_root_baseline(self, tmp_path, monkeypatch):
        fresh = tmp_path / ".benchmarks" / "fresh"
        monkeypatch.setattr(perf_report, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(perf_report, "FRESH_DIR", fresh)
        committed = PerfReport("merge")
        committed.record("other_module_row", baseline_s=4.0, optimized_s=2.0, items=1)
        committed.record("rerun_row", baseline_s=2.0, optimized_s=1.0, items=1)
        committed.write(directory=tmp_path)

        first = PerfReport("merge")
        first.record("rerun_row", baseline_s=2.0, optimized_s=0.5, items=1)
        merged = load_report(first.write())
        assert [entry.name for entry in merged.records] == ["other_module_row", "rerun_row"]
        assert merged["rerun_row"].optimized_s == 0.5

        # Later writes merge with the fresh file; the root stays untouched.
        second = PerfReport("merge")
        second.record("new_row", baseline_s=1.0, optimized_s=1.0, items=1)
        merged = load_report(second.write())
        assert merged["rerun_row"].optimized_s == 0.5
        assert [entry.name for entry in load_report(tmp_path / "BENCH_merge.json").records] == [
            "other_module_row", "rerun_row"
        ]


class TestUnits:
    """Rows carry a unit: the RSS and payload rows are not timings."""

    def test_table_and_gate_rows_print_each_value_with_its_unit(self):
        report = PerfReport("unitdemo")
        report.record("wall", baseline_s=2.0, optimized_s=1.0, items=1)
        report.record("peak_rss", baseline_s=60.0, optimized_s=65.664, items=1, unit="MB")
        report.record("pickle", baseline_s=8.0, optimized_s=0.02, items=1, unit="KB")
        table = report.format_table()
        assert "2.000 s " in table and "1.000 s " in table
        assert "60.000 MB" in table and "65.664 MB" in table
        assert "8.000 KB" in table and "0.020 KB" in table
        assert "65.664s" not in table and "0.020s" not in table
        row = perf_report.RegressionCheck(
            "unitdemo", "peak_rss", committed_s=60.0, fresh_s=65.664, threshold=1.5, unit="MB"
        ).format_row()
        assert "60.000 MB" in row and "65.664 MB" in row and "s " not in row.split("peak_rss")[1]

    def test_unit_survives_write_and_load(self, tmp_path):
        report = PerfReport("unitdemo")
        report.record("wall", baseline_s=2.0, optimized_s=1.0, items=1)
        report.record("peak_rss", baseline_s=60.0, optimized_s=65.0, items=1, unit="MB")
        loaded = load_report(_write(report, tmp_path))
        assert [(entry.name, entry.unit) for entry in loaded.records] == [
            ("wall", "s"),
            ("peak_rss", "MB"),
        ]

    def test_rows_without_a_unit_load_as_seconds(self, tmp_path):
        path = tmp_path / "BENCH_legacy.json"
        path.write_text(
            json.dumps(
                {
                    "benchmark": "legacy",
                    "records": [
                        {"name": "row", "baseline_s": 2.0, "optimized_s": 1.0, "items": 1}
                    ],
                }
            ),
            encoding="utf-8",
        )
        assert load_report(path)["row"].unit == "s"
        committed = committed_report(Path("BENCH_scale.json"))
        if committed is not None:
            assert {entry.unit for entry in committed.records} <= {"s", "MB", "KB"}

    def test_jitter_floor_applies_only_to_timings(self, tmp_path, monkeypatch):
        committed = PerfReport("unitdemo")
        committed.record("fast_timing", baseline_s=0.01, optimized_s=0.01, items=1)
        committed.record("tiny_payload", baseline_s=8.0, optimized_s=0.02, items=1)
        committed.record("slow_timing", baseline_s=1.0, optimized_s=1.0, items=1)
        monkeypatch.setattr(perf_report, "committed_report", lambda path: committed)
        fresh = PerfReport("unitdemo")
        fresh.record("fast_timing", baseline_s=0.01, optimized_s=0.03, items=1)
        fresh.record("tiny_payload", baseline_s=8.0, optimized_s=0.04, items=1, unit="KB")
        fresh.record("slow_timing", baseline_s=1.0, optimized_s=1.2, items=1)
        _write(fresh, tmp_path)
        checks = perf_report.check_regressions(directory=tmp_path)
        assert [(check.metric, check.unit, check.ok) for check in checks] == [
            ("tiny_payload", "KB", False),
            ("slow_timing", "s", True),
        ]


class TestColumnWidths:
    """The name column fits the longest name, so values stay in column."""

    LONG = "crawl_2000_sharded_vs_unsharded_rss_mb"

    def test_a_38_character_name_keeps_every_value_column_aligned(self):
        assert len(self.LONG) == 38
        report = PerfReport("widths")
        checks = []
        for name in ("wall", self.LONG):
            report.record(name, baseline_s=60.0, optimized_s=65.664, items=3, unit="MB")
            checks.append(
                perf_report.RegressionCheck(
                    "crawl", name, committed_s=60.0, fresh_s=65.664, threshold=1.5, unit="MB"
                )
            )
        table = report.format_table().splitlines()
        gate = perf_report.format_checks(checks)
        assert len({len(line) for line in table}) == 1
        for lines, offset, label in (
            (table, len(self.LONG), "benchmark"),
            (gate, 10 + 1 + len(self.LONG), "metric"),
        ):
            header, _, short_row, long_row = lines
            # The name column ends at the same offset on every line, and
            # equal values print identically after it.
            assert header[:offset].rstrip().endswith(label)
            assert long_row[:offset].rstrip().endswith(self.LONG)
            assert header[offset] == short_row[offset] == long_row[offset] == " "
            assert short_row[offset:] == long_row[offset:]
