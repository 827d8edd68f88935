"""Helpers for recording, reporting, and *gating* performance benchmarks.

Perf benchmarks time a baseline implementation against its optimized
replacement, print a compact table, and persist the measurements to a
fresh ``BENCH_<name>.json`` artifact under the gitignored
``.benchmarks/fresh/`` directory.  The committed ``BENCH_*.json`` files at
the repository root are the baselines; a test run never rewrites them.
Re-basing is an explicit step, ``make perf-rebase``, which copies the
fresh artifacts to the root.

Usage from a benchmark test::

    report = PerfReport("nlp")
    report.record("embed_5000", baseline_s=t0, optimized_s=t1, items=5000)
    ...
    print(report.format_table())
    report.write()

Run as a script, ``python benchmarks/perf_report.py`` prints the merged
trajectory of every fresh ``BENCH_*.json`` artifact, and ``--check`` turns
them into a regression gate: each freshly measured ``optimized_s`` timing
is compared against the artifact committed at ``HEAD`` (via ``git show``),
and any metric more than ``--threshold`` (default 1.5×) slower fails the
run with a non-zero exit — this is the last step of ``make ci``.  With no
fresh artifact at all, ``--check`` fails too: nothing was measured.
Artifacts with no committed baseline (a brand-new benchmark) and metrics
whose committed timing sits below the ``--min-baseline-s`` jitter floor
(default 50 ms — sub-jitter ratios measure scheduler noise) are reported
and skipped, not failed.  Metrics a benchmark *gated away*
on this runner (recorded via :meth:`PerfReport.note_skipped`, e.g. a
CPU-scaling comparison below its core-count floor) are surfaced as
notices; one with no committed baseline row anywhere prints an explicit
``MISSING`` line instead of passing silently — and one that stays MISSING
across five artifact refreshes (aged per-metric in the artifact's
``skip_history`` section) escalates from notice to gate failure.
"""

from __future__ import annotations

import json
import platform
import subprocess
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Repository root (benchmarks/ lives directly below it).
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Where benchmark runs write their artifacts (gitignored).
FRESH_DIR = REPO_ROOT / ".benchmarks" / "fresh"


def prior_artifact(name: str) -> Path:
    """The artifact a fresh ``BENCH_<name>.json`` refresh merges with.

    The fresh file when an earlier run wrote one, else the committed
    baseline at the root, so a first fresh write keeps the rows (and row
    order) of benchmarks this run did not re-record.
    """
    fresh = FRESH_DIR / f"BENCH_{name}.json"
    return fresh if fresh.exists() else REPO_ROOT / fresh.name


@dataclass
class PerfRecord:
    """One timed comparison between a baseline and an optimized path.

    ``baseline_s`` and ``optimized_s`` are in ``unit``: seconds, unless a
    row measures memory (``"MB"``) or payload size (``"KB"``).  Artifacts
    written before rows carried a unit hold only seconds rows by that name.
    """

    name: str
    baseline_s: float
    optimized_s: float
    items: int
    unit: str = "s"

    @property
    def speedup(self) -> float:
        if self.optimized_s <= 0:
            return float("inf")
        return self.baseline_s / self.optimized_s

    @property
    def optimized_throughput(self) -> float:
        """Items per second through the optimized path."""
        if self.optimized_s <= 0:
            return float("inf")
        return self.items / self.optimized_s


@dataclass
class PerfReport:
    """Collects :class:`PerfRecord` rows and writes the JSON artifact."""

    name: str
    records: List[PerfRecord] = field(default_factory=list)
    #: Metrics a benchmark *gated away* on this runner (e.g. a CPU-scaling
    #: comparison skipped below a core-count floor), keyed by metric name
    #: with the skip reason.  Persisted so ``--check`` can distinguish "the
    #: row was measured" from "the row silently never ran" — a gated metric
    #: with no committed baseline anywhere is reported as MISSING.
    skipped: Dict[str, str] = field(default_factory=dict)

    def record(
        self, name: str, baseline_s: float, optimized_s: float, items: int, unit: str = "s"
    ) -> PerfRecord:
        entry = PerfRecord(
            name=name, baseline_s=baseline_s, optimized_s=optimized_s, items=items, unit=unit
        )
        self.records.append(entry)
        return entry

    def note_skipped(self, name: str, reason: str) -> None:
        """Record that a gated metric did not run on this runner (and why)."""
        self.skipped[name] = reason

    def __getitem__(self, name: str) -> PerfRecord:
        for entry in self.records:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def format_table(self) -> str:
        """A compact, aligned timing table for terminal output.

        The name column is as wide as the longest name, header included.
        """
        width = max([len("benchmark")] + [len(entry.name) for entry in self.records])
        header = (
            f"{'benchmark':<{width}} {'items':>7} {'baseline':>12} {'optimized':>12} "
            f"{'speedup':>8}"
        )
        lines = [header, "-" * len(header)]
        for entry in self.records:
            lines.append(
                f"{entry.name:<{width}} {entry.items:>7d} "
                f"{entry.baseline_s:>9.3f} {entry.unit:<2} "
                f"{entry.optimized_s:>9.3f} {entry.unit:<2} "
                f"{entry.speedup:>7.1f}x"
            )
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "benchmark": self.name,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "records": [
                {**asdict(entry), "speedup": entry.speedup} for entry in self.records
            ],
        }
        if self.skipped:
            payload["skipped"] = dict(self.skipped)
        return payload

    def write(self, directory: Optional[Path] = None) -> Path:
        """Write ``BENCH_<name>.json`` (default: :data:`FRESH_DIR`).

        Records are emitted in the *prior* file's order (new names appended)
        so a baseline refresh diffs as value changes only — test execution
        order must not reshuffle rows and obscure what actually moved.

        The write **merges with the prior file** rather than clobbering it:
        rows, skip notes, and foreign sections (e.g. the scale bench's
        ``invariants``) that this run did not re-record are preserved, so
        several benchmark modules can share one artifact (the crawl and
        incremental-crawl smokes both feed ``BENCH_crawl.json``) and
        refreshing one never silently drops the other's rows.  Skip notes
        for metrics still unmeasured are aged in a ``skip_history`` section
        (first-seen date + refresh count) so ``--check`` can escalate
        long-stale MISSING rows from notice to failure; a note resolves —
        and its history entry is dropped — the moment the metric is
        recorded.  In the default directory the prior file is
        :func:`prior_artifact`'s; in an explicit one, the file it replaces.
        """
        if directory is None:
            FRESH_DIR.mkdir(parents=True, exist_ok=True)
            target = FRESH_DIR / f"BENCH_{self.name}.json"
            prior_path = prior_artifact(self.name)
        else:
            target = Path(directory) / f"BENCH_{self.name}.json"
            prior_path = target
        payload = self.as_dict()
        fresh_names = {entry.name for entry in self.records}
        try:
            prior = json.loads(prior_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            prior = None
        if isinstance(prior, dict):
            payload["records"] = list(payload["records"]) + [
                entry
                for entry in prior.get("records", [])
                if isinstance(entry, dict) and str(entry.get("name")) not in fresh_names
            ]
            merged_skips = {
                str(metric): str(reason)
                for metric, reason in (prior.get("skipped") or {}).items()
                if str(metric) not in fresh_names
            }
            merged_skips.update(payload.get("skipped", {}))  # type: ignore[arg-type]
            if merged_skips:
                payload["skipped"] = merged_skips
        prior_history = (
            {
                str(metric): dict(entry)
                for metric, entry in (prior.get("skip_history") or {}).items()
                if isinstance(entry, dict)
            }
            if isinstance(prior, dict)
            else {}
        )
        final_names = {str(entry["name"]) for entry in payload["records"]}  # type: ignore[index]
        history: Dict[str, Dict[str, object]] = {}
        for metric in sorted(payload.get("skipped", {})):  # type: ignore[arg-type]
            if metric in final_names:
                continue
            entry = prior_history.get(metric, {})
            history[metric] = {
                "first_seen": str(entry.get("first_seen") or _today()),
                "refreshes": int(entry.get("refreshes", 0)) + 1,
            }
        if history:
            payload["skip_history"] = history
        if isinstance(prior, dict):
            # Sections other writers own (the scale bench's invariants)
            # survive a refresh by this report.  The sections this writer
            # owns are excluded: an absent "skipped"/"skip_history" here
            # means every note resolved, not that the prior values stand.
            owned = ("benchmark", "platform", "python", "records", "skipped", "skip_history")
            for key, value in prior.items():
                if key not in payload and key not in owned:
                    payload[key] = value
        prior_order = prior_key_order(prior_path, "records")
        if prior_order:
            rank = {name: index for index, name in enumerate(prior_order)}
            payload["records"] = sorted(
                payload["records"],  # type: ignore[arg-type]
                key=lambda entry: rank.get(str(entry["name"]), len(rank)),
            )
        target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return target


def peak_rss_raw():
    """This process's own peak RSS, in ``ru_maxrss`` units (KiB on Linux).

    Reads ``VmHWM`` from ``/proc/self/status`` where available.  Unlike
    ``getrusage().ru_maxrss`` — which Linux carries across ``fork``+``exec``
    in ``signal->maxrss``, so a child process *starts* at whatever RSS
    high-water mark its parent had ever reached — ``VmHWM`` belongs to the
    process's own fresh ``mm`` and resets on exec.  Measuring the child
    probes with ``ru_maxrss`` made their "import floor" track the
    coordinating pytest process's historical peak (the recurring
    141→321 MB baseline refresh artifacts previously attributed to
    allocator/THP state).  Falls back to ``ru_maxrss`` off Linux; both are
    KiB on Linux (``ru_maxrss`` is bytes on macOS).  Self-contained, so a
    benchmark can embed its source in a child probe with
    ``inspect.getsource``.
    """
    import resource

    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _today() -> str:
    """Today's ISO date (the skip-history first-seen stamp)."""
    import datetime

    return datetime.date.today().isoformat()


def prior_key_order(path: Path, section: str) -> List[str]:
    """Key order of ``section`` in an existing ``BENCH_*.json``, or ``[]``.

    For ``"records"`` this is the sequence of record names; for a mapping
    section (``"invariants"``) it is the insertion order of keys.  Refresh
    writers use it to keep artifacts diff-stable across reruns.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return []
    section_value = payload.get(section)
    if isinstance(section_value, list):
        return [
            str(entry.get("name"))
            for entry in section_value
            if isinstance(entry, dict) and "name" in entry
        ]
    if isinstance(section_value, dict):
        return [str(key) for key in section_value]
    return []


def _report_from_payload(payload: Dict[str, object], path: Path) -> PerfReport:
    """A :class:`PerfReport` from a parsed ``BENCH_<name>.json`` artifact."""
    report = PerfReport(str(payload.get("benchmark", Path(path).stem)))
    for entry in payload.get("records", []):  # type: ignore[union-attr]
        report.record(
            name=str(entry["name"]),
            baseline_s=float(entry["baseline_s"]),
            optimized_s=float(entry["optimized_s"]),
            items=int(entry["items"]),
            unit=str(entry.get("unit", "s")),
        )
    return report


def load_report(path: Path) -> PerfReport:
    """Load a ``BENCH_<name>.json`` artifact back into a :class:`PerfReport`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    report = _report_from_payload(payload, path)
    for name, reason in payload.get("skipped", {}).items():
        report.note_skipped(str(name), str(reason))
    return report


def merged_summary(directory: Optional[Path] = None) -> str:
    """One table merging every ``BENCH_*.json`` artifact in ``directory``
    (default: the fresh artifacts).

    This is what ``make ci`` prints after the perf smokes run, so the NLP
    and crawl trajectories are read side by side.
    """
    root = directory or FRESH_DIR
    lines: List[str] = []
    for path in sorted(root.glob("BENCH_*.json")):
        report = load_report(path)
        lines.append(f"== {report.name} ({path.name}) ==")
        lines.append(report.format_table())
        lines.append("")
    if not lines:
        return "no BENCH_*.json artifacts found"
    return "\n".join(lines).rstrip()


def committed_report(path: Path) -> Optional[PerfReport]:
    """The ``HEAD``-committed version of a ``BENCH_*.json`` artifact.

    Returns ``None`` when the file has no usable committed baseline (new
    benchmark, shallow environment without git, malformed committed JSON,
    …) so callers can skip rather than fail.
    """
    try:
        completed = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "show", f"HEAD:{Path(path).name}"],
            capture_output=True,
            text=True,
            check=True,
        )
        return _report_from_payload(json.loads(completed.stdout), path)
    except (OSError, subprocess.CalledProcessError, ValueError, KeyError, TypeError):
        return None


@dataclass
class RegressionCheck:
    """One fresh-vs-committed comparison, in the fresh row's unit."""

    benchmark: str
    metric: str
    committed_s: float
    fresh_s: float
    threshold: float
    unit: str = "s"

    @property
    def slowdown(self) -> float:
        if self.committed_s <= 0:
            return 1.0
        return self.fresh_s / self.committed_s

    @property
    def ok(self) -> bool:
        return self.slowdown <= self.threshold

    def format_row(self, metric_width: int = 0) -> str:
        """One gate row; ``metric_width`` pads the metric-name column."""
        status = "ok" if self.ok else "REGRESSION"
        return (
            f"{self.benchmark:<10} {self.metric:<{metric_width}} "
            f"{self.committed_s:>9.3f} {self.unit:<2} {self.fresh_s:>9.3f} {self.unit:<2} "
            f"{self.slowdown:>6.2f}x  {status}"
        )


def check_regressions(
    threshold: float = 1.5,
    directory: Optional[Path] = None,
    min_baseline_s: float = 0.05,
) -> List[RegressionCheck]:
    """Compare every fresh ``BENCH_*.json`` against its committed baseline.

    Only metrics recorded on both sides are compared (a renamed or new
    metric has no baseline yet); whole artifacts without a committed
    baseline are skipped with a note.  Timings (rows in seconds, by the
    fresh row's unit) whose committed value is below ``min_baseline_s`` are
    exempt: at sub-jitter durations the ratio measures scheduler noise, not
    a regression.  ``directory`` defaults to the fresh artifacts.
    """
    root = directory or FRESH_DIR
    checks: List[RegressionCheck] = []
    for path in sorted(root.glob("BENCH_*.json")):
        fresh = load_report(path)
        baseline = committed_report(path)
        if baseline is None:
            print(f"-- {path.name}: no committed baseline; skipping")
            continue
        baseline_by_name = {entry.name: entry for entry in baseline.records}
        for entry in fresh.records:
            committed = baseline_by_name.get(entry.name)
            if committed is None:
                print(f"-- {path.name}: metric {entry.name!r} is new; skipping")
                continue
            if entry.unit == "s" and committed.optimized_s < min_baseline_s:
                print(
                    f"-- {path.name}: {entry.name} baseline "
                    f"{committed.optimized_s:.3f}s is below the "
                    f"{min_baseline_s:.3f}s jitter floor; skipping"
                )
                continue
            checks.append(
                RegressionCheck(
                    benchmark=fresh.name,
                    metric=entry.name,
                    committed_s=committed.optimized_s,
                    fresh_s=entry.optimized_s,
                    threshold=threshold,
                    unit=entry.unit,
                )
            )
    return checks


def gated_metric_notices(directory: Optional[Path] = None) -> List[str]:
    """Notices for metrics a benchmark gated away instead of measuring.

    For each fresh artifact's ``skipped`` entries (see
    :meth:`PerfReport.note_skipped`): a metric that was nonetheless
    recorded this run needs no notice; one with a committed baseline row
    gets a "baseline stands" note; one with **no committed row anywhere**
    is reported as an explicit ``MISSING`` line — the row has never been
    measured on a capable runner, and ``--check`` would otherwise pass
    silently forever.  Notices never fail the gate; they keep
    skipped-on-this-runner rows visible.
    """
    root = directory or FRESH_DIR
    notices: List[str] = []
    for path in sorted(root.glob("BENCH_*.json")):
        fresh = load_report(path)
        if not fresh.skipped:
            continue
        fresh_names = {entry.name for entry in fresh.records}
        baseline = committed_report(path)
        baseline_names = (
            {entry.name for entry in baseline.records} if baseline is not None else set()
        )
        for metric, reason in sorted(fresh.skipped.items()):
            if metric in fresh_names:
                continue
            if metric in baseline_names:
                notices.append(
                    f"-- {path.name}: {metric} skipped this run ({reason}); "
                    "the committed baseline row stands"
                )
            else:
                notices.append(
                    f"MISSING {path.name}: {metric} — gated benchmark skipped "
                    f"on this runner ({reason}) and no committed baseline row "
                    "exists; run the benchmark on a capable runner to commit one"
                )
    return notices


def stale_missing_failures(
    directory: Optional[Path] = None, max_refreshes: int = 5
) -> List[str]:
    """MISSING notices that have persisted long enough to fail the gate.

    A gated metric with no committed baseline row starts as a notice — a
    freshly added hardware-gated benchmark deserves a grace period.  But
    one that has stayed unmeasured across ``max_refreshes`` artifact
    refreshes (tracked per-metric in the artifact's ``skip_history``
    section, written by :meth:`PerfReport.write`) has stopped being new:
    the row will never appear on its own, so ``--check`` fails until a
    capable runner measures it and commits the row.  A metric that gained
    a fresh or committed row resolves silently.
    """
    root = directory or FRESH_DIR
    failures: List[str] = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        history = payload.get("skip_history")
        if not isinstance(history, dict):
            continue
        fresh_names = {
            str(entry.get("name"))
            for entry in payload.get("records", [])
            if isinstance(entry, dict)
        }
        baseline = committed_report(path)
        baseline_names = (
            {entry.name for entry in baseline.records} if baseline is not None else set()
        )
        for metric, entry in sorted(history.items()):
            if metric in fresh_names or metric in baseline_names:
                continue
            refreshes = int(entry.get("refreshes", 0)) if isinstance(entry, dict) else 0
            if refreshes < max_refreshes:
                continue
            first_seen = entry.get("first_seen", "?") if isinstance(entry, dict) else "?"
            failures.append(
                f"STALE-MISSING {path.name}: {metric} has had no committed "
                f"baseline row for {refreshes} refreshes (first seen "
                f"{first_seen}); measure it on a capable runner and commit "
                "the row"
            )
    return failures


def format_checks(checks: Sequence[RegressionCheck]) -> List[str]:
    """The ``--check`` table: header, rule and one row per check.

    The metric column is as wide as the longest metric name, header included.
    """
    width = max([len("metric")] + [len(check.metric) for check in checks])
    header = (
        f"{'benchmark':<10} {'metric':<{width}} {'committed':>12} {'fresh':>12} "
        f"{'ratio':>6}  status"
    )
    return [header, "-" * len(header)] + [check.format_row(width) for check in checks]


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: print the merged trajectory, or gate on regressions with --check."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="fail (exit 1) when any fresh metric regressed past --threshold",
    )
    parser.add_argument(
        "--threshold", type=float, default=1.5,
        help="maximum tolerated slowdown versus the committed baseline",
    )
    parser.add_argument(
        "--min-baseline-s", type=float, default=0.05,
        help="exempt metrics whose committed timing is below this (jitter floor)",
    )
    args = parser.parse_args(argv)
    if not args.check:
        print(merged_summary())
        return 0
    if not list(FRESH_DIR.glob("BENCH_*.json")):
        print(f"perf gate FAILED: no fresh BENCH_*.json in {FRESH_DIR}; run `make perf` first")
        return 1

    checks = check_regressions(threshold=args.threshold, min_baseline_s=args.min_baseline_s)
    for line in format_checks(checks):
        print(line)
    notices = gated_metric_notices()
    if notices:
        print()
        for notice in notices:
            print(notice)
    stale = stale_missing_failures()
    if stale:
        print()
        for line in stale:
            print(line)
    failures = [check for check in checks if not check.ok]
    if failures or stale:
        problems = []
        if failures:
            problems.append(
                f"{len(failures)} metric(s) regressed past "
                f"{args.threshold:.2f}x the committed baseline"
            )
        if stale:
            problems.append(
                f"{len(stale)} gated metric(s) stale-MISSING past the "
                "refresh grace period"
            )
        print(f"\nperf gate FAILED: {'; '.join(problems)}")
        return 1
    print(f"\nperf gate ok: {len(checks)} metric(s) within {args.threshold:.2f}x")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI convenience
    raise SystemExit(main())
