#!/usr/bin/env python
"""Lint gate: analysis and crawl code must not materialize the whole corpus.

The sharded measurement path exists so that every analysis stage holds one
record (or one shard) at a time.  Calling ``ShardedCorpusStore.load_corpus``
from code under ``src/repro/analysis/`` silently re-materializes the entire
corpus and defeats bounded-memory sharding, so ``make lint`` rejects it.
The crawl (``src/repro/crawler/``) is held to the same rule: it hands its
records to a sink (the shard writer, or the in-memory corpus of
``CrawlPipeline.run``), so it never needs to build its result by writing a
store and loading it back.

Rules (checked textually, per line, on ``src/repro/analysis/**/*.py`` and
``src/repro/crawler/**/*.py``):

* any ``load_corpus`` call is an error, unless the line carries an explicit
  ``lint-allow-materialize`` pragma comment explaining itself (today the
  only allowed site is ``MeasurementSuite.corpus`` — the documented
  compatibility property);
* ``corpus_from_payload`` / ``load_classification`` whole-file loads are
  rejected the same way — analysis code should consume a
  :class:`repro.io.CorpusSource` (``iter_records`` / ``iter_shard``) or the
  streaming accumulators instead.

Docstrings and comments that merely *mention* the banned names are fine:
a line only counts when the name is followed by an open parenthesis.

Exit status: 0 when clean, 1 with a file:line listing otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

BANNED = ("load_corpus", "corpus_from_payload", "load_classification")
PRAGMA = "lint-allow-materialize"
PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "repro"
CHECKED_DIRS = (PACKAGE_DIR / "analysis", PACKAGE_DIR / "crawler")

CALL_PATTERN = re.compile(
    r"\b(" + "|".join(re.escape(name) for name in BANNED) + r")\s*\("
)


def find_violations(root: Path) -> list[str]:
    violations: list[str] = []
    for path in sorted(root.rglob("*.py")):
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            match = CALL_PATTERN.search(line)
            if match is None or PRAGMA in line:
                continue
            violations.append(
                f"{path.relative_to(root.parent.parent.parent)}:{number}: "
                f"{match.group(1)}() materializes the whole corpus; consume a "
                f"CorpusSource (iter_records/iter_shard) or add a "
                f"'# {PRAGMA}: <reason>' pragma"
            )
    return violations


def main() -> int:
    violations: list[str] = []
    for directory in CHECKED_DIRS:
        if not directory.is_dir():
            print(f"check_no_materialize: missing directory {directory}", file=sys.stderr)
            return 1
        violations.extend(find_violations(directory))
    if violations:
        print("ERROR: make lint: whole-corpus materialization in analysis or crawl code:")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
