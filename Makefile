# Development entry points.  Every PR runs `make ci` — lint, the tier-1
# test suite, the perf smoke benchmarks, and the perf regression gate —
# so regressions in style, correctness, or throughput are caught
# identically everywhere (.github/workflows/ci.yml runs exactly `make ci`
# on a 3.11/3.12 matrix and uploads the fresh BENCH_*.json artifacts).
#
# Benchmarks write their BENCH_*.json artifacts to the gitignored
# .benchmarks/fresh/ directory, so no test run rewrites a tracked file;
# the committed BENCH_*.json files at the root are the baselines
# `make perf-check` compares against, and only `make perf-rebase` moves
# fresh numbers over them.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

## Perf smoke benchmarks are timed individually by `make perf`; the tier-1
## ignore list is derived from the directory listing so a newly added
## benchmark is excluded automatically instead of being silently timed a
## second time by the plain test run.
PERF_BENCHES := $(wildcard benchmarks/test_bench_perf_*.py)

.PHONY: test test-process lint perf perf-nlp perf-crawl perf-sweep perf-scale perf-incr perf-check perf-rebase coverage ci

## Minimum total line coverage (percent) enforced by `make coverage`.
## Recorded when the coverage gate landed (measured ~95% total line
## coverage; the floor leaves margin for counting differences across
## coverage.py versions).  Raise it as coverage grows, never lower it to
## paper over a regression.
COVERAGE_BASELINE ?= 90

## tier-1: the full test suite (the driver's acceptance gate runs the bare
## command, which also collects the perf benchmarks; `make ci` runs the perf
## files separately, so exclude them here to avoid timing them twice)
test:
	$(PYTHON) -m pytest -x -q $(foreach bench,$(PERF_BENCHES),--ignore=$(bench))

## process-backend smoke: re-run the tests marked `process_smoke` (the
## execution contract on every backend name, WorkerPool lifecycle/broadcast/
## crash-replacement, sharded crawl, sharded suite) with
## REPRO_TEST_BACKEND=process, so the process kind of WorkerPool — a
## persistent ProcessPoolExecutor with broadcast-once shared state — is
## exercised end to end by CI even where those tests' default configuration
## would pick threads.
test-process:
	REPRO_TEST_BACKEND=process $(PYTHON) -m pytest -x -q -m process_smoke \
		$(foreach bench,$(PERF_BENCHES),--ignore=$(bench))

## style gate: ruff check (pyflakes/pycodestyle rules from ruff.toml) plus
## the black-compatible formatter in --check mode.  When ruff is not on
## PATH (this container ships no linters and installs are not allowed) the
## gate is skipped with a notice; the CI workflow installs ruff and
## enforces it for real.  The stdlib-only checks always run.  Analysis code
## must stream from a CorpusSource instead of calling load_corpus, and crawl
## code must hand its records to a sink instead of loading a store back
## (tools/check_no_materialize.py).  A BENCH_*.json refresh must not hide a
## >1.5x rss_import_floor_mb jump behind a flat rss_workload_mb
## (tools/check_bench_refresh.py).
lint:
	$(PYTHON) tools/check_no_materialize.py
	$(PYTHON) tools/check_bench_refresh.py
	@staged="$$(git ls-files | grep -E '(^|/)__pycache__/|\.py[co]$$' || true)"; \
	if [ -n "$$staged" ]; then \
		echo "ERROR: make lint: compiled bytecode is tracked by git in these files:"; \
		echo "$$staged" | sed 's/^/  - /'; \
		echo "fix: git rm -r --cached <each path above>  (and make sure .gitignore covers it)"; \
		exit 1; \
	fi
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check . && ruff format --check .; \
	else \
		echo "ruff not installed; skipping lint (the CI workflow installs and runs it)"; \
	fi

## perf smokes: time the NLP hot paths (BENCH_nlp.json), the concurrent
## crawl engine (BENCH_crawl.json), and the cached sweep engine
## (BENCH_sweep.json), then print the merged trajectory; every artifact
## lands in .benchmarks/fresh/
perf-nlp:
	$(PYTHON) -m pytest benchmarks/test_bench_perf_nlp.py -q -s

perf-crawl:
	$(PYTHON) -m pytest benchmarks/test_bench_perf_crawl.py -q -s

perf-sweep:
	$(PYTHON) -m pytest benchmarks/test_bench_perf_sweep.py -q -s

## perf-scale also runs the dispatch smoke (`dispatch_*` rows: one warm
## WorkerPool vs a fresh pool per batch, and per-task pickle bytes under
## the broadcast-once contract), so `make ci` gates pool amortization too,
## and the process-vs-thread scaling row at min(4, cores) workers.
perf-scale:
	$(PYTHON) -m pytest benchmarks/test_bench_perf_scale.py -q -s

## perf-incr times the incremental epoch re-crawl against a cold crawl of
## the same evolved world (`incr_recrawl_*` rows in BENCH_crawl.json) and
## gates the carry-forward speedup.
perf-incr:
	$(PYTHON) -m pytest benchmarks/test_bench_perf_incr.py -q -s

perf: perf-nlp perf-crawl perf-sweep perf-scale perf-incr
	$(PYTHON) benchmarks/perf_report.py

## coverage gate: total line coverage of repro/ must stay at or above
## COVERAGE_BASELINE.  Skipped with a notice when coverage.py is missing
## (this container ships without it); the CI coverage job installs it and
## enforces the floor for real.
coverage:
	@if $(PYTHON) -c "import coverage" 2>/dev/null; then \
		$(PYTHON) -m coverage run --source=repro -m pytest -q \
			$(foreach bench,$(PERF_BENCHES),--ignore=$(bench)) && \
		$(PYTHON) -m coverage report --fail-under=$(COVERAGE_BASELINE); \
	else \
		echo "coverage not installed; skipping (the CI coverage job installs and runs it)"; \
	fi

## regression gate: every fresh BENCH_*.json timing (.benchmarks/fresh/)
## must stay within 1.5x of the baseline committed at HEAD (new benchmarks
## are skipped until their first baseline lands)
perf-check:
	$(PYTHON) benchmarks/perf_report.py --check

## re-base: copy the fresh artifacts over the committed baselines at the
## root (review and commit them deliberately), then run the import-floor
## refresh gate on the result
perf-rebase:
	cp .benchmarks/fresh/BENCH_*.json .
	$(PYTHON) tools/check_bench_refresh.py

## what CI runs on every push/PR.  Phases run via sub-makes so the order
## (lint -> tests -> perf smokes -> regression gate over the fresh BENCH
## files the smokes just wrote) holds even under `make -jN`.
ci:
	$(MAKE) lint
	$(MAKE) test
	$(MAKE) test-process
	$(MAKE) perf
	$(MAKE) perf-check
