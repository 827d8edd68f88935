"""Tests for the execution contract on every backend name (serial / thread / process).

The contract under test: outcomes merge in submission order on every kind
of :class:`WorkerPool`, per-task exceptions become outcomes (not raises),
``on_result`` streams completions serially, a thread-kind run holds no
threads once it returns, and the process kind's per-task RNG re-seeding
makes fork and spawn start methods agree byte for byte.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.exec import BACKEND_NAMES, ExecTask, WorkerPool, make_pool


def _square(value):
    return value * value


def _boom():
    raise ValueError("nope")


def _seeded_draw(n):
    """Draw from the module-level RNG — only deterministic if the pool
    re-seeded it from the task payload."""
    return [random.random() for _ in range(n)]


def _tasks(n):
    return [ExecTask(key=f"t{i}", fn=_square, args=(i,)) for i in range(n)]


@pytest.fixture
def pool_for():
    """Build pools by backend name and close them after the test."""
    pools = []

    def build(name, workers=2):
        pools.append(make_pool(name, workers))
        return pools[-1]

    yield build
    for pool in pools:
        pool.close()


class TestBackendContract:
    @pytest.mark.process_smoke
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_submission_order_merge(self, name, pool_for):
        outcomes = pool_for(name).run(_tasks(6))
        assert [outcome.key for outcome in outcomes] == [f"t{i}" for i in range(6)]
        assert [outcome.result for outcome in outcomes] == [i * i for i in range(6)]
        assert all(outcome.ok for outcome in outcomes)

    @pytest.mark.process_smoke
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_task_exception_becomes_outcome(self, name, pool_for):
        outcomes = pool_for(name).run(
            [ExecTask(key="ok", fn=_square, args=(3,)), ExecTask(key="bad", fn=_boom)]
        )
        by_key = {outcome.key: outcome for outcome in outcomes}
        assert by_key["ok"].ok and by_key["ok"].result == 9
        assert not by_key["bad"].ok
        assert "ValueError" in by_key["bad"].error

    @pytest.mark.process_smoke
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_on_result_streams_and_drops_results(self, name, pool_for):
        seen = []
        outcomes = pool_for(name).run(
            _tasks(5), on_result=lambda o: seen.append(o.result), keep_results=False
        )
        assert sorted(seen) == [i * i for i in range(5)]
        # Results were consumed by the callback, not retained in the batch.
        assert [outcome.result for outcome in outcomes] == [None] * 5

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_duplicate_keys_rejected(self, name, pool_for):
        with pytest.raises(ValueError):
            pool_for(name).run(
                [
                    ExecTask(key="x", fn=_square, args=(1,)),
                    ExecTask(key="x", fn=_square, args=(2,)),
                ]
            )

    def test_empty_batch(self, pool_for):
        for name in BACKEND_NAMES:
            assert pool_for(name).run([]) == []


class TestGetBackend:
    """``make_pool`` maps a backend name and a worker count to a new pool."""

    def test_default_resolution(self):
        for workers, kind, size in ((0, "thread", 1), (1, "thread", 1), (4, "thread", 4)):
            pool = make_pool(None, workers=workers)
            assert (pool.kind, pool.workers) == (kind, size)
        serial = make_pool("serial", workers=4)
        assert (serial.kind, serial.workers) == ("thread", 1)  # inline
        process = make_pool("process", workers=0)
        assert (process.kind, process.workers) == ("process", 1)
        process.close()

    def test_instance_passthrough(self):
        """A consumer handed a WorkerPool borrows that very pool."""
        from repro.experiments.sweep import SweepRunner, expand_grid

        with WorkerPool(kind="thread", workers=2) as pool:
            runner = SweepRunner(expand_grid(["baseline"], 1, n_gpts=20), backend=pool)
            assert runner.pool is pool

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_pool("gpu", workers=2)


class TestThreadKind:
    def test_concurrency_actually_overlaps(self):
        barrier = threading.Barrier(4, timeout=5)

        def fn():
            barrier.wait()
            return True

        outcomes = WorkerPool(kind="thread", workers=4).run(
            [ExecTask(key=f"t{i}", fn=fn) for i in range(4)]
        )
        assert all(outcome.result for outcome in outcomes)

    def test_keyboard_interrupt_aborts_batch(self):
        started = []

        def interrupting(i):
            started.append(i)
            if i == 0:
                raise KeyboardInterrupt
            time.sleep(0.01)
            return i

        tasks = [ExecTask(key=f"t{i}", fn=interrupting, args=(i,)) for i in range(50)]
        with pytest.raises(KeyboardInterrupt):
            WorkerPool(kind="thread", workers=2).run(tasks)
        # The stop flag must prevent the batch from fully draining.
        assert len(started) < 50

    def test_run_leaves_no_threads_behind(self):
        """A thread-kind run joins its threads before returning: the pool
        holds nothing between runs, so nobody has to close it."""
        before = threading.active_count()
        pool = WorkerPool(kind="thread", workers=8)
        for _ in range(3):
            assert [o.result for o in pool.run(_tasks(20))] == [i * i for i in range(20)]
            assert threading.active_count() == before

    def test_stress_many_threads_tiny_switch_interval(self):
        """16 threads on a small machine, preempted as often as the
        interpreter allows: outcomes still merge in submission order and
        ``on_result`` sees each key exactly once."""
        n_tasks = 5000
        seen = []
        done = {}

        def run():
            done["outcomes"] = WorkerPool(kind="thread", workers=16).run(
                _tasks(n_tasks), on_result=lambda o: seen.append(o.key)
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "16-thread run did not finish within 120 s"
        keys = [f"t{i}" for i in range(n_tasks)]
        assert [o.key for o in done["outcomes"]] == keys
        assert [o.result for o in done["outcomes"]] == [i * i for i in range(n_tasks)]
        assert sorted(seen) == sorted(keys)
        assert len(seen) == len(set(seen))


class TestProcessKindSeeding:
    """Per-task RNG state must come from the task payload, never from
    inherited fork state, so fork and spawn (macOS vs Linux CI defaults)
    produce identical draws."""

    @pytest.mark.process_smoke
    def test_fork_and_spawn_agree(self):
        tasks = [
            ExecTask(key=f"t{i}", fn=_seeded_draw, args=(3,), seed=1000 + i)
            for i in range(4)
        ]
        results = {}
        for method in ("fork", "spawn"):
            with WorkerPool(kind="process", workers=2, start_method=method) as pool:
                results[method] = [outcome.result for outcome in pool.run(tasks)]
        assert results["fork"] == results["spawn"]
        # Distinct tasks get distinct streams (the seed is per task).
        assert len({tuple(draws) for draws in results["fork"]}) == len(tasks)

    def test_unseeded_tasks_do_not_inherit_parent_state(self):
        # Poison the parent's RNG; with fork the child would inherit this
        # state, so identical per-task seeds are the only way two runs with
        # different parent states can agree.
        tasks = [ExecTask(key="a", fn=_seeded_draw, args=(2,), seed=7)]
        draws = []
        for parent_seed in (123, 456):
            random.seed(parent_seed)
            with WorkerPool(kind="process", workers=1, start_method="fork") as pool:
                draws.append(pool.run(tasks)[0].result)
        assert draws[0] == draws[1]
