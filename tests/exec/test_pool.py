"""Tests for the :class:`WorkerPool` lifecycle and its broadcast contract.

The lifecycle contract under test: one live process executor across many
``run()`` calls with deterministic, submission-order-merged outcomes
regardless of reuse; idempotent ``close()`` (and refusal to run
afterwards); broadcast-once shared state that ships via the pool
initializer and restarts the pool only when a payload actually changes;
per-pool broadcast stores on the thread kind; and crashed-worker
replacement that retries pending tasks on a rebuilt pool and caps a
deterministic crasher into an error outcome.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.exec import ExecTask, WorkerPool, shared_state
from repro.exec.pool import MAX_TASK_ATTEMPTS


def _square(value):
    return value * value


def _seeded_draw(n):
    """Draw from the module-level RNG — deterministic only if the backend
    re-seeds it from the task payload on *every* invocation, including on
    reused warm workers."""
    return [random.random() for _ in range(n)]


def _worker_pid():
    return os.getpid()


def _read_shared(key):
    return shared_state(key)


def _crash_unless_marked(marker, value):
    """Die hard (no exception, no cleanup) on the first call; succeed once
    ``marker`` exists.  Models a worker OOM-killed mid-stage."""
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write("crashed once")
        os._exit(1)
    return value


def _always_crash():
    os._exit(1)


def _tasks(n, offset=0):
    return [
        ExecTask(key=f"t{offset + i}", fn=_square, args=(offset + i,))
        for i in range(n)
    ]


class TestWarmPoolContract:
    """The scheduling contract must survive executor reuse."""

    @pytest.mark.process_smoke
    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_reuse_preserves_submission_order_merge(self, kind):
        with WorkerPool(kind=kind, workers=2) as pool:
            for batch in range(3):
                outcomes = pool.run(_tasks(5, offset=batch * 5))
                assert [o.key for o in outcomes] == [
                    f"t{batch * 5 + i}" for i in range(5)
                ]
                assert [o.result for o in outcomes] == [
                    (batch * 5 + i) ** 2 for i in range(5)
                ]

    @pytest.mark.process_smoke
    def test_reused_pool_matches_fresh_pool(self):
        """Warm reuse is an execution knob: a batch run on a many-times-used
        pool must agree byte for byte with the same batch on a fresh pool —
        per-task RNG re-seeding happens on every invocation.  (Process kind
        only: threads share the coordinator's module-level RNG, where draws
        are interleaving-dependent on any backend.)"""
        batch = [
            ExecTask(key=f"d{i}", fn=_seeded_draw, args=(3,), seed=500 + i)
            for i in range(4)
        ]
        with WorkerPool(kind="process", workers=2) as fresh:
            baseline = [o.result for o in fresh.run(batch)]
        with WorkerPool(kind="process", workers=2) as reused:
            reused.run(_tasks(6))  # warm the workers with unrelated work
            first = [o.result for o in reused.run(batch)]
            second = [o.result for o in reused.run(batch)]
        assert baseline == first == second

    @pytest.mark.process_smoke
    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_keep_results_false_under_reuse(self, kind):
        with WorkerPool(kind=kind, workers=2) as pool:
            for batch in range(2):
                seen = []
                outcomes = pool.run(
                    _tasks(4, offset=batch * 4),
                    on_result=lambda o: seen.append(o.result),
                    keep_results=False,
                )
                assert sorted(seen) == sorted(
                    (batch * 4 + i) ** 2 for i in range(4)
                )
                # Payloads were dropped after the callback, not retained.
                assert [o.result for o in outcomes] == [None] * 4
                assert all(o.ok for o in outcomes)

    @pytest.mark.process_smoke
    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_task_exception_becomes_outcome_and_pool_survives(self, kind):
        def boom():
            raise ValueError("nope")

        # Process tasks must pickle, so use a module-level raiser there.
        raiser = boom if kind == "thread" else _read_shared
        args = () if kind == "thread" else ("no-such-shared-key",)
        with WorkerPool(kind=kind, workers=2) as pool:
            outcomes = pool.run([ExecTask(key="bad", fn=raiser, args=args)])
            assert not outcomes[0].ok
            # The failed batch must not poison the executor.
            assert [o.result for o in pool.run(_tasks(3))] == [0, 1, 4]


class TestLifecycle:
    def test_close_is_idempotent_and_final(self):
        pool = WorkerPool(kind="thread", workers=2)
        assert pool.run(_tasks(2))[1].result == 1
        pool.close()
        pool.close()  # second close is a no-op, not an error
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(_tasks(1))
        with pytest.raises(RuntimeError, match="closed"):
            pool.broadcast("k", object())

    def test_context_manager_closes(self):
        with WorkerPool(kind="thread", workers=2) as pool:
            assert pool.run(_tasks(1))[0].ok
        with pytest.raises(RuntimeError, match="closed"):
            pool.run(_tasks(1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown pool kind"):
            WorkerPool(kind="gpu")


class TestBroadcast:
    def test_shared_state_missing_key_names_the_remedy(self):
        with pytest.raises(KeyError, match="broadcast"):
            shared_state("definitely-not-installed-key")

    @pytest.mark.process_smoke
    def test_payload_ships_once_and_is_readable(self):
        payload = {"threshold": 0.25}
        with WorkerPool(kind="process", workers=1) as pool:
            pool.broadcast("cfg", payload)
            outcomes = pool.run(
                [ExecTask(key=f"r{i}", fn=_read_shared, args=("cfg",)) for i in range(3)]
            )
            assert [o.result for o in outcomes] == [payload] * 3

    @pytest.mark.process_smoke
    def test_same_object_rebroadcast_keeps_workers_warm(self):
        payload = {"v": 1}
        with WorkerPool(kind="process", workers=1) as pool:
            pool.broadcast("cfg", payload)
            pid_before = pool.run([ExecTask(key="p1", fn=_worker_pid)])[0].result
            pool.broadcast("cfg", payload)  # identical object: free
            pid_after = pool.run([ExecTask(key="p2", fn=_worker_pid)])[0].result
            assert pid_before == pid_after

    @pytest.mark.process_smoke
    def test_changed_payload_restarts_workers_with_update(self):
        with WorkerPool(kind="process", workers=1) as pool:
            pool.broadcast("cfg", {"v": 1})
            pid_before = pool.run([ExecTask(key="p1", fn=_worker_pid)])[0].result
            assert pool.run([ExecTask(key="r1", fn=_read_shared, args=("cfg",))])[
                0
            ].result == {"v": 1}
            pool.broadcast("cfg", {"v": 2})  # different object: dirty
            outcomes = pool.run(
                [
                    ExecTask(key="p2", fn=_worker_pid),
                    ExecTask(key="r2", fn=_read_shared, args=("cfg",)),
                ]
            )
            assert outcomes[0].result != pid_before  # pool was restarted
            assert outcomes[1].result == {"v": 2}  # ...and saw the update

    def test_thread_kind_installs_without_restart(self):
        with WorkerPool(kind="thread", workers=2) as pool:
            pool.broadcast("thread-cfg", {"v": 7})
            outcome = pool.run(
                [ExecTask(key="r", fn=_read_shared, args=("thread-cfg",))]
            )[0]
            assert outcome.result == {"v": 7}


class TestThreadPoolIsolation:
    """Regression: thread-kind pools used to install broadcasts into one
    module-global store, so two live pools (or a closed pool and its
    successor) silently shared — and clobbered — each other's state."""

    def test_two_live_pools_do_not_share_broadcasts(self):
        with WorkerPool(kind="thread", workers=2) as first, \
                WorkerPool(kind="thread", workers=2) as second:
            first.broadcast("cfg", {"pool": "first"})
            second.broadcast("cfg", {"pool": "second"})
            read = [ExecTask(key="r", fn=_read_shared, args=("cfg",))]
            # Each pool's workers see their own payload, in either order.
            assert first.run(read)[0].result == {"pool": "first"}
            assert second.run(read)[0].result == {"pool": "second"}
            assert first.run(read)[0].result == {"pool": "first"}

    def test_inline_single_worker_pools_are_isolated_too(self):
        # workers=1 runs the worker loop inline on the caller's thread —
        # the same coordinator thread for both pools.
        with WorkerPool(kind="thread", workers=1) as first, \
                WorkerPool(kind="thread", workers=1) as second:
            first.broadcast("cfg", {"pool": "first"})
            second.broadcast("cfg", {"pool": "second"})
            read = [ExecTask(key="r", fn=_read_shared, args=("cfg",))]
            assert first.run(read)[0].result == {"pool": "first"}
            assert second.run(read)[0].result == {"pool": "second"}

    def test_closed_pool_leaves_nothing_behind(self):
        with WorkerPool(kind="thread", workers=2) as leaky:
            leaky.broadcast("leak-check", {"v": 1})
            assert leaky.run(
                [ExecTask(key="r", fn=_read_shared, args=("leak-check",))]
            )[0].result == {"v": 1}
        with WorkerPool(kind="thread", workers=2) as fresh:
            outcome = fresh.run(
                [ExecTask(key="r", fn=_read_shared, args=("leak-check",))]
            )[0]
            assert not outcome.ok  # no inherited state from the dead pool
            assert "broadcast" in outcome.error


class TestCrashReplacement:
    @pytest.mark.process_smoke
    def test_crash_mid_stage_retries_and_stays_byte_identical(self, tmp_path):
        """A worker dying mid-batch costs a respawn: the pending tasks rerun
        on a rebuilt pool and the merged outcomes match a crash-free run."""
        marker = str(tmp_path / "crashed-once")
        batch = [
            ExecTask(key=f"d{i}", fn=_seeded_draw, args=(2,), seed=900 + i)
            for i in range(3)
        ] + [ExecTask(key="crasher", fn=_crash_unless_marked, args=(marker, 42))]

        with WorkerPool(kind="process", workers=2) as clean:
            # Reference run with the marker pre-created: nothing crashes.
            with open(marker, "w", encoding="utf-8") as fh:
                fh.write("pre-marked")
            expected = [(o.key, o.result) for o in clean.run(batch)]

        os.unlink(marker)
        with WorkerPool(kind="process", workers=2) as pool:
            outcomes = pool.run(batch)
            assert [(o.key, o.result) for o in outcomes] == expected
            assert all(o.ok for o in outcomes)
            # The rebuilt pool is a normal warm pool afterwards.
            assert [o.result for o in pool.run(_tasks(3))] == [0, 1, 4]

    @pytest.mark.process_smoke
    def test_deterministic_crasher_becomes_error_outcome(self):
        with WorkerPool(kind="process", workers=1) as pool:
            outcome = pool.run([ExecTask(key="doomed", fn=_always_crash)])[0]
            assert not outcome.ok
            assert "crashed" in outcome.error
            assert f"{MAX_TASK_ATTEMPTS} attempts" in outcome.error
            # The pool survives giving up on the crasher.
            assert [o.result for o in pool.run(_tasks(2))] == [0, 1]


class TestFork_SpawnAgreement:
    @pytest.mark.process_smoke
    def test_start_methods_agree_under_reuse(self):
        """Per-task re-seeding must hold on reused workers of both start
        methods, not just on freshly spawned ones."""
        batch = [
            ExecTask(key=f"t{i}", fn=_seeded_draw, args=(3,), seed=2000 + i)
            for i in range(3)
        ]
        results = {}
        for method in ("fork", "spawn"):
            with WorkerPool(kind="process", workers=1, start_method=method) as pool:
                pool.run(batch)  # first pass warms (and perturbs) the worker
                results[method] = [o.result for o in pool.run(batch)]
        assert results["fork"] == results["spawn"]
