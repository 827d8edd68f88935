"""One executor for every fan-out: :class:`WorkerPool`.

Every fan-out layer in the reproduction — the crawl's stages and shard
sub-pipelines, the shard-parallel streaming analyses, the sweep engine's
experiment cells — shares one scheduling contract: submit a batch of keyed
tasks, observe completions as they happen, and receive outcomes merged back
in **submission order**, so seeded pipelines stay byte-reproducible at any
parallelism.  Per-task exceptions surface as :attr:`ExecOutcome.error`
strings rather than raising, so a caller's merge loop is the same on every
kind of pool.

:class:`WorkerPool` comes in two kinds:

* ``"thread"`` — runs inline on the calling thread at ``workers <= 1``
  (the sequential baseline); above that, each :meth:`~WorkerPool.run`
  starts ``workers`` threads that drain the batch and joins them before it
  returns, so the pool holds no threads between runs and a consumer never
  has to close one.  Right for I/O-bound tasks (the simulated network) and
  numpy-heavy tasks that release the GIL.  Task callables may be closures.
* ``"process"`` — one persistent
  :class:`~concurrent.futures.ProcessPoolExecutor` across many runs, for
  pure-Python, CPU-bound fan-out (shard map steps, sweep cells) that the
  GIL caps at one core on threads.  Task payloads must pickle: a
  module-level ``fn`` plus plain-data ``args``.  Each task runs with the
  worker's module-level RNG re-seeded from :attr:`ExecTask.seed`, so a
  stray global draw is a pure function of the task — fork and spawn, fresh
  and reused workers all agree.  A worker that dies mid-batch
  (:class:`BrokenProcessPool`) costs a respawn, not the run: the pending
  tasks resubmit on a rebuilt pool, up to :data:`MAX_TASK_ATTEMPTS` times.

**Shared-state broadcast.**  :meth:`WorkerPool.broadcast` registers a
payload that tasks read with :func:`shared_state` instead of carrying it.
On the process kind it ships to each worker exactly once via the pool
initializer, shrinking per-task pickles from ecosystem-sized to
identifier-sized; re-broadcasting a *different* object under a key
restarts the executor at the next run (initializers cannot reach live
workers), so reuse payload objects across runs to stay warm.  On the
thread kind the payload lives in the pool's own store, visible to the
threads running that pool's tasks and to no other pool.

**Ownership.**  :func:`make_pool` maps a backend name and a worker count to
a new pool; whoever builds a pool closes it.  A consumer handed a
``WorkerPool`` instance borrows it and never closes it, so one warm
process pool can span a crawl and every analysis pass after it.
"""

from __future__ import annotations

import functools
import os
import random
import threading
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Names every ``backend`` knob accepts (``None`` picks by worker count).
BACKEND_NAMES: Tuple[str, ...] = ("serial", "thread", "process")

#: Pool kinds :class:`WorkerPool` accepts.
POOL_KINDS: Tuple[str, ...] = ("thread", "process")

#: Submission attempts per task across :class:`BrokenProcessPool` rebuilds
#: before the task is reported as a failed outcome (tolerates a crashing
#: neighbor twice).
MAX_TASK_ATTEMPTS = 3


@dataclass(frozen=True)
class ExecTask:
    """One schedulable unit of work.

    ``key`` must be unique within a batch — it names the result in the
    outcome list and in checkpoints.  ``fn(*args)`` is the work; on the
    process kind both must pickle, so ``fn`` has to be a module-level
    callable there.  ``seed`` (optional) re-seeds a process worker's
    module-level :mod:`random` RNG before ``fn`` runs.
    """

    key: str
    fn: Callable[..., object]
    args: Tuple = ()
    seed: Optional[int] = None


@dataclass
class ExecOutcome:
    """What happened to one task."""

    key: str
    result: Optional[object] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the task completed without raising."""
        return self.error is None


def _check_unique_keys(tasks: Sequence[ExecTask]) -> List[str]:
    keys = [task.key for task in tasks]
    if len(set(keys)) != len(keys):
        raise ValueError("task keys must be unique within a batch")
    return keys


def _execute(task: ExecTask) -> ExecOutcome:
    """Run a task in this thread, folding an exception into its outcome."""
    try:
        return ExecOutcome(key=task.key, result=task.fn(*task.args))
    except Exception as exc:  # noqa: BLE001 - outcomes carry the error
        return ExecOutcome(key=task.key, error=f"{type(exc).__name__}: {exc}")


def _invoke_in_worker(task: ExecTask) -> object:
    """Runs inside a process worker: re-seed, then invoke.

    Re-seeding the module-level RNG from the task payload (rather than
    relying on whatever state the worker inherited at fork, or the fresh
    default state a spawn start gives) makes any stray global draw a pure
    function of the task.
    """
    if task.seed is not None:
        random.seed(task.seed)
    return task.fn(*task.args)


#: Worker-side shared-state store for the *process* kind, filled by the
#: pool initializer.  A worker process belongs to exactly one pool, so a
#: process-global store is correct there; thread-kind pools share one
#: process and use the thread-local active store below instead.
_WORKER_SHARED: Dict[str, object] = {}

#: Thread-kind active store: each thread sees the broadcast store of the
#: pool whose ``run()`` it is currently executing (installed around the
#: drain loop, restored on exit), so concurrent pools stay isolated and a
#: pool's payloads vanish with it instead of leaking into later pools.
_THREAD_SHARED = threading.local()


def _install_shared(payloads: Mapping[str, object]) -> None:
    """Pool initializer: cap BLAS threads and install the broadcast payloads.

    Runs once per worker process at spawn — the payloads pickle once into
    the executor's ``initargs``, not once per task.
    """
    _cap_blas_threads()
    _WORKER_SHARED.clear()
    _WORKER_SHARED.update(payloads)


#: OpenBLAS (set, get) thread-count symbols of the scipy-openblas64 library
#: that numpy 2 wheels bundle (``numpy.libs/libscipy_openblas64_-*.so``).
_OPENBLAS_SYMBOLS: Tuple[str, str] = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_get_num_threads64_",
)


@functools.lru_cache(maxsize=None)
def _openblas_threads() -> Optional[Tuple[Callable[[int], None], Callable[[], int]]]:
    """numpy's OpenBLAS thread-count (setter, getter) in this process.

    The library is the one numpy's wheel bundles, next to the package
    (``numpy.libs``) or inside it (``.dylibs``); loading it again returns
    the instance numpy already uses.  ``None`` when no known symbol exists.
    """
    import ctypes
    import glob

    import numpy

    package = os.path.dirname(numpy.__file__)
    paths = glob.glob(os.path.join(package + ".libs", "*openblas*"))
    paths += glob.glob(os.path.join(package, ".dylibs", "*openblas*"))
    set_name, get_name = _OPENBLAS_SYMBOLS
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        setter = getattr(library, set_name, None)
        getter = getattr(library, get_name, None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


def _cap_blas_threads() -> None:
    """Cap this process's OpenBLAS at one thread, when a known symbol exists.

    Each process worker would otherwise run one BLAS thread per core, and
    the workers together oversubscribe the machine.  A forked worker has
    loaded OpenBLAS already and ignores ``OPENBLAS_NUM_THREADS``, so the
    cap goes through the library.
    """
    functions = _openblas_threads()
    if functions is not None:
        functions[0](1)


@functools.lru_cache(maxsize=None)
def _report_uncapped_blas() -> None:
    """Say once per process that workers' BLAS threads cannot be capped."""
    if _openblas_threads() is None:
        warnings.warn(
            "no known OpenBLAS thread-count symbol: process workers run "
            "BLAS with its default thread count",
            RuntimeWarning,
        )


def shared_state(key: str) -> object:
    """Look up a broadcast payload inside a task.

    Resolution order: the running thread pool's own store (thread kind),
    then the process worker store (process kind).
    """
    store = getattr(_THREAD_SHARED, "store", None)
    if store is not None and key in store:
        return store[key]
    try:
        return _WORKER_SHARED[key]
    except KeyError:
        raise KeyError(
            f"shared-state key {key!r} is not installed in this worker; "
            "call WorkerPool.broadcast(key, payload) before run() so the "
            "pool initializer ships it to every worker"
        ) from None


class WorkerPool:
    """The executor every fan-out runs on (see the module docstring).

    Parameters
    ----------
    kind:
        ``"thread"`` or ``"process"``.
    workers:
        Pool size (floored at 1; ``1`` runs thread-kind batches inline).
    start_method:
        Process start method (``"fork"``/``"spawn"``/``None`` for the
        platform default); ignored by the thread kind.  Results are
        identical across start methods.
    """

    def __init__(
        self,
        kind: str = "process",
        workers: int = 1,
        start_method: Optional[str] = None,
    ) -> None:
        if kind not in POOL_KINDS:
            raise ValueError(f"unknown pool kind {kind!r}; known: {', '.join(POOL_KINDS)}")
        self.kind = kind
        self.workers = max(1, workers)
        self.start_method = start_method
        self._shared: Dict[str, object] = {}
        self._executor: Optional[ProcessPoolExecutor] = None
        self._dirty = False
        self._closed = False

    @property
    def is_process(self) -> bool:
        """Whether tasks cross a process boundary (payloads must pickle)."""
        return self.kind == "process"

    def broadcast(self, key: str, payload: object) -> "WorkerPool":
        """Register a shared payload tasks read via :func:`shared_state`.

        Re-broadcasting the *same object* under an existing key is free; on
        the process kind a different object marks the pool dirty and the
        next :meth:`run` restarts the executor with the update.
        """
        self._require_open()
        if key in self._shared and self._shared[key] is payload:
            return self
        self._shared[key] = payload
        if self._executor is not None:
            self._dirty = True
        return self

    def close(self) -> None:
        """Shut the executor down (idempotent; runs after close raise)."""
        if self._closed:
            return
        self._closed = True
        self._discard_executor()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("WorkerPool is closed")

    def _discard_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._dirty:
            # A broadcast changed after spawn: initializers cannot reach
            # live workers, so restart the pool to re-install shared state.
            self._discard_executor()
            self._dirty = False
        if self._executor is None:
            _report_uncapped_blas()
            kwargs = {
                "max_workers": self.workers,
                "initializer": _install_shared,
                "initargs": (dict(self._shared),),
            }
            if self.start_method is not None:
                import multiprocessing

                kwargs["mp_context"] = multiprocessing.get_context(self.start_method)
            self._executor = ProcessPoolExecutor(**kwargs)
        return self._executor

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[ExecTask],
        on_result: Optional[Callable[[ExecOutcome], None]] = None,
        keep_results: bool = True,
    ) -> List[ExecOutcome]:
        """Run a batch; outcomes come back in submission order.

        ``on_result`` is called once per completed task in *completion*
        order, serialized (never concurrently); only the returned list is
        deterministic under parallelism.  With ``keep_results=False`` a
        task's result is handed to ``on_result`` and then dropped from its
        outcome, so a caller streaming large payloads to disk holds one
        task's payload at a time.  A ``KeyboardInterrupt`` raised by a task
        (or an exception from ``on_result``) aborts the batch and propagates
        once in-flight work has wound down, so incremental checkpoints stay
        consistent.
        """
        self._require_open()
        task_list = list(tasks)
        keys = _check_unique_keys(task_list)
        if not task_list:
            return []
        outcomes: Dict[str, ExecOutcome] = {}

        def settle(outcome: ExecOutcome) -> None:
            if on_result is not None:
                on_result(outcome)
                if not keep_results:
                    outcome.result = None
            outcomes[outcome.key] = outcome

        if self.kind == "thread":
            self._run_threads(task_list, settle)
        else:
            self._run_process(task_list, settle)
        return [outcomes[key] for key in keys]

    def _run_threads(
        self, task_list: List[ExecTask], settle: Callable[[ExecOutcome], None]
    ) -> None:
        pending: Iterator[ExecTask] = iter(task_list)
        take_lock = threading.Lock()
        settle_lock = threading.Lock()
        stop = threading.Event()

        def drain() -> None:
            # This pool's store is the thread's active shared state for the
            # duration of the loop (restored on exit, so nested or
            # successive pools on the same thread never see a stale store).
            previous = getattr(_THREAD_SHARED, "store", None)
            _THREAD_SHARED.store = self._shared
            try:
                while not stop.is_set():
                    with take_lock:
                        task = next(pending, None)
                    if task is None:
                        return
                    outcome = _execute(task)
                    with settle_lock:
                        settle(outcome)
            except BaseException:
                # A KeyboardInterrupt from a task or a bug in on_result
                # aborts the batch: stop sibling threads, then re-raise.
                stop.set()
                raise
            finally:
                _THREAD_SHARED.store = previous

        n_threads = min(self.workers, len(task_list))
        if n_threads <= 1:
            drain()
            return
        with ThreadPoolExecutor(max_workers=n_threads) as executor:
            futures = [executor.submit(drain) for _ in range(n_threads)]
            for future in futures:
                # Task exceptions are already folded into outcomes; this
                # surfaces aborts after every thread has been joined.
                future.result()

    def _run_process(
        self, task_list: List[ExecTask], settle: Callable[[ExecOutcome], None]
    ) -> None:
        pending: Dict[str, ExecTask] = {task.key: task for task in task_list}
        attempts: Dict[str, int] = {task.key: 0 for task in task_list}

        def finish(outcome: ExecOutcome) -> None:
            settle(outcome)
            pending.pop(outcome.key, None)

        while pending:
            executor = self._ensure_executor()
            futures: Dict[object, str] = {}
            broken = False
            try:
                for task in list(pending.values()):
                    attempts[task.key] += 1
                    futures[executor.submit(_invoke_in_worker, task)] = task.key
            except BrokenProcessPool:
                broken = True
            not_done = set(futures)
            try:
                while not_done:
                    done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                    for future in done:
                        key = futures[future]
                        try:
                            finish(ExecOutcome(key=key, result=future.result()))
                        except BrokenProcessPool as exc:
                            # A worker died; the whole pool is poisoned.
                            # Unattributable — every in-flight task retries
                            # on a rebuilt pool (the initializer re-installs
                            # shared state) up to MAX_TASK_ATTEMPTS.
                            broken = True
                            if attempts[key] >= MAX_TASK_ATTEMPTS:
                                finish(
                                    ExecOutcome(
                                        key=key,
                                        error=(
                                            "worker process crashed "
                                            f"({attempts[key]} attempts): {exc}"
                                        ),
                                    )
                                )
                        except Exception as exc:  # noqa: BLE001 - outcomes carry it
                            finish(
                                ExecOutcome(key=key, error=f"{type(exc).__name__}: {exc}")
                            )
            except BaseException:
                # A KeyboardInterrupt (or an on_result bug) aborts the
                # batch: cancel queued work and discard the executor so an
                # interrupted pool cannot leak half-run state into a reuse.
                for future in not_done:
                    future.cancel()
                self._discard_executor()
                raise
            if broken:
                self._discard_executor()


def make_pool(backend: Optional[str] = None, workers: int = 0) -> WorkerPool:
    """A new pool for a backend name (the caller owns and closes it).

    ``"serial"`` is a one-worker (inline) thread pool, ``"thread"`` and
    ``"process"`` are pools of that kind with ``workers`` workers, and
    ``None`` is inline at ``workers <= 1`` and threads above.
    """
    if backend is not None and backend not in BACKEND_NAMES:
        raise ValueError(
            f"unknown execution backend {backend!r}; known: {', '.join(BACKEND_NAMES)}"
        )
    if backend == "serial":
        return WorkerPool(kind="thread", workers=1)
    return WorkerPool(kind=backend or "thread", workers=workers)
