"""The execution layer: :class:`~repro.exec.pool.WorkerPool` runs every fan-out.

The crawl's stages and shard sub-pipelines
(:mod:`repro.crawler.pipeline`), the shard-parallel streaming analyses
(:mod:`repro.analysis.streaming`) and the sweep engine
(:mod:`repro.experiments.sweep`) all submit keyed :class:`ExecTask` batches
to a pool and merge the :class:`ExecOutcome` list in submission order, so
results are byte-identical on every kind of pool and at any worker count.
Switching a pipeline between threads and real CPU scaling on processes is
one knob (``--backend``), which :func:`make_pool` maps to a new pool.  See
:mod:`repro.exec.pool` for the two pool kinds, the broadcast-once shared
state and the ownership rule (whoever builds a pool closes it; a consumer
handed one borrows it).
"""

from repro.exec.pool import (
    BACKEND_NAMES,
    ExecOutcome,
    ExecTask,
    WorkerPool,
    make_pool,
    shared_state,
)

__all__ = [
    "BACKEND_NAMES",
    "ExecOutcome",
    "ExecTask",
    "WorkerPool",
    "make_pool",
    "shared_state",
]
