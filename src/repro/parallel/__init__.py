"""Deterministic multi-core fan-out.

The pipeline's expensive stages decompose into tasks that are pure
functions of state created *before* the fan-out point: the ten feed
collectors are independent given the world (each draws from its own
``stats.rng.derive_rng(seed, label)`` stream), every figure/table is an
independent function of the warmed analysis context, and every world
shard is an independent function of the build plan.  This package
executes such tasks across worker processes under a strict
determinism contract:

* **Seeding** -- tasks never share an RNG; every stream is derived
  from the root seed plus a stable task label, so a task's draws are
  identical no matter which worker runs it, or when.
* **Ordered reduction** -- results are reassembled by *task index*,
  never completion order, so output is byte-identical at every worker
  count (including 1).
* **Copy-on-write state** -- workers are forked, so they inherit the
  parent's world, datasets and memoized caches without serialization;
  only small task descriptors and task results cross the process
  boundary.  Callers pre-warm any shared lazily-built index before
  forking so no worker pays the first-toucher cost.

One executor implements the contract:
:class:`~repro.parallel.pool.WorkerPool` forks **once** per run right
after the shared world is built and stays alive across stages, so collect and render share a
single fork bill (see the pool module docstring for the placement
rationale).  Callers without a pool -- width 1, platforms without
``fork``, daemonic workers that cannot nest a pool, or a pool that
crashed -- run the same task functions in a plain serial loop.
"""

from repro.parallel.pool import (
    PoolClosed,
    WorkerCrashed,
    WorkerPool,
    fork_available,
    resolve_jobs,
)

__all__ = [
    "PoolClosed",
    "WorkerCrashed",
    "WorkerPool",
    "fork_available",
    "resolve_jobs",
]
