"""Byte-equivalence of parallel execution at any worker count.

The determinism contract of :mod:`repro.parallel`: worker count is
pure execution width.  Every test here compares a serial run against
parallel runs and requires *identical* values -- not statistically
similar, identical -- including dict insertion orders, which downstream
analyses iterate.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.ecosystem import build_world, small_config
from repro.feeds import (
    clear_pool_state,
    collect_all,
    set_pool_state,
    standard_feed_suite,
)
from repro.feeds.base import ColumnarFeedDataset, FeedDataset, FeedRecord, FeedType
from repro.io.artifacts import ArtifactCache
from repro.parallel import WorkerPool, fork_available, resolve_jobs
from repro.pipeline import PaperPipeline, runner

EQUIVALENCE_SEEDS = (7, 11)

#: The pool contract is pinned at every seed the paper artifacts use.
POOL_SEEDS = (7, 11, 2012)


# ----------------------------------------------------------------------
# The ordered fan-out: width, order, counters
# ----------------------------------------------------------------------


# Pool tasks are pickled by reference, so they must be module-level.


def _square(i: int) -> int:
    return i * i


def _count_sightings(i: int) -> int:
    obs.add("test.sightings", i + 1)
    obs.add("test.floaty", 0.5)
    return i


class TestOrderedFanout:
    """An ordered fan-out runs on the pool's workers, or at width 1 as
    each caller's serial loop; either way results keep task order."""

    def test_parallel_preserves_task_order(self):
        with WorkerPool(4) as pool:
            assert pool.run_batch(_square, list(range(20))) == [
                i * i for i in range(20)
            ]

    def test_empty_task_list(self):
        with WorkerPool(4) as pool:
            assert pool.run_batch(_square, []) == []

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1  # all cores
        assert resolve_jobs(-1) >= 1

    def test_fork_available_on_this_platform(self):
        # The CI/test platform is Linux; the parallel paths below all
        # assume this returns True there.
        assert fork_available()

    def test_worker_counters_fold_back_into_parent(self):
        # Regression: counters incremented inside forked workers died
        # with the worker process, so a parallel run under-reported
        # everything its tasks counted (cache hits, truncated records,
        # store landings).  Workers now ship per-task deltas.
        tasks = list(range(6))
        serial = obs.Tracer()
        with obs.activate(serial):
            for i in tasks:
                _count_sightings(i)
        parallel = obs.Tracer()
        with obs.activate(parallel):
            with WorkerPool(3) as pool:
                pool.run_batch(_count_sightings, tasks)
        for name in ("test.sightings", "test.floaty"):
            s = serial.metrics.counter(name)
            p = parallel.metrics.counter(name)
            assert s == p
            assert type(s) is type(p)  # ints stay ints across the fork


# ----------------------------------------------------------------------
# Columnar datasets serve identical statistics
# ----------------------------------------------------------------------


class TestColumnarDataset:
    def build(self):
        records = [
            FeedRecord("b.com", 5),
            FeedRecord("a.com", 10),
            FeedRecord("b.com", 12),
            FeedRecord("c.com", 12),
            FeedRecord("a.com", 3),
        ]
        return FeedDataset("x", FeedType.MX_HONEYPOT, records)

    def test_round_trip_preserves_everything(self):
        original = self.build()
        columnar = ColumnarFeedDataset(original.to_columns())
        assert columnar.records == original.records
        assert columnar.name == original.name
        assert columnar.feed_type is original.feed_type
        assert columnar.has_volume == original.has_volume
        assert len(columnar) == len(original)
        assert columnar.total_samples == original.total_samples
        assert columnar.unique_domains() == original.unique_domains()
        assert list(columnar.domain_counts().items()) == list(
            original.domain_counts().items()
        )
        # Insertion order matters: analyses iterate these dicts.
        assert list(columnar.first_seen().items()) == list(
            original.first_seen().items()
        )
        assert list(columnar.last_seen().items()) == list(
            original.last_seen().items()
        )
        assert (
            columnar.chronological_records()
            == original.chronological_records()
        )

    def test_stats_served_without_materializing_records(self):
        columnar = ColumnarFeedDataset(self.build().to_columns())
        assert columnar.n_unique == 3
        assert columnar.total_samples == 5
        assert columnar._materialized is None

    def test_column_length_mismatch_rejected(self):
        cols = self.build().to_columns()
        bad = cols._replace(times=cols.times[:-1])
        with pytest.raises(ValueError):
            ColumnarFeedDataset(bad)


# ----------------------------------------------------------------------
# Feed collection: serial vs. worker pool
# ----------------------------------------------------------------------


def _pool_collect(world, seed, jobs):
    collectors = standard_feed_suite(seed)
    set_pool_state(world, collectors)
    try:
        with WorkerPool(jobs) as pool:
            return collect_all(world, collectors, pool=pool)
    finally:
        clear_pool_state()


@pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS)
def test_collect_all_byte_identical_across_jobs(seed):
    world = build_world(small_config(), seed=seed)
    serial = collect_all(world, standard_feed_suite(seed))
    for jobs in (3, 4):
        pooled = _pool_collect(world, seed, jobs)
        assert list(pooled) == list(serial)  # feed order preserved
        for name in serial:
            a, b = serial[name], pooled[name]
            assert b.records == a.records, (seed, jobs, name)
            assert list(b.first_seen().items()) == list(
                a.first_seen().items()
            )
            assert b.feed_type is a.feed_type
            assert b.has_volume == a.has_volume


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_pool_collect_matches_serial(seed):
    world = build_world(small_config(), seed=seed)
    serial = collect_all(world, standard_feed_suite(seed))
    pooled = _pool_collect(world, seed, 2)
    assert list(pooled) == list(serial)
    for name in serial:
        s, p = serial[name], pooled[name]
        assert p.records == s.records, (seed, name)
        assert list(p.first_seen().items()) == list(s.first_seen().items())
        assert list(p.last_seen().items()) == list(s.last_seen().items())
        # The packed wire format is the byte-level contract.
        assert p.packed() == s.packed()


# ----------------------------------------------------------------------
# The persistent pool carries both stages, byte-identical to serial
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_pool_pipeline_render_matches_serial(seed):
    serial = PaperPipeline(small_config(), seed=seed).render_all()
    with PaperPipeline(small_config(), seed=seed, jobs=2) as pipeline:
        pooled = pipeline.render_all()
        # The pool really carried both stages: forked once at run(),
        # still alive after render.
        assert pipeline._pool is not None
        assert not pipeline._pool.closed
    assert pooled == serial


# ----------------------------------------------------------------------
# Full pipeline rendering: serial vs. worker pool
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS)
def test_render_all_byte_identical_across_jobs(seed):
    serial = PaperPipeline(small_config(), seed=seed).render_all()
    for jobs in (2, 4):
        text = PaperPipeline(
            small_config(), seed=seed, jobs=jobs
        ).render_all()
        assert text == serial, f"seed={seed} jobs={jobs}"


@pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS)
def test_render_after_state_cache_hit_forks_pool(seed, tmp_path):
    serial = PaperPipeline(small_config(), seed=seed).render_all()
    cache = ArtifactCache(str(tmp_path / "cache"))
    # Fills the state artifact only: render_all never ran here.
    PaperPipeline(small_config(), seed=seed, cache=cache).run()
    with PaperPipeline(
        small_config(), seed=seed, jobs=2, cache=cache
    ) as pipeline:
        pipeline.run()
        assert pipeline.pool_width == 0  # the state hit skipped the fork
        text = pipeline.render_all()
        assert pipeline.pool_width == 2  # the render miss forked it
    assert text == serial


#: The pool render task as the pipeline ships it, before any patching.
_RENDER_TASK = runner._pool_render_task


def _render_task_dying_on_figure3(name):  # pragma: no cover - in workers
    if name == "render_figure3":
        os._exit(13)
    return _RENDER_TASK(name)


def test_render_survives_worker_killed_mid_render(monkeypatch):
    serial = PaperPipeline(small_config(), seed=7).render_all()
    monkeypatch.setattr(
        runner, "_pool_render_task", _render_task_dying_on_figure3
    )
    with PaperPipeline(small_config(), seed=7, jobs=2) as pipeline:
        pipeline.run()
        workers = list(pipeline._pool._workers)
        text = pipeline.render_all()
        # The crash closed the pool; the serial loop finished the job.
        assert pipeline.pool_width == 0
    assert text == serial
    assert not any(worker.is_alive() for worker in workers)


def test_paper_scale_render_parallel_matches_serial(paper_pipeline):
    """Seed 2012 at paper scale: the pool changes nothing."""
    serial = paper_pipeline.render_all()
    paper_pipeline.jobs = 2
    try:
        assert paper_pipeline.render_all() == serial
        assert paper_pipeline.pool_width == 2
    finally:
        paper_pipeline.jobs = None
        paper_pipeline.close()


def test_stream_engine_parallel_sources_identical():
    from repro.stream import build_stream_engine

    serial = build_stream_engine(small_config(), seed=7)
    parallel = build_stream_engine(small_config(), seed=7, jobs=4)
    serial.run()
    parallel.run()
    assert (
        parallel.snapshot().render_tables()
        == serial.snapshot().render_tables()
    )
