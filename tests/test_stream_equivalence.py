"""Streaming/batch equivalence: the subsystem's load-bearing guarantee.

A fully-drained :class:`StreamEngine` snapshot must reproduce the batch
:class:`PaperPipeline` results *byte-for-byte* -- same Table 1/2/3 data,
same rendered text, same figure data.  These tests assert that for the
miniature world under two different seeds and for the paper-scale world
under seed 2012, plus checkpoint/resume and windowed (as-of-day)
consistency.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.ecosystem import small_config
from repro.feeds import FeedDataset
from repro.analysis import FeedComparison
from repro.pipeline import PaperPipeline
from repro.simtime import MINUTES_PER_DAY
from repro.stream import StreamEngine


def _drained_snapshot(pipeline: PaperPipeline):
    engine = pipeline.stream_engine()
    engine.run()
    assert engine.exhausted
    return engine, engine.snapshot()


def _assert_snapshot_matches_batch(pipeline, snapshot):
    # Data-level equality...
    assert snapshot.table1() == pipeline.table1()
    assert snapshot.table2() == pipeline.table2()
    assert snapshot.table3() == pipeline.table3()
    for kind in ("live", "tagged"):
        assert snapshot.figure1(kind) == pipeline.figure1(kind)
        fig2_stream, fig2_batch = snapshot.figure2(kind), pipeline.figure2(kind)
        assert fig2_stream.feeds == fig2_batch.feeds
        for row in fig2_stream.feeds:
            for col in fig2_stream.columns():
                assert fig2_stream.cell(row, col) == fig2_batch.cell(row, col)
        assert snapshot.figure3(kind) == pipeline.figure3(kind)
    # ...and byte-identical rendered tables.
    assert snapshot.render_table1() == pipeline.render_table1()
    assert snapshot.render_table2() == pipeline.render_table2()
    assert snapshot.render_table3() == pipeline.render_table3()


def _assert_same_state(resumed, live):
    """A resumed engine's state equals the checkpointing engine's."""
    assert resumed.records_processed == live.records_processed
    assert resumed.clock == live.clock
    assert resumed.union_size == live.union_size
    feeds = live.feed_names
    assert resumed.feed_names == feeds
    # Per-feed counts, first and last seen (and sample totals).
    assert resumed.freeze() == live.freeze()
    for feed in feeds:
        assert resumed.exclusive_count(feed) == live.exclusive_count(feed)
        for other in feeds:
            assert resumed.pairwise_intersection(
                feed, other
            ) == live.pairwise_intersection(feed, other)


@pytest.fixture(scope="module", params=[7, 11], ids=["seed7", "seed11"])
def small_pipeline(request):
    pipeline = PaperPipeline(small_config(), seed=request.param)
    pipeline.run()
    return pipeline


class TestSmallWorldEquivalence:
    def test_drained_stream_matches_batch(self, small_pipeline):
        _, snapshot = _drained_snapshot(small_pipeline)
        _assert_snapshot_matches_batch(small_pipeline, snapshot)

    def test_online_coverage_matches_snapshot_counters(self, small_pipeline):
        engine, snapshot = _drained_snapshot(small_pipeline)
        by_feed = {row.feed: row for row in engine.online_coverage()}
        for name, stats in snapshot.feeds.items():
            row = by_feed[name]
            assert row.samples == stats.total_samples
            assert row.unique == stats.n_unique
        # Exclusive counters agree with a from-scratch set recomputation.
        all_unique = {
            name: stats.unique_domains()
            for name, stats in snapshot.feeds.items()
        }
        for name, mine in all_unique.items():
            others = set()
            for other, theirs in all_unique.items():
                if other != name:
                    others |= theirs
            assert by_feed[name].exclusive == len(mine - others)

    def test_resume_from_checkpoint_matches_straight_through(
        self, small_pipeline, tmp_path
    ):
        straight = small_pipeline.stream_engine()
        straight.run()
        expected = straight.snapshot()

        # Run halfway, checkpoint, throw the engine away.
        first = small_pipeline.stream_engine()
        first.advance_to_day(46)
        path = str(tmp_path / "mid.json")
        first.save_checkpoint(path)
        midpoint = first.records_processed
        assert 0 < midpoint < expected.records_processed
        live = first.state
        del first

        # A fresh engine resumed from the file has the live state...
        result = small_pipeline.run()
        resumed = StreamEngine.resume(
            result.world, result.datasets, path,
        )
        assert resumed.records_processed == midpoint
        _assert_same_state(resumed.state, live)
        # ...and finishes identically.
        resumed.run()
        final = resumed.snapshot()
        assert final.records_processed == expected.records_processed
        assert final.render_tables() == expected.render_tables()
        assert final.table2() == expected.table2()
        assert final.table3() == expected.table3()

    def test_checkpoint_is_json_portable(self, small_pipeline, tmp_path):
        engine = small_pipeline.stream_engine()
        engine.advance_to_day(10)
        path = str(tmp_path / "early.json")
        engine.save_checkpoint(path)
        engine.run()

        result = small_pipeline.run()
        resumed = StreamEngine.resume(result.world, result.datasets, path)
        resumed.run()
        assert (
            resumed.snapshot().render_tables()
            == engine.snapshot().render_tables()
        )


class TestWindowedSnapshots:
    def test_as_of_day_matches_batch_over_truncated_datasets(
        self, small_world, small_datasets
    ):
        """Table 2/3 "as of day N" == batch analysis of a truncated world."""
        day = 46
        engine = StreamEngine(small_world, small_datasets, seed=7)
        engine.advance_to_day(day)
        snapshot = engine.snapshot()
        assert snapshot.as_of_day is not None
        assert snapshot.as_of_day < day

        boundary = small_world.timeline.start + day * MINUTES_PER_DAY
        truncated = {
            name: FeedDataset(
                ds.name,
                ds.feed_type,
                [r for r in ds.chronological_records() if r.time < boundary],
                has_volume=ds.has_volume,
            )
            for name, ds in small_datasets.items()
            if any(r.time < boundary for r in ds.records)
        }
        comparison = FeedComparison(small_world, truncated, seed=7)
        from repro.analysis.purity import purity_table
        from repro.analysis.coverage import coverage_table

        order = [n for n in engine.feed_order if n in truncated]
        assert snapshot.table2() == purity_table(comparison, order)
        assert snapshot.table3() == coverage_table(comparison, order)

    def test_snapshot_is_immutable_under_further_consumption(
        self, small_world, small_datasets
    ):
        engine = StreamEngine(small_world, small_datasets, seed=7)
        engine.advance_to_day(30)
        early = engine.snapshot()
        early_table2 = early.render_table2()
        frozen = {
            name: dataclasses.replace(stats)
            for name, stats in early.feeds.items()
        }
        engine.run()
        assert early.render_table2() == early_table2
        for name, stats in early.feeds.items():
            assert stats == frozen[name]


class TestPaperScaleEquivalence:
    """The acceptance criterion: byte-identical seed-2012 output."""

    def test_drained_stream_is_byte_identical_to_batch(self, paper_pipeline):
        engine, snapshot = _drained_snapshot(paper_pipeline)
        total = sum(
            ds.total_samples for ds in paper_pipeline.run().datasets.values()
        )
        assert engine.records_processed == total
        assert snapshot.table1() == paper_pipeline.table1()
        assert snapshot.render_table1() == paper_pipeline.render_table1()
        assert snapshot.render_table2() == paper_pipeline.render_table2()
        assert snapshot.render_table3() == paper_pipeline.render_table3()

    def test_paper_scale_resume_matches(self, paper_pipeline, tmp_path):
        engine = paper_pipeline.stream_engine()
        engine.advance_to_day(46)
        path = str(tmp_path / "day46.json")
        engine.save_checkpoint(path)

        result = paper_pipeline.run()
        resumed = StreamEngine.resume(result.world, result.datasets, path)
        _assert_same_state(resumed.state, engine.state)
        resumed.run()

        engine.run()
        assert resumed.records_processed == engine.records_processed
        assert (
            resumed.snapshot().render_tables()
            == engine.snapshot().render_tables()
        )
