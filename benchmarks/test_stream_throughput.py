"""Streaming engine throughput over the paper-scale record volume.

One bench: the full engine (per-feed cursors + online accumulators),
drained from the start.  It reports records/sec via ``extra_info`` so
throughput regressions are visible in the benchmark log, and re-asserts
batch equivalence on its final snapshot so a fast-but-wrong
optimization cannot slip through.
"""

from __future__ import annotations

from repro.stream import StreamEngine


def test_engine_throughput(benchmark, pipeline, show):
    result = pipeline.run()
    total = sum(ds.total_samples for ds in result.datasets.values())

    def drain_engine():
        engine = StreamEngine(
            result.world, result.datasets,
            seed=pipeline.seed, feed_order=pipeline.feed_order,
        )
        engine.run()
        return engine

    engine = benchmark(drain_engine)
    assert engine.records_processed == total
    snapshot = engine.snapshot()
    assert snapshot.render_table1() == pipeline.render_table1()
    rate = total / benchmark.stats.stats.mean
    benchmark.extra_info["records"] = total
    benchmark.extra_info["records_per_sec"] = round(rate)
    show(
        f"[stream] full engine: {total:,} records, {rate:,.0f} records/s\n\n"
        + snapshot.header()
    )
