"""Tracing is a pure side channel: traced runs are byte-identical.

The observability contract of :mod:`repro.obs`: activating a tracer
changes *nothing* about the analysis — every rendered table and figure
must match the untraced run byte for byte, at any worker count, for
the batch and the streaming paths alike.  The manifest is the only
place the run's wall-clock story is allowed to live.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.ecosystem import paper_config, small_config
from repro.io.artifacts import ArtifactCache, fingerprint
from repro.obs.manifest import build_manifest, manifest_stage_names
from repro.parallel import fork_available
from repro.pipeline import PaperPipeline
from repro.stream import build_stream_engine

EQUIVALENCE_SEEDS = (7, 11)

#: Stages a traced small run must cover (the acceptance floor is six
#: distinct stages; these are the load-bearing ones by name).
EXPECTED_STAGES = {
    "pipeline.run",
    "world.build",
    "feeds.collect",
    "comparison.assemble",
    "render.all",
    "parallel.fanout",
}


def traced_small_run(seed, jobs=None, cache=None):
    tracer = obs.Tracer()
    with obs.activate(tracer):
        pipeline = PaperPipeline(
            small_config(), seed=seed, jobs=jobs, cache=cache
        )
        pipeline.run()
        rendered = pipeline.render_all()
    return rendered, tracer


class TestBatchEquivalence:
    @pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS)
    def test_traced_matches_untraced(self, seed):
        untraced = PaperPipeline(small_config(), seed=seed)
        untraced.run()
        baseline = untraced.render_all()

        rendered, tracer = traced_small_run(seed)
        assert rendered == baseline
        assert EXPECTED_STAGES <= set(tracer.stage_names())

    @pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS)
    def test_traced_parallel_matches_untraced_serial(self, seed):
        if not fork_available():
            pytest.skip("fork start method unavailable")
        untraced = PaperPipeline(small_config(), seed=seed)
        untraced.run()
        baseline = untraced.render_all()

        rendered, tracer = traced_small_run(seed, jobs=2)
        assert rendered == baseline
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["worker.0.tasks"] > 0
        assert counters["worker.1.tasks"] > 0

    @pytest.mark.slow
    def test_traced_paper_run_matches_session_pipeline(self, paper_pipeline):
        baseline = paper_pipeline.render_all()
        tracer = obs.Tracer()
        with obs.activate(tracer):
            traced = PaperPipeline(paper_config(), seed=2012)
            traced.run()
            rendered = traced.render_all()
        assert rendered == baseline
        manifest = build_manifest(
            tracer,
            command="run",
            seed=2012,
            config_fingerprint=fingerprint(paper_config()),
        )
        assert len(manifest_stage_names(manifest)) >= 6


class TestTracedManifestContents:
    def test_manifest_valid_with_cache_and_worker_counters(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        _, cold = traced_small_run(2012, cache=cache)
        _, warm = traced_small_run(2012, cache=cache)

        manifest = build_manifest(
            cold,
            command="run",
            seed=2012,
            config_fingerprint=fingerprint(small_config()),
        )
        stages = manifest_stage_names(manifest)
        assert len(stages) >= 6
        counters = manifest["metrics"]["counters"]
        assert counters["cache.miss"] > 0
        assert counters["cache.store"] > 0
        assert counters["cache.hit"] == 0
        assert counters["worker.0.tasks"] > 0
        assert counters["feeds.records"] > 0

        warm_counters = warm.metrics.snapshot()["counters"]
        assert warm_counters["cache.hit"] > 0
        assert warm_counters["cache.miss"] == 0

    def test_cached_run_output_identical(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        cold_rendered, _ = traced_small_run(2012, cache=cache)
        warm_rendered, _ = traced_small_run(2012, cache=cache)
        untraced = PaperPipeline(small_config(), seed=2012)
        untraced.run()
        assert cold_rendered == untraced.render_all()
        assert warm_rendered == cold_rendered


class TestStreamEquivalence:
    @pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS)
    def test_traced_stream_matches_untraced(self, seed):
        config = small_config()
        untraced = build_stream_engine(config, seed=seed)
        untraced.run()
        baseline = untraced.snapshot().render_tables()

        tracer = obs.Tracer()
        with obs.activate(tracer):
            traced = build_stream_engine(config, seed=seed)
            traced.run()
            rendered = traced.snapshot().render_tables()
        assert rendered == baseline
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["stream.records"] == traced.records_processed
        assert "stream.drain" in tracer.stage_names()
