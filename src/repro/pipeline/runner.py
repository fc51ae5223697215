"""The paper pipeline: one object, every table and figure."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis import (
    FeedComparison,
    coverage_table,
    exclusive_scatter,
    first_appearance_latencies,
    duration_errors,
    kendall_matrix,
    last_appearance_gaps,
    pairwise_overlap,
    program_coverage_matrix,
    affiliate_coverage_matrix,
    purity_table,
    revenue_coverage,
    variation_distance_matrix,
    volume_coverage,
)
from repro.analysis.coverage import CoverageRow, OverlapMatrix, ScatterPoint
from repro.analysis.purity import PurityRow
from repro.analysis.timing import BoxStats
from repro.analysis.volume import VolumeCoverageRow
from repro.analysis.affiliates import RevenueCoverageRow
from repro.ecosystem import EcosystemConfig, build_world, paper_config
from repro.ecosystem.world import World
from repro.feeds import (
    FeedCollector,
    FeedDataset,
    PAPER_FEED_ORDER,
    clear_pool_state,
    collect_all,
    land_dataset,
    pool_world,
    set_pool_state,
    standard_feed_suite,
)
from repro.feeds.base import ColumnarFeedDataset, PackedColumns
from repro.io.artifacts import ArtifactCache, artifact_key, fingerprint
from repro.store.sightings import RunWriter, SightingStore, run_key_for
from repro.parallel import (
    PoolClosed,
    WorkerCrashed,
    WorkerPool,
    fork_available,
    resolve_jobs,
)
from repro.reporting.charts import (
    render_bars,
    render_box_stats,
    render_scatter,
    render_stacked_bars,
)
from repro.reporting.matrix import render_overlap_matrix, render_value_matrix
from repro.reporting.paper_tables import (
    render_table1,
    render_table2,
    render_table3,
    table1_data,
)
from repro.simtime import MINUTES_PER_DAY, MINUTES_PER_HOUR

#: Feeds measured in Figure 9 (all except Bot, whose domains barely
#: overlap the others).
FIG9_FEEDS = ("Hyb", "Ac2", "Ac1", "mx3", "mx2", "mx1", "uribl", "dbl", "Hu")

#: The live-mail (honeypot) feeds used for Figures 10-12.
HONEYPOT_FEEDS = ("Ac2", "Ac1", "mx3", "mx2", "mx1")

#: Every paper artifact, in the order :meth:`PaperPipeline.render_all`
#: joins them; each has a ``render_<artifact>`` method.
ARTIFACTS = ("table1", "table2", "table3") + tuple(
    f"figure{n}" for n in range(1, 13)
)


@dataclasses.dataclass
class PipelineResult:
    """Everything a pipeline run produces."""

    world: World
    datasets: Dict[str, FeedDataset]
    comparison: FeedComparison


#: Per-worker render pipeline, installed by a pool broadcast after the
#: feeds are collected.  Worker-local by construction: the broadcast
#: runs inside each forked worker, so this global never changes in the
#: parent process.
_RENDER_PIPELINE: Optional["PaperPipeline"] = None


def _pool_install_render_state(
    payload: "Tuple[List[PackedColumns], int, List[str]]",
) -> bool:
    """Pool broadcast handler: build this worker's render pipeline.

    The world is inherited copy-on-write (it existed when the pool
    forked); only the collected columns -- which did not -- are shipped,
    as packed blobs.  Each worker assembles its own comparison and warms
    the shared crawl so the subsequent render tasks find everything
    cached.  Rendering is a pure function of ``(world, datasets, seed)``,
    so worker-built state yields byte-identical text.
    """
    global _RENDER_PIPELINE
    packed, seed, feed_order = payload
    world = pool_world()
    datasets: Dict[str, FeedDataset] = {
        p.name: ColumnarFeedDataset.from_packed(p) for p in packed
    }
    comparison = FeedComparison(world, datasets, seed=seed)
    pipeline = PaperPipeline(seed=seed, feed_order=feed_order)
    pipeline._result = PipelineResult(world, datasets, comparison)
    comparison.crawl_results()
    _RENDER_PIPELINE = pipeline  # reprolint: disable=REP009 -- post-fork, worker-local install
    return True


def _pool_render_task(name: str) -> str:
    """Pool task: run one named renderer on the installed pipeline."""
    if _RENDER_PIPELINE is None:
        raise RuntimeError(
            "render state was not installed in this pool worker"
        )
    render = getattr(_RENDER_PIPELINE, name)
    return str(render())


class PaperPipeline:
    """Builds the world once and serves every paper artifact from it."""

    def __init__(
        self,
        config: Optional[EcosystemConfig] = None,
        seed: int = 2012,
        collectors: Optional[Sequence[FeedCollector]] = None,
        feed_order: Sequence[str] = PAPER_FEED_ORDER,
        jobs: Optional[int] = None,
        cache: Optional[ArtifactCache] = None,
        store: Optional[SightingStore] = None,
        shards: Optional[int] = None,
    ):
        self.config = config or paper_config()
        self.seed = seed
        self._collectors = list(collectors) if collectors else None
        self.feed_order = list(feed_order)
        #: Worker count for collection and rendering fan-outs.  Pure
        #: execution width: every artifact is byte-identical at any
        #: value (None/1 = serial, 0 = all cores).
        self.jobs = jobs
        #: Shard count for the world build.  Like ``jobs``, pure
        #: execution width: ``shards=1`` (or None) builds serially and
        #: any other value produces a byte-identical world in parallel
        #: shard workers.  Not part of any cache key for that reason.
        self.shards = shards
        #: Optional content-addressed artifact cache.  Only runs with
        #: the standard feed suite are cached -- custom collector lists
        #: are not part of the cache key.
        self.cache = cache
        #: Optional sighting store.  Every collected record lands in it
        #: under a run key derived from (config fingerprint, seed) --
        #: like the cache key, a custom collector list is not part of
        #: the key.  The store is an output only: analyses never read
        #: it, so results are byte-identical with or without one.
        self.store = store
        self._result: Optional[PipelineResult] = None
        #: The persistent worker pool, forked once per run immediately
        #: after the world is built (cold runs with ``jobs`` > 1 only).
        #: It stays alive across collect and render so both stages
        #: share one fork bill; :meth:`close` releases it.
        self._pool: Optional[WorkerPool] = None
        self._render_installed = False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _cache_key(self, kind: str) -> Optional[str]:
        """The content address for this run's *kind* artifact.

        None when caching does not apply: no cache configured, or a
        custom collector suite whose behavior the config fingerprint
        cannot capture.
        """
        if self.cache is None or self._collectors is not None:
            return None
        return artifact_key(kind, fingerprint(self.config), self.seed)

    def _load_cached_state(self) -> Optional[PipelineResult]:
        key = self._cache_key("pipeline-state")
        if key is None:
            return None
        payload = self.cache.load(key) if self.cache else None
        if not isinstance(payload, dict):
            return None
        world = payload.get("world")
        columns = payload.get("columns")
        if not isinstance(world, World) or not isinstance(columns, list):
            return None
        if not all(isinstance(c, PackedColumns) for c in columns):
            return None
        try:
            datasets: Dict[str, FeedDataset] = {
                packed.name: ColumnarFeedDataset.from_packed(packed)
                for packed in columns
            }
        except ValueError:
            return None  # blob does not round-trip: treat as a miss
        comparison = FeedComparison(world, datasets, seed=self.seed)
        return PipelineResult(world, datasets, comparison)

    def _store_state(self, result: PipelineResult) -> None:
        key = self._cache_key("pipeline-state")
        if key is None or self.cache is None:
            return
        self.cache.store(
            key,
            {
                "world": result.world,
                "columns": [
                    result.datasets[name].packed()
                    for name in result.datasets
                ],
            },
        )

    def run(self) -> PipelineResult:
        """Build world, collect feeds, assemble the comparison (cached).

        With an artifact cache attached, a warm run deserializes the
        world and the columnar datasets instead of rebuilding them; the
        resulting comparison is identical either way because both the
        world build and every collector are pure functions of
        ``(config, seed)``.
        """
        if self._result is not None:
            return self._result
        try:
            return self._run_cold()
        except BaseException:
            # An interrupt (or any crash) between the pool fork and the
            # end of collection must not orphan the workers: reap them
            # on the way out so Ctrl-C leaves no children behind.
            self.close()
            raise

    def _run_cold(self) -> PipelineResult:
        with obs.span("pipeline.run", seed=self.seed):
            writer = self._open_store_run()
            with obs.span("cache.load-state"):
                self._result = self._load_cached_state()
            if self._result is None:
                with obs.span("world.build", shards=self.shards or 1):
                    if self.shards is not None and self.shards > 1:
                        from repro.ecosystem.shard import build_world_sharded

                        world = build_world_sharded(
                            self.config,
                            seed=self.seed,
                            shards=self.shards,
                            jobs=self.jobs,
                        )
                    else:
                        world = build_world(self.config, seed=self.seed)
                collectors = (
                    self._collectors or standard_feed_suite(self.seed)
                )
                self._fork_pool(world, collectors)
                with obs.span("feeds.collect", feeds=len(collectors)):
                    datasets = collect_all(
                        world, collectors, writer=writer, pool=self._pool
                    )
                with obs.span("comparison.assemble"):
                    comparison = FeedComparison(
                        world, datasets, seed=self.seed
                    )
                self._result = PipelineResult(world, datasets, comparison)
                with obs.span("cache.store-state"):
                    self._store_state(self._result)
            elif writer is not None:
                # Cache hit: the datasets never passed through
                # collect_all, so land them here.  Idempotent landing
                # makes this a no-op when a previous run of the same
                # (config, seed) already landed into this store.
                with obs.span("store.land"):
                    for name in self._result.datasets:
                        land_dataset(writer, self._result.datasets[name])
            if writer is not None:
                writer.finish()
        return self._result

    def _fork_pool(
        self, world: World, collectors: List[FeedCollector]
    ) -> None:
        """Fork the persistent worker pool (parallel runs only).

        On a cold run the fork happens *after* the world is built --
        and after its shared placement index is pre-warmed -- so every
        worker inherits all of it copy-on-write, and *before*
        collection, so collect and render both reuse the same workers.
        A state-cache hit skips collection, so :meth:`render_all` forks
        the pool only if the render cache misses too.  Serial runs and
        platforms without fork never fork.
        """
        width = resolve_jobs(self.jobs)
        if width < 2 or not fork_available():
            return
        with obs.span("pool.fork", width=width):
            world.placements_by_domain()
            set_pool_state(world, list(collectors))
            try:
                self._pool = WorkerPool(width)
            except WorkerCrashed:
                clear_pool_state()  # degrade to the serial loops

    @property
    def pool_width(self) -> int:
        """Live workers in the persistent pool (0 = serial or degraded)."""
        if self._pool is None or self._pool.closed:
            return 0
        return self._pool.width

    def close(self) -> None:
        """Release the worker pool and its pre-fork state.  Idempotent."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._render_installed = False
            clear_pool_state()

    def __enter__(self) -> "PaperPipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        self.close()

    def _open_store_run(self) -> Optional[RunWriter]:
        if self.store is None:
            return None
        config_fingerprint = fingerprint(self.config)
        return self.store.open_run(
            run_key_for(config_fingerprint, self.seed),
            self.seed,
            config_fingerprint,
            "run",
        )

    @property
    def comparison(self) -> FeedComparison:
        """The (lazily built) analysis context."""
        return self.run().comparison

    def stream_engine(self):
        """A fresh :class:`~repro.stream.StreamEngine` over this run's data.

        The engine replays the already-collected records incrementally;
        draining it and snapshotting reproduces this pipeline's
        Table 1/2/3 byte-for-byte.
        """
        from repro.stream.engine import StreamEngine

        result = self.run()
        return StreamEngine(
            result.world,
            result.datasets,
            seed=self.seed,
            feed_order=self.feed_order,
        )

    def _present_feeds(self, wanted: Sequence[str]) -> List[str]:
        present = set(self.run().datasets)
        return [name for name in wanted if name in present]

    # ------------------------------------------------------------------
    # Table 1
    # ------------------------------------------------------------------

    def table1(self) -> Dict[str, Dict[str, int]]:
        """Feed summary: total samples and unique registered domains."""
        result = self.run()
        return table1_data(
            result.datasets, self._present_feeds(self.feed_order)
        )

    def render_table1(self) -> str:
        """Table 1 in the paper's layout."""
        result = self.run()
        return render_table1(
            result.datasets, self._present_feeds(self.feed_order)
        )

    # ------------------------------------------------------------------
    # Table 2
    # ------------------------------------------------------------------

    def table2(self) -> List[PurityRow]:
        """Purity indicators per feed."""
        return purity_table(
            self.comparison, self._present_feeds(self.feed_order)
        )

    def render_table2(self) -> str:
        """Table 2 in the paper's layout."""
        return render_table2(self.table2())

    # ------------------------------------------------------------------
    # Table 3
    # ------------------------------------------------------------------

    def table3(self) -> List[CoverageRow]:
        """Total/exclusive domain counts per feed."""
        return coverage_table(
            self.comparison, self._present_feeds(self.feed_order)
        )

    def render_table3(self) -> str:
        """Table 3 in the paper's layout."""
        return render_table3(self.table3())

    # ------------------------------------------------------------------
    # Figures
    # ------------------------------------------------------------------

    def figure1(self, kind: str = "live") -> List[ScatterPoint]:
        """Distinct vs. exclusive scatter data."""
        return exclusive_scatter(
            self.comparison, kind, self._present_feeds(self.feed_order)
        )

    def render_figure1(self) -> str:
        """Both Figure 1 panels as scatter tables."""
        left = render_scatter(
            self.figure1("live"), title="Figure 1 (left): live domains"
        )
        right = render_scatter(
            self.figure1("tagged"), title="Figure 1 (right): tagged domains"
        )
        return f"{left}\n\n{right}"

    def figure2(self, kind: str = "live") -> OverlapMatrix:
        """Pairwise feed intersection matrix."""
        return pairwise_overlap(
            self.comparison, kind, self._present_feeds(self.feed_order)
        )

    def render_figure2(self) -> str:
        """Both Figure 2 matrices."""
        left = render_overlap_matrix(
            self.figure2("live"),
            title="Figure 2 (left): pairwise intersection, live domains",
        )
        right = render_overlap_matrix(
            self.figure2("tagged"),
            title="Figure 2 (right): pairwise intersection, tagged domains",
        )
        return f"{left}\n\n{right}"

    def figure3(self, kind: str = "live") -> List[VolumeCoverageRow]:
        """Volume coverage rows."""
        return volume_coverage(
            self.comparison, kind, self._present_feeds(self.feed_order)
        )

    def render_figure3(self) -> str:
        """Both Figure 3 panels as stacked bars."""
        parts = []
        for kind, label in (("live", "live"), ("tagged", "tagged")):
            rows = self.figure3(kind)
            parts.append(
                render_stacked_bars(
                    [
                        (r.feed, r.covered_fraction, r.benign_fraction)
                        for r in rows
                    ],
                    title=(
                        f"Figure 3 ({label}): spam volume coverage "
                        "(# covered, : Alexa/ODP)"
                    ),
                )
            )
        return "\n\n".join(parts)

    def figure4(self) -> OverlapMatrix:
        """Affiliate-program coverage matrix."""
        return program_coverage_matrix(
            self.comparison, self._present_feeds(self.feed_order)
        )

    def render_figure4(self) -> str:
        """Figure 4 matrix."""
        return render_overlap_matrix(
            self.figure4(),
            title="Figure 4: pairwise affiliate-program coverage",
        )

    def figure5(self) -> OverlapMatrix:
        """RX-Promotion affiliate-id coverage matrix."""
        return affiliate_coverage_matrix(
            self.comparison, self._present_feeds(self.feed_order)
        )

    def render_figure5(self) -> str:
        """Figure 5 matrix."""
        return render_overlap_matrix(
            self.figure5(),
            title="Figure 5: pairwise RX-Promotion affiliate coverage",
        )

    def figure6(self) -> List[RevenueCoverageRow]:
        """Revenue-weighted affiliate coverage."""
        return revenue_coverage(
            self.comparison, self._present_feeds(self.feed_order)
        )

    def render_figure6(self) -> str:
        """Figure 6 bars (millions of USD)."""
        rows = self.figure6()
        return render_bars(
            [(r.feed, r.covered_revenue / 1e6) for r in rows],
            unit="M USD",
            title=(
                "Figure 6: RX-Promotion affiliate coverage weighted by "
                "2010 revenue"
            ),
        )

    def _volume_feeds(self) -> List[str]:
        order = self._present_feeds(self.feed_order)
        volume = set(self.comparison.volume_feed_names)
        return [n for n in order if n in volume]

    def figure7(self) -> Dict[str, Dict[str, float]]:
        """Pairwise variation distance (volume feeds + Mail)."""
        return variation_distance_matrix(
            self.comparison, self._volume_feeds()
        )

    def render_figure7(self) -> str:
        """Figure 7 matrix."""
        matrix = self.figure7()
        return render_value_matrix(
            matrix,
            title=(
                "Figure 7: pairwise variational distance of tagged "
                "domain frequency"
            ),
        )

    def figure8(self) -> Dict[str, Dict[str, float]]:
        """Pairwise Kendall tau-b (volume feeds + Mail)."""
        return kendall_matrix(self.comparison, self._volume_feeds())

    def render_figure8(self) -> str:
        """Figure 8 matrix."""
        return render_value_matrix(
            self.figure8(),
            title=(
                "Figure 8: pairwise Kendall rank correlation of tagged "
                "domain frequency"
            ),
        )

    def figure9(self) -> Dict[str, BoxStats]:
        """Relative first-appearance times, all feeds except Bot."""
        feeds = self._present_feeds(FIG9_FEEDS)
        return first_appearance_latencies(
            self.comparison, feeds, reference_feeds=feeds
        )

    def render_figure9(self) -> str:
        """Figure 9 box summaries (days)."""
        return render_box_stats(
            self.figure9(),
            order=self._present_feeds(FIG9_FEEDS),
            divisor=MINUTES_PER_DAY,
            unit="days",
            title=(
                "Figure 9: relative first appearance time "
                "(campaign start from all feeds except Bot)"
            ),
        )

    def figure10(self) -> Dict[str, BoxStats]:
        """First-appearance times relative to honeypot feeds only."""
        feeds = self._present_feeds(HONEYPOT_FEEDS)
        return first_appearance_latencies(self.comparison, feeds)

    def render_figure10(self) -> str:
        """Figure 10 box summaries (hours)."""
        return render_box_stats(
            self.figure10(),
            order=self._present_feeds(HONEYPOT_FEEDS),
            divisor=MINUTES_PER_HOUR,
            unit="hours",
            title=(
                "Figure 10: relative first appearance time "
                "(campaign start from MX/honey-account feeds only)"
            ),
        )

    def figure11(self) -> Dict[str, BoxStats]:
        """Last-appearance gap vs. aggregate campaign end."""
        feeds = self._present_feeds(HONEYPOT_FEEDS)
        return last_appearance_gaps(self.comparison, feeds)

    def render_figure11(self) -> str:
        """Figure 11 box summaries (hours)."""
        return render_box_stats(
            self.figure11(),
            order=self._present_feeds(HONEYPOT_FEEDS),
            divisor=MINUTES_PER_HOUR,
            unit="hours",
            title="Figure 11: last appearance vs. campaign end",
        )

    def figure12(self) -> Dict[str, BoxStats]:
        """Duration-estimate error vs. aggregate campaign duration."""
        feeds = self._present_feeds(HONEYPOT_FEEDS)
        return duration_errors(self.comparison, feeds)

    def render_figure12(self) -> str:
        """Figure 12 box summaries (hours)."""
        return render_box_stats(
            self.figure12(),
            order=self._present_feeds(HONEYPOT_FEEDS),
            divisor=MINUTES_PER_HOUR,
            unit="hours",
            title="Figure 12: domain lifetime vs. campaign duration",
        )

    # ------------------------------------------------------------------
    # Everything at once
    # ------------------------------------------------------------------

    def render_all(self) -> str:
        """Every table and figure, separated by blank lines.

        The fifteen renderers are independent given a warmed
        comparison, so with ``jobs`` > 1 they run on the persistent
        worker pool and come back joined in the fixed paper order --
        the text is byte-identical at any worker count.  Without a
        usable pool they run in a serial loop.  A warm render cache
        short-circuits the whole computation.
        """
        with obs.span("render.all"):
            with obs.span("cache.load-render"):
                cache_key = self._cache_key("render-all")
                if cache_key is not None and self.cache is not None:
                    cached = self.cache.load(cache_key)
                    if isinstance(cached, str):
                        return cached

            names = [f"render_{artifact}" for artifact in ARTIFACTS]
            labels = [f"render.{artifact}" for artifact in ARTIFACTS]
            parts = self._render_on_pool(names, labels)
            if parts is None:
                with obs.span("parallel.fanout", tasks=len(names), width=1):
                    parts = []
                    for name, label in zip(names, labels):
                        with obs.span(label, worker=0):
                            parts.append(getattr(self, name)())
                    obs.add("worker.0.tasks", len(names))
                    obs.add("fanout.tasks", len(names))
            text = "\n\n".join(parts)
            with obs.span("cache.store-render"):
                if cache_key is not None and self.cache is not None:
                    self.cache.store(cache_key, text)
            return text

    def _render_on_pool(
        self, names: List[str], labels: List[str]
    ) -> Optional[List[str]]:
        """The named renderers' output from the worker pool.

        None when this run renders serially: ``jobs`` < 2, no fork, or
        a pool that is closed or crashes (renders are pure, so the
        serial loop's text is identical).  A run that hit the state
        cache never forked; the pool is forked here, now that a render
        is actually needed.  One broadcast ships the packed columns
        into every worker, which warms its own comparison there, so the
        parent never pays the crawl.
        """
        if resolve_jobs(self.jobs) < 2:
            return None
        result = self.run()
        if self._pool is None:
            self._fork_pool(
                result.world, self._collectors or standard_feed_suite(self.seed)
            )
        if self._pool is None or self._pool.closed:
            return None
        try:
            if not self._render_installed:
                packed = [
                    result.datasets[name].packed() for name in result.datasets
                ]
                self._pool.broadcast(
                    _pool_install_render_state,
                    (packed, self.seed, list(self.feed_order)),
                )
                self._render_installed = True
            return self._pool.run_batch(_pool_render_task, names, labels=labels)
        except (PoolClosed, WorkerCrashed):
            self.close()
            return None
