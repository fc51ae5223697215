"""The streaming analysis engine: advance, snapshot, checkpoint, resume.

:class:`StreamEngine` keeps one cursor per feed into that feed's
time-sorted records and folds the records it moves over into a
:class:`~repro.stream.state.StreamState`.  At any moment it can produce
a :class:`StreamSnapshot` -- the paper's Table 1/2/3 (and Figure 1-3
data) *as of* the records folded so far.  A snapshot taken after every
record is folded is byte-identical to the batch
:class:`~repro.pipeline.runner.PaperPipeline` output: both paths feed
the same statistics into the same :class:`FeedComparison` analyses and
the same renderers.

A checkpoint is the per-feed cursor vector alone, written through
:mod:`repro.io.checkpoint`: the record sources are deterministic
functions of ``(config, seed)``, so resuming rebuilds them, moves the
cursors back to where they were (folding each feed's prefix into fresh
accumulators), and continues exactly where the previous run stopped.
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import obs
from repro.analysis.context import FeedComparison
from repro.analysis.coverage import (
    CoverageRow,
    OverlapMatrix,
    ScatterPoint,
    coverage_table,
    exclusive_scatter,
    pairwise_overlap,
)
from repro.analysis.purity import PurityRow, purity_table
from repro.analysis.volume import VolumeCoverageRow, volume_coverage
from repro.ecosystem import EcosystemConfig, build_world, paper_config
from repro.ecosystem.world import World
from repro.feeds import (
    FeedCollector,
    FeedDataset,
    FeedRecord,
    PAPER_FEED_ORDER,
    collect_all,
    standard_feed_suite,
)
from repro.io.checkpoint import (
    CHECKPOINT_SCHEMAS,
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from repro.reporting.paper_tables import (
    render_table1,
    render_table2,
    render_table3,
    table1_data,
)
from repro.simtime import MINUTES_PER_DAY, SimTime
from repro.store.sightings import RunWriter, SightingStore, run_key_for
from repro.stream.state import (
    FrozenFeedStats,
    OnlineCoverageRow,
    StreamEvent,
    StreamState,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.io.artifacts import ArtifactCache

#: Checkpoint envelope kind for stream-engine positions.
CHECKPOINT_KIND = "stream-engine"


@dataclasses.dataclass
class StreamSnapshot:
    """Frozen as-of-now analysis over the consumed prefix of the stream.

    The heavy artifacts (purity, coverage, overlap, volume) are computed
    lazily through a :class:`FeedComparison` built over frozen
    accumulator statistics, so taking a snapshot is cheap and analyzing
    it is decoupled from the still-advancing stream.
    """

    world: World
    seed: int
    feeds: Mapping[str, FrozenFeedStats]
    feed_order: Sequence[str]
    records_processed: int
    as_of: Optional[SimTime]

    def __post_init__(self) -> None:
        self._comparison: Optional[FeedComparison] = None

    @property
    def as_of_day(self) -> Optional[int]:
        """Zero-based day index of the snapshot clock (None when empty)."""
        if self.as_of is None:
            return None
        return self.world.timeline.day_of(self.as_of)

    @property
    def comparison(self) -> FeedComparison:
        """The (lazily built) analysis context over the frozen stats."""
        if self._comparison is None:
            self._comparison = FeedComparison(
                self.world, dict(self.feeds), seed=self.seed
            )
        return self._comparison

    def _present(self, wanted: Optional[Sequence[str]] = None) -> List[str]:
        wanted = self.feed_order if wanted is None else wanted
        return [name for name in wanted if name in self.feeds]

    # -- Table/figure data, mirroring PaperPipeline ---------------------

    def table1(self) -> Dict[str, Dict[str, int]]:
        """Feed summary: total samples and unique domains so far."""
        return table1_data(self.feeds, self._present())

    def table2(self) -> List[PurityRow]:
        """Purity indicators per feed, as of the consumed prefix."""
        return purity_table(self.comparison, self._present())

    def table3(self) -> List[CoverageRow]:
        """Total/exclusive domain counts per feed."""
        return coverage_table(self.comparison, self._present())

    def figure1(self, kind: str = "live") -> List[ScatterPoint]:
        """Distinct vs. exclusive scatter data."""
        return exclusive_scatter(self.comparison, kind, self._present())

    def figure2(self, kind: str = "live") -> OverlapMatrix:
        """Pairwise feed intersection matrix."""
        return pairwise_overlap(self.comparison, kind, self._present())

    def figure3(self, kind: str = "live") -> List[VolumeCoverageRow]:
        """Volume coverage rows."""
        return volume_coverage(self.comparison, kind, self._present())

    # -- Rendering ------------------------------------------------------

    def header(self) -> str:
        """One-line provenance banner for as-of-day output."""
        day = self.as_of_day
        when = "before any records" if day is None else f"day {day + 1}"
        return (
            f"[stream] as of {when}: "
            f"{self.records_processed:,} records processed"
        )

    def render_table1(self) -> str:
        """Table 1 in the paper's layout (batch-identical when drained)."""
        return render_table1(self.feeds, self._present())

    def render_table2(self) -> str:
        """Table 2 in the paper's layout."""
        return render_table2(self.table2())

    def render_table3(self) -> str:
        """Table 3 in the paper's layout."""
        return render_table3(self.table3())

    def render_tables(self) -> str:
        """All three tables, separated by blank lines."""
        return "\n\n".join(
            [self.render_table1(), self.render_table2(), self.render_table3()]
        )


class StreamEngine:
    """Incrementally analyze feed records, one per-feed cursor each.

    Every way the engine moves -- :meth:`advance_to_day`, :meth:`run`
    and :meth:`restore` -- names a target cursor per feed and goes
    through one private move, which folds each feed's record slice
    through :meth:`StreamState.update`.  An accumulator only ever sees
    its own feed's chronological subsequence, and the cross-feed
    counters are order-independent set sizes, so folding feed by feed
    gives the state a time-interleaved replay would.
    """

    def __init__(
        self,
        world: World,
        datasets: Mapping[str, FeedDataset],
        seed: int = 2012,
        feed_order: Sequence[str] = PAPER_FEED_ORDER,
    ):
        self.world = world
        self.seed = seed
        self.feed_order = list(feed_order)
        self.datasets = dict(datasets)
        self._records: Dict[str, List[FeedRecord]] = {
            name: ds.chronological_records()
            for name, ds in self.datasets.items()
        }
        self._cursors: Dict[str, int] = dict.fromkeys(self._records, 0)
        self.state = self._fresh_state()
        self._writer: Optional[RunWriter] = None
        #: Per-feed records already offered to the attached store.
        self._landed: Dict[str, int] = {}

    def _fresh_state(self) -> StreamState:
        return StreamState(
            [
                (ds.name, ds.feed_type, ds.has_volume)
                for ds in self.datasets.values()
            ]
        )

    # ------------------------------------------------------------------
    # Store landing
    # ------------------------------------------------------------------

    def attach_store(
        self,
        store: SightingStore,
        config_fingerprint: str,
        command: str = "stream",
    ) -> None:
        """Land every folded record into *store*, idempotently.

        The run key derives from (config fingerprint, seed), the same
        identity the artifact cache uses, so a batch ``run --store``
        and a ``stream --store`` against the same file land the same
        run exactly once.  The prefix the engine has already folded
        (a resumed run) lands first, so the store never misses the
        records before the resume point; the writer's positional
        prefix-skip makes that free when the prefix is already landed.
        """
        self._writer = store.open_run(
            run_key_for(config_fingerprint, self.seed),
            self.seed,
            config_fingerprint,
            command,
        )
        self._landed = {}
        for name, cursor in self._cursors.items():
            self._land(name, cursor)
        self._writer.finish()

    def _land(self, name: str, target: int) -> None:
        """Offer feed *name*'s records up to *target* to the store.

        Only records past what this writer was already offered land: a
        rewind's replay never lands a sighting twice.
        """
        landed = self._landed.get(name, 0)
        if self._writer is None or target <= landed:
            return
        self._writer.land_sightings(
            name,
            (
                (record.domain, record.time)
                for record in self._records[name][landed:target]
            ),
        )
        self._landed[name] = target

    def finish_store(self) -> None:
        """Commit any store landings performed so far."""
        if self._writer is not None:
            self._writer.finish()

    # ------------------------------------------------------------------
    # Moving the cursors
    # ------------------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True once every feed's cursor is at the end of its records."""
        return all(
            cursor == len(self._records[name])
            for name, cursor in self._cursors.items()
        )

    @property
    def records_processed(self) -> int:
        """Total records folded into the state so far."""
        return self.state.records_processed

    def _move(self, targets: Mapping[str, int]) -> int:
        """Move every feed's cursor to its target; returns #folded.

        A target behind its cursor restarts the fold from a fresh state
        with zero cursors, so the count includes that replay.
        """
        if any(targets[name] < cursor for name, cursor in self._cursors.items()):
            self.state = self._fresh_state()
            self._cursors = dict.fromkeys(self._cursors, 0)
        update = self.state.update
        before = self.state.records_processed
        for name, records in self._records.items():
            for record in records[self._cursors[name] : targets[name]]:
                update(StreamEvent(record.time, name, record.domain))
            self._land(name, targets[name])
            self._cursors[name] = targets[name]
        folded = self.state.records_processed - before
        if self._writer is not None:
            self._writer.finish()
        obs.add("stream.records", folded)
        return folded

    def advance_to_day(self, day: int) -> int:
        """Fold everything before the start of (zero-based) *day*.

        Moves in either direction: an earlier day than the engine's
        replays from the start.  Returns the records folded.
        """
        boundary = self.world.timeline.start + day * MINUTES_PER_DAY
        with obs.span("stream.advance", day=day) as span:
            consumed = self._move(
                {
                    name: _count_before(records, boundary)
                    for name, records in self._records.items()
                }
            )
            if span is not None:
                span.attributes["records"] = consumed
        return consumed

    def run(self) -> int:
        """Fold every remaining record; returns #folded."""
        with obs.span("stream.drain") as span:
            consumed = self._move(
                {name: len(records) for name, records in self._records.items()}
            )
            if span is not None:
                span.attributes["records"] = consumed
        return consumed

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> StreamSnapshot:
        """Freeze the current state for analysis."""
        obs.add("stream.snapshots")
        return StreamSnapshot(
            world=self.world,
            seed=self.seed,
            feeds=self.state.freeze(),
            feed_order=self.feed_order,
            records_processed=self.state.records_processed,
            as_of=self.state.clock,
        )

    def online_coverage(self) -> List[OnlineCoverageRow]:
        """The cheap oracle-free running coverage view."""
        return self.state.online_coverage()

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------

    def checkpoint_payload(self) -> Dict[str, Any]:
        """The complete resumable position as a JSON-friendly payload.

        The cursors alone fix the state: the sources are rebuilt from
        ``(config, seed)`` on resume and their consumed prefixes
        replayed (see :meth:`restore`).
        """
        return {
            "seed": self.seed,
            "feed_order": list(self.feed_order),
            "cursors": dict(self._cursors),
        }

    def save_checkpoint(self, path: str) -> None:
        """Atomically write the current position to *path*."""
        write_checkpoint(path, CHECKPOINT_KIND, self.checkpoint_payload())

    def restore(self, payload: Mapping[str, Any]) -> None:
        """Reposition the engine at a :meth:`checkpoint_payload` position.

        The engine must have been constructed over the same world and
        datasets (same seed and feed suite) as the checkpointing run;
        a mismatched or malformed payload raises
        :class:`CheckpointError`.  Otherwise the engine moves its
        cursors to the checkpoint's, which folds each feed's prefix and
        so rebuilds the exact state the checkpointing engine had.
        """
        seed, feed_order, cursors = _parse_checkpoint(payload)
        if seed != self.seed:
            raise CheckpointError(
                f"checkpoint seed {seed} does not match engine seed "
                f"{self.seed}"
            )
        if set(cursors) != set(self.datasets):
            raise CheckpointError(
                "checkpoint feeds do not match engine feeds: "
                f"{sorted(cursors)} vs {sorted(self.datasets)}"
            )
        for name, cursor in cursors.items():
            size = len(self._records[name])
            if not 0 <= cursor <= size:
                raise CheckpointError(
                    f"checkpoint cursor {cursor} out of range for feed "
                    f"{name!r} (0..{size})"
                )
        with obs.span("stream.replay") as span:
            replayed = self._move(cursors)
            if span is not None:
                span.attributes["records"] = replayed
        self.feed_order = feed_order

    @classmethod
    def resume(
        cls,
        world: World,
        datasets: Mapping[str, FeedDataset],
        path: str,
    ) -> "StreamEngine":
        """Build an engine over *datasets* positioned at checkpoint *path*."""
        payload = read_checkpoint(path, CHECKPOINT_KIND)
        seed, _, _ = _parse_checkpoint(payload)
        engine = cls(world, datasets, seed=seed)
        engine.restore(payload)
        return engine

    def __repr__(self) -> str:
        return (
            f"StreamEngine(records={self.records_processed}, "
            f"exhausted={self.exhausted})"
        )


def _parse_checkpoint(
    payload: Mapping[str, Any],
) -> Tuple[int, List[str], Dict[str, int]]:
    """``(seed, feed_order, cursors)`` of a checkpoint payload.

    The payload is outside input (a file on disk), so every field is
    type-checked here; anything malformed raises
    :class:`CheckpointError` rather than failing later mid-replay.
    """
    fields = CHECKPOINT_SCHEMAS[CHECKPOINT_KIND]
    if not isinstance(payload, Mapping) or set(payload) != set(fields):
        raise CheckpointError(
            "bad engine checkpoint: payload fields must be exactly "
            + ", ".join(fields)
        )
    seed = payload["seed"]
    feed_order = payload["feed_order"]
    cursors = payload["cursors"]
    if not _is_int(seed):
        raise CheckpointError("bad engine checkpoint: seed is not an integer")
    if not isinstance(feed_order, list) or not all(
        isinstance(name, str) for name in feed_order
    ):
        raise CheckpointError(
            "bad engine checkpoint: feed_order is not a list of feed names"
        )
    if not isinstance(cursors, dict):
        raise CheckpointError("bad engine checkpoint: cursors not an object")
    for name, cursor in cursors.items():
        if not _is_int(cursor):
            raise CheckpointError(
                f"bad engine checkpoint: cursor for feed {name!r} is not "
                "an integer"
            )
    return seed, feed_order, cursors


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _count_before(records: Sequence[FeedRecord], boundary: SimTime) -> int:
    """How many of the time-sorted *records* fall strictly before
    *boundary* (a bisection on ``record.time``)."""
    lo, hi = 0, len(records)
    while lo < hi:
        mid = (lo + hi) // 2
        if records[mid].time < boundary:
            lo = mid + 1
        else:
            hi = mid
    return lo


def build_stream_engine(
    config: Optional[EcosystemConfig] = None,
    seed: int = 2012,
    collectors: Optional[Sequence[FeedCollector]] = None,
    feed_order: Sequence[str] = PAPER_FEED_ORDER,
    jobs: Optional[int] = None,
    cache: Optional["ArtifactCache"] = None,
    shards: Optional[int] = None,
) -> StreamEngine:
    """Build the world, collect the feed suite, and wrap it in an engine.

    The record *sources* are deterministic functions of ``(config,
    seed)``, which is what makes checkpoints portable across processes:
    a resuming run rebuilds identical sources and seeks the cursors.
    ``jobs`` parallelizes source collection, ``shards`` parallelizes the
    world build itself, and ``cache`` reuses a previously built world +
    dataset state; none of them changes a byte of the stream.
    """
    if jobs is not None or cache is not None or (shards or 1) > 1:
        # The batch pipeline already implements cached/parallel state
        # construction; reuse it rather than duplicating the key
        # handling here.  Imported lazily to keep the stream layer
        # importable without the pipeline layer.
        from repro.pipeline.runner import PaperPipeline

        # Close the pipeline once collected: the stream engine only
        # needs the state, so any persistent worker pool the run forked
        # would otherwise idle for the engine's whole lifetime.
        with PaperPipeline(
            config, seed=seed, collectors=collectors,
            feed_order=feed_order, jobs=jobs, cache=cache,
            shards=shards,
        ) as pipeline:
            result = pipeline.run()
        world, datasets = result.world, result.datasets
    else:
        with obs.span("world.build"):
            world = build_world(config or paper_config(), seed=seed)
        with obs.span("feeds.collect"):
            datasets = collect_all(
                world, collectors or standard_feed_suite(seed)
            )
    return StreamEngine(world, datasets, seed=seed, feed_order=feed_order)
