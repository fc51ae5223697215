"""Incremental streaming analysis with checkpoint/resume.

The batch pipeline materializes every feed before any analysis can
start; this package treats the feeds as what they really are -- streams
of (domain, time) sightings -- and maintains online analysis state as
each feed's records are folded in time order:

* :class:`StreamState` / :class:`FeedAccumulator` hold O(domains)
  running statistics: sample counts, unique/exclusive domains,
  pairwise-overlap counters, per-domain volume tallies, first/last
  sighting times.
* :class:`StreamEngine` moves one cursor per feed (forward, or back by
  replaying from the start), emits windowed :class:`StreamSnapshot`
  views ("Table 1/2/3 as of day N"), and saves its position (the
  per-feed cursors) through :mod:`repro.io.checkpoint` so a run can be
  stopped and resumed deterministically.

Every table is a per-feed fold compared across feeds, so folding feed
by feed needs no cross-feed time interleaving.  A snapshot taken after
every record is folded matches the batch
:class:`~repro.pipeline.runner.PaperPipeline` byte-for-byte: both paths
feed identical statistics into the same analyses and renderers.
"""

from repro.stream.engine import (
    CHECKPOINT_KIND,
    StreamEngine,
    StreamSnapshot,
    build_stream_engine,
)
from repro.stream.state import (
    FeedAccumulator,
    FrozenFeedStats,
    OnlineCoverageRow,
    StreamEvent,
    StreamState,
    StreamStateError,
)

__all__ = [
    "CHECKPOINT_KIND",
    "FeedAccumulator",
    "FrozenFeedStats",
    "OnlineCoverageRow",
    "StreamEngine",
    "StreamEvent",
    "StreamSnapshot",
    "StreamState",
    "StreamStateError",
    "build_stream_engine",
]
