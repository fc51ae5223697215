"""Incremental streaming analysis with checkpoint/resume.

The batch pipeline materializes every feed before any analysis can
start; this package treats the feeds as what they really are -- streams
of (domain, time) sightings -- and maintains online analysis state as
records arrive in simulation-time order:

* :class:`RecordStream` merges all collectors into one event-ordered
  stream with bounded batching (pull-based backpressure).
* :class:`StreamState` / :class:`FeedAccumulator` hold O(domains)
  running statistics: sample counts, unique/exclusive domains,
  pairwise-overlap counters, per-domain volume tallies, first/last
  sighting times.
* :class:`StreamEngine` drives consumption, emits windowed
  :class:`StreamSnapshot` views ("Table 1/2/3 as of day N"), and
  saves its position (the per-feed merge cursors) through
  :mod:`repro.io.checkpoint` so a run can be stopped and resumed
  deterministically.

A snapshot taken after the stream is fully drained matches the batch
:class:`~repro.pipeline.runner.PaperPipeline` byte-for-byte: both paths
feed identical statistics into the same analyses and renderers.
"""

from repro.stream.engine import (
    CHECKPOINT_KIND,
    StreamEngine,
    StreamSnapshot,
    build_stream_engine,
)
from repro.stream.merge import (
    DEFAULT_BATCH_SIZE,
    ColumnRecord,
    ColumnSource,
    RecordStream,
    StreamEvent,
)
from repro.stream.state import (
    FeedAccumulator,
    FrozenFeedStats,
    OnlineCoverageRow,
    StreamState,
    StreamStateError,
)

__all__ = [
    "CHECKPOINT_KIND",
    "ColumnRecord",
    "ColumnSource",
    "DEFAULT_BATCH_SIZE",
    "FeedAccumulator",
    "FrozenFeedStats",
    "OnlineCoverageRow",
    "RecordStream",
    "StreamEngine",
    "StreamEvent",
    "StreamSnapshot",
    "StreamState",
    "StreamStateError",
    "build_stream_engine",
]
