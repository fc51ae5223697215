"""Online analysis state: per-feed and cross-feed accumulators.

Every structure here is updatable in O(1) per event and snapshotable at
any moment.  Two layers:

* :class:`FeedAccumulator` -- one feed's running statistics (sample
  count, unique domains, per-domain volume, first/last sighting).  It
  satisfies the :class:`~repro.feeds.base.FeedStats` protocol, so a
  drained accumulator can be dropped into
  :class:`~repro.analysis.context.FeedComparison` and produce results
  identical to the record-backed batch path.
* :class:`StreamState` -- the whole suite plus cross-feed counters that
  the batch analyses only derive at the end: per-domain occurrence
  counts (exclusivity), pairwise intersection counts (the Figure 2
  numerators over all domains), and the union size.  These power the
  cheap always-current :meth:`online_coverage` view that needs no
  oracle access at all.

State is never serialized: a checkpoint holds only the per-feed
cursors, and resuming replays each feed's consumed prefix through
:meth:`StreamState.update`, the one accumulation path.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.feeds.base import FeedType
from repro.simtime import SimTime
from repro.stats.distributions import EmpiricalDistribution


class StreamEvent(NamedTuple):
    """One sighting: which feed saw which domain, and when."""

    time: SimTime
    feed: str
    domain: str


class StreamStateError(ValueError):
    """Raised when an event names a feed the state does not track."""


class FeedAccumulator:
    """One feed's running statistics, updated per sighting.

    Interface-compatible with :class:`~repro.feeds.base.FeedDataset`
    (the :class:`~repro.feeds.base.FeedStats` surface) minus the raw
    record list -- memory stays proportional to *distinct* domains, not
    to sightings.
    """

    def __init__(self, name: str, feed_type: FeedType, has_volume: bool = True):
        self.name = name
        self.feed_type = feed_type
        self.has_volume = has_volume
        self._samples = 0
        self._counts: Dict[str, int] = {}
        self._first: Dict[str, SimTime] = {}
        self._last: Dict[str, SimTime] = {}
        self._unique: Set[str] = set()

    def add(self, domain: str, time: SimTime) -> bool:
        """Absorb one sighting; True when *domain* is new to this feed."""
        self._samples += 1
        count = self._counts.get(domain)
        if count is None:
            self._counts[domain] = 1
            self._first[domain] = time
            self._last[domain] = time
            self._unique.add(domain)
            return True
        self._counts[domain] = count + 1
        if time < self._first[domain]:
            self._first[domain] = time
        if time > self._last[domain]:
            self._last[domain] = time
        return False

    # -- FeedStats surface ---------------------------------------------

    @property
    def total_samples(self) -> int:
        """Total sightings absorbed."""
        return self._samples

    @property
    def n_unique(self) -> int:
        """Number of distinct domains seen."""
        return len(self._unique)

    def unique_domains(self) -> Set[str]:
        """Distinct domains seen so far (live view; do not mutate)."""
        return self._unique

    def domain_counts(self) -> EmpiricalDistribution:
        """Empirical domain-volume distribution of sightings so far."""
        return EmpiricalDistribution(
            {d: float(c) for d, c in self._counts.items()}
        )

    def first_seen(self) -> Dict[str, SimTime]:
        """Earliest sighting time per domain (live view)."""
        return self._first

    def last_seen(self) -> Dict[str, SimTime]:
        """Latest sighting time per domain (live view)."""
        return self._last

    # -- Snapshot ------------------------------------------------------

    def freeze(self) -> "FrozenFeedStats":
        """An immutable copy safe to analyze while streaming continues."""
        return FrozenFeedStats(
            name=self.name,
            feed_type=self.feed_type,
            has_volume=self.has_volume,
            total_samples=self._samples,
            counts=dict(self._counts),
            first=dict(self._first),
            last=dict(self._last),
        )

    def __repr__(self) -> str:
        return (
            f"FeedAccumulator({self.name!r}, samples={self._samples}, "
            f"unique={self.n_unique})"
        )


@dataclasses.dataclass(frozen=True)
class FrozenFeedStats:
    """An immutable FeedStats snapshot decoupled from the live stream."""

    name: str
    feed_type: FeedType
    has_volume: bool
    total_samples: int
    counts: Dict[str, int]
    first: Dict[str, SimTime]
    last: Dict[str, SimTime]

    @property
    def n_unique(self) -> int:
        return len(self.counts)

    def unique_domains(self) -> Set[str]:
        return set(self.counts)

    def domain_counts(self) -> EmpiricalDistribution:
        return EmpiricalDistribution(
            {d: float(c) for d, c in self.counts.items()}
        )

    def first_seen(self) -> Dict[str, SimTime]:
        return self.first

    def last_seen(self) -> Dict[str, SimTime]:
        return self.last


@dataclasses.dataclass(frozen=True)
class OnlineCoverageRow:
    """One feed's oracle-free running coverage numbers."""

    feed: str
    samples: int
    unique: int
    exclusive: int
    union_fraction: float


class StreamState:
    """The full online state: all accumulators plus cross-feed counters."""

    def __init__(self, feeds: Sequence[Tuple[str, FeedType, bool]]):
        if not feeds:
            raise ValueError("need at least one feed")
        self.accumulators: Dict[str, FeedAccumulator] = {}
        for name, feed_type, has_volume in feeds:
            if name in self.accumulators:
                raise ValueError(f"duplicate feed name {name!r}")
            self.accumulators[name] = FeedAccumulator(
                name, feed_type, has_volume
            )
        #: domain -> number of feeds that have seen it.
        self._occurrences: Dict[str, int] = {}
        #: domain -> sole owning feed, while exactly one feed has it.
        self._sole_owner: Dict[str, str] = {}
        #: feed -> number of domains currently exclusive to it.
        self._exclusive: Dict[str, int] = {
            name: 0 for name in self.accumulators
        }
        #: unordered feed pair -> |A ∩ B| over all-kind domains.
        self._pair_counts: Dict[Tuple[str, str], int] = {}
        self.records_processed = 0
        self.clock: Optional[SimTime] = None

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(self, event: StreamEvent) -> None:
        """Absorb one sighting."""
        time, feed, domain = event
        try:
            accumulator = self.accumulators[feed]
        except KeyError:
            raise StreamStateError(f"event for unknown feed {feed!r}")
        is_new = accumulator.add(domain, time)
        self.records_processed += 1
        if self.clock is None or time > self.clock:
            self.clock = time
        if not is_new:
            return
        occurrences = self._occurrences.get(domain, 0)
        if occurrences == 0:
            self._occurrences[domain] = 1
            self._sole_owner[domain] = feed
            self._exclusive[feed] += 1
            return
        self._occurrences[domain] = occurrences + 1
        if occurrences == 1:
            previous = self._sole_owner.pop(domain)
            self._exclusive[previous] -= 1
        # Pairwise counters: this domain is newly shared with every
        # feed that already had it.
        for other, acc in self.accumulators.items():
            if other != feed and domain in acc.unique_domains():
                self._pair_counts[_pair_key(feed, other)] = (
                    self._pair_counts.get(_pair_key(feed, other), 0) + 1
                )

    # ------------------------------------------------------------------
    # Online (oracle-free) views
    # ------------------------------------------------------------------

    @property
    def feed_names(self) -> List[str]:
        """Feed mnemonics in registration order."""
        return list(self.accumulators)

    @property
    def union_size(self) -> int:
        """Distinct domains across all feeds so far."""
        return len(self._occurrences)

    def exclusive_count(self, feed: str) -> int:
        """Domains currently seen by *feed* and no other."""
        return self._exclusive[feed]

    def pairwise_intersection(self, a: str, b: str) -> int:
        """``|A ∩ B|`` over all-kind domains, as of now."""
        if a == b:
            return self.accumulators[a].n_unique
        return self._pair_counts.get(_pair_key(a, b), 0)

    def online_coverage(self) -> List[OnlineCoverageRow]:
        """Running Table 1 / Table 3 ("all" kind) shaped numbers."""
        union = self.union_size
        rows = []
        for name, acc in self.accumulators.items():
            rows.append(
                OnlineCoverageRow(
                    feed=name,
                    samples=acc.total_samples,
                    unique=acc.n_unique,
                    exclusive=self._exclusive[name],
                    union_fraction=acc.n_unique / union if union else 0.0,
                )
            )
        return rows

    def freeze(self) -> Dict[str, FrozenFeedStats]:
        """Immutable per-feed stats for snapshot-time analysis."""
        return {
            name: acc.freeze() for name, acc in self.accumulators.items()
        }

    def __repr__(self) -> str:
        return (
            f"StreamState(feeds={len(self.accumulators)}, "
            f"records={self.records_processed}, union={self.union_size})"
        )


def _pair_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)
