"""Timing analysis (Section 4.4, Figures 9-12).

Lacking ground truth about when campaigns really start and end, the
paper defines *campaign start* as a domain's earliest appearance across
a chosen set of feeds and *campaign end* as its latest appearance across
the live-mail feeds, then measures each feed's latency and estimation
error against those aggregates.  All analyses run over tagged domains
(highest-confidence provenance) unless told otherwise.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.context import FeedComparison
from repro.simtime import SimTime


@dataclasses.dataclass(frozen=True)
class BoxStats:
    """Box-plot summary of a latency/error distribution (in minutes)."""

    n: int
    p5: float
    p25: float
    median: float
    p75: float
    p95: float
    mean: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "BoxStats":
        """Summarize *values*; raises on an empty sample."""
        if not values:
            raise ValueError("cannot summarize an empty sample")
        ordered = sorted(values)
        return cls(
            n=len(ordered),
            p5=_percentile(ordered, 0.05),
            p25=_percentile(ordered, 0.25),
            median=_percentile(ordered, 0.50),
            p75=_percentile(ordered, 0.75),
            p95=_percentile(ordered, 0.95),
            mean=sum(ordered) / len(ordered),
        )

    def scaled(self, divisor: float) -> "BoxStats":
        """The same stats in different units (e.g. minutes -> days)."""
        return BoxStats(
            n=self.n,
            p5=self.p5 / divisor,
            p25=self.p25 / divisor,
            median=self.median / divisor,
            p75=self.p75 / divisor,
            p95=self.p95 / divisor,
            mean=self.mean / divisor,
        )


def _resolve_reference_feeds(
    measured_feeds: Sequence[str],
    reference_feeds: Optional[Sequence[str]],
) -> List[str]:
    """The reference aggregate for a timing figure.

    ``None`` means "default to the measured feeds themselves"
    (Figure 10's honeypot-relative variant).  An explicitly passed
    *empty* reference set is a caller bug -- treating it as the default
    would silently change what the figure measures -- so it raises
    instead of being coerced.
    """
    if reference_feeds is None:
        return list(measured_feeds)
    refs = list(reference_feeds)
    if not refs:
        raise ValueError(
            "reference_feeds must be non-empty; pass None to default "
            "to the measured feeds"
        )
    return refs


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an already-sorted sample."""
    if not ordered:
        raise ValueError("empty sample")
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    low_val = float(ordered[low])
    high_val = float(ordered[high])
    # a + (b - a) * w is exact on ties and monotone in w; the clamp
    # keeps one-ulp rounding inside the segment so percentiles never
    # escape the sample range.
    interpolated = low_val + (high_val - low_val) * weight
    return min(max(interpolated, low_val), high_val)


# ----------------------------------------------------------------------
# Aggregate reference times
# ----------------------------------------------------------------------


def feed_first_seen(
    comparison: FeedComparison, feed: str, domains: Set[str]
) -> Dict[str, SimTime]:
    """First sighting per domain within one feed, restricted to *domains*."""
    first = comparison.datasets[feed].first_seen()
    return {d: t for d, t in first.items() if d in domains}


def feed_last_seen(
    comparison: FeedComparison, feed: str, domains: Set[str]
) -> Dict[str, SimTime]:
    """Last sighting per domain within one feed, restricted to *domains*."""
    last = comparison.datasets[feed].last_seen()
    return {d: t for d, t in last.items() if d in domains}


def campaign_start_times(
    comparison: FeedComparison,
    reference_feeds: Sequence[str],
    domains: Iterable[str],
) -> Dict[str, SimTime]:
    """Campaign start: earliest appearance across *reference_feeds*."""
    keyset = set(domains)
    starts: Dict[str, SimTime] = {}
    for feed in reference_feeds:
        for domain, t in comparison.datasets[feed].first_seen().items():
            if domain not in keyset:
                continue
            prev = starts.get(domain)
            if prev is None or t < prev:
                starts[domain] = t
    return starts


def campaign_end_times(
    comparison: FeedComparison,
    reference_feeds: Sequence[str],
    domains: Iterable[str],
) -> Dict[str, SimTime]:
    """Campaign end: latest appearance across *reference_feeds*."""
    keyset = set(domains)
    ends: Dict[str, SimTime] = {}
    for feed in reference_feeds:
        for domain, t in comparison.datasets[feed].last_seen().items():
            if domain not in keyset:
                continue
            prev = ends.get(domain)
            if prev is None or t > prev:
                ends[domain] = t
    return ends


# ----------------------------------------------------------------------
# Figures 9-12
# ----------------------------------------------------------------------


def first_appearance_latencies(
    comparison: FeedComparison,
    measured_feeds: Sequence[str],
    reference_feeds: Optional[Sequence[str]] = None,
    kind: str = "tagged",
) -> Dict[str, BoxStats]:
    """Figures 9/10: relative first-appearance time per feed.

    For each feed, over the domains it shares with the reference
    aggregate, measures ``first_seen_in_feed - campaign_start``.
    *reference_feeds* defaults to the measured feeds themselves
    (Figure 10's honeypot-relative variant); Figure 9 passes all feeds
    except Bot as the reference.
    """
    refs = _resolve_reference_feeds(measured_feeds, reference_feeds)
    union: Set[str] = set()
    for feed in measured_feeds:
        union |= _kind_domains(comparison, feed, kind)
    starts = campaign_start_times(comparison, refs, union)

    stats: Dict[str, BoxStats] = {}
    for feed in measured_feeds:
        domains = _kind_domains(comparison, feed, kind)
        firsts = feed_first_seen(comparison, feed, domains)
        latencies = [
            float(firsts[d] - starts[d])
            for d in firsts
            if d in starts
        ]
        if latencies:
            stats[feed] = BoxStats.from_values(latencies)
    return stats


def last_appearance_gaps(
    comparison: FeedComparison,
    measured_feeds: Sequence[str],
    reference_feeds: Optional[Sequence[str]] = None,
    kind: str = "tagged",
) -> Dict[str, BoxStats]:
    """Figure 11: gap between a feed's last sighting and campaign end."""
    refs = _resolve_reference_feeds(measured_feeds, reference_feeds)
    union: Set[str] = set()
    for feed in measured_feeds:
        union |= _kind_domains(comparison, feed, kind)
    ends = campaign_end_times(comparison, refs, union)

    stats: Dict[str, BoxStats] = {}
    for feed in measured_feeds:
        domains = _kind_domains(comparison, feed, kind)
        lasts = feed_last_seen(comparison, feed, domains)
        gaps = [
            float(ends[d] - lasts[d])
            for d in lasts
            if d in ends
        ]
        if gaps:
            stats[feed] = BoxStats.from_values(gaps)
    return stats


def duration_errors(
    comparison: FeedComparison,
    measured_feeds: Sequence[str],
    reference_feeds: Optional[Sequence[str]] = None,
    kind: str = "tagged",
) -> Dict[str, BoxStats]:
    """Figure 12: campaign-duration underestimation per feed.

    Campaign duration (end minus start, both from the reference
    aggregate) is always at least a feed's in-feed domain lifetime; the
    statistic is the difference.
    """
    refs = _resolve_reference_feeds(measured_feeds, reference_feeds)
    union: Set[str] = set()
    for feed in measured_feeds:
        union |= _kind_domains(comparison, feed, kind)
    starts = campaign_start_times(comparison, refs, union)
    ends = campaign_end_times(comparison, refs, union)

    stats: Dict[str, BoxStats] = {}
    for feed in measured_feeds:
        domains = _kind_domains(comparison, feed, kind)
        firsts = feed_first_seen(comparison, feed, domains)
        lasts = feed_last_seen(comparison, feed, domains)
        errors: List[float] = []
        for domain in firsts:
            if domain not in starts or domain not in ends:
                continue
            duration = ends[domain] - starts[domain]
            lifetime = lasts[domain] - firsts[domain]
            errors.append(float(duration - lifetime))
        if errors:
            stats[feed] = BoxStats.from_values(errors)
    return stats


def _kind_domains(
    comparison: FeedComparison, feed: str, kind: str
) -> Set[str]:
    if kind == "tagged":
        return comparison.tagged_domains(feed)
    if kind == "live":
        return comparison.live_domains(feed)
    if kind == "all":
        return comparison.unique_domains(feed)
    raise ValueError(f"unknown domain kind {kind!r}")
