"""Shared capture machinery for feed collectors.

Feeds do not see campaigns; they see messages.  Rather than simulating
the full billion-message stream, each collector computes its *exposure*
to every campaign placement (the fraction of that placement's emitted
messages the apparatus would capture) and draws the captured count from
a Poisson distribution, scattering sighting timestamps across the
placement's active interval.  This is statistically equivalent to
thinning the underlying message process and keeps the simulation
laptop-sized while preserving cross-feed structure: all feeds observe
the same placements, so overlap, proportionality and timing relations
emerge rather than being scripted.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.ecosystem.entities import AddressStrategy, Campaign, DomainPlacement
from repro.ecosystem.world import World
from repro.feeds.base import FeedRecord
from repro.io.columns import ColumnBuilder
from repro.simtime import SimTime

#: Safety cap on records drawn for a single placement, to bound memory
#: against misconfigured exposures.
MAX_RECORDS_PER_PLACEMENT = 100_000

#: Relative reach of each address-list strategy into a *real-user*
#: mailbox population (used by the human feed, blacklist evidence, and
#: the incoming mail oracle).
REAL_USER_REACH: Dict[AddressStrategy, float] = {
    AddressStrategy.BRUTE_FORCE: 0.6,
    AddressStrategy.HARVESTED: 0.8,
    AddressStrategy.PURCHASED: 1.0,
    AddressStrategy.SOCIAL: 1.0,
}


def poisson(rng: random.Random, lam: float) -> int:
    """Draw a Poisson variate.

    Uses Knuth's method for small means and a normal approximation for
    large ones (exact enough for capture counts).
    """
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    if lam == 0:
        return 0
    if lam > 50:
        return max(0, int(round(rng.gauss(lam, math.sqrt(lam)))))
    threshold = math.exp(-lam)
    k = 0
    product = rng.random()
    while product > threshold:
        k += 1
        product *= rng.random()
    return k


def scatter_times(
    rng: random.Random,
    n: int,
    start: SimTime,
    end: SimTime,
    delay: Optional[Callable[[random.Random], float]] = None,
) -> List[SimTime]:
    """Draw *n* sighting times uniformly over [start, end).

    The columnar capture hot path: a burst of sightings of one domain
    is fully described by its time column, so no per-record tuple is
    ever allocated.  The RNG draw order is one uniform draw per record
    (plus one delay draw when *delay* is given), identical to the
    historical record-at-a-time path.

    *delay* optionally adds per-record observation latency in minutes
    (e.g. human report delay); the resulting time may fall outside the
    window and is filtered by the collector's finalize step.
    """
    if n <= 0:
        return []
    span = max(1, end - start)
    if delay is None:
        rand = rng.random
        return [start + int(rand() * span) for _ in range(n)]
    times: List[SimTime] = []
    for _ in range(n):
        t = start + int(rng.random() * span)
        times.append(t + int(delay(rng)))
    return times


def scatter_records(
    rng: random.Random,
    domain: str,
    n: int,
    start: SimTime,
    end: SimTime,
    delay: Optional[Callable[[random.Random], float]] = None,
) -> List[FeedRecord]:
    """Record-tuple view of :func:`scatter_times` (same draws)."""
    return [
        FeedRecord(domain, t)
        for t in scatter_times(rng, n, start, end, delay)
    ]


def capture_placement_times(
    rng: random.Random,
    placement: DomainPlacement,
    exposure: float,
    delay: Optional[Callable[[random.Random], float]] = None,
    cap: Optional[int] = None,
    not_before: Optional[SimTime] = None,
) -> List[SimTime]:
    """Capture one placement at the given *exposure* fraction.

    Returns the sighting-time column (the domain is the placement's);
    *not_before* truncates the feed's observation window: a small
    apparatus sits at one position in the spammer's address-list
    traversal and starts receiving a campaign's messages only once the
    traversal reaches it, so everything the campaign advertised earlier
    is missed.  The captured count shrinks proportionally.
    """
    if exposure <= 0:
        return []
    start = placement.start
    if not_before is not None and not_before > start:
        start = not_before
    if start >= placement.end:
        return []
    visible = (placement.end - start) / placement.duration
    expected = placement.volume * exposure * visible
    n = poisson(rng, expected)
    effective_cap = cap if cap is not None else MAX_RECORDS_PER_PLACEMENT
    if n > effective_cap:
        # The cap exists to bound memory against misconfigured
        # exposures; hitting it silently would skew volume analyses
        # with no trace, so account for every record it drops.
        obs.add("feeds.truncated_records", n - effective_cap)
        obs.add("feeds.truncated_placements")
        n = effective_cap
    return scatter_times(rng, n, start, placement.end, delay)


def capture_placement(
    rng: random.Random,
    placement: DomainPlacement,
    exposure: float,
    delay: Optional[Callable[[random.Random], float]] = None,
    cap: Optional[int] = None,
    not_before: Optional[SimTime] = None,
) -> List[FeedRecord]:
    """Record-tuple view of :func:`capture_placement_times`."""
    return [
        FeedRecord(placement.domain, t)
        for t in capture_placement_times(
            rng, placement, exposure, delay, cap, not_before
        )
    ]


def capture_campaign_into(
    builder: ColumnBuilder,
    rng: random.Random,
    campaign: Campaign,
    exposure: float,
    delay: Optional[Callable[[random.Random], float]] = None,
    chaff_sampler: Optional[Callable[[random.Random], str]] = None,
    chaff_probability: float = 0.0,
    onset_max_fraction: float = 0.0,
    respect_broadcast_lag: bool = False,
) -> None:
    """Capture all placements of *campaign* into a column builder.

    Each placement contributes one domain burst (a single list repeat
    plus one array extend, no per-record tuples).  When *chaff_sampler*
    is given, every captured message also reports a co-occurring benign
    domain with probability *chaff_probability* (feeds that report all
    URLs in a message pick up image hosts, DTD references and
    deliberately-inserted legitimate links); chaff sightings follow
    their placement's burst, exactly as the record-at-a-time path
    appended them.

    With *respect_broadcast_lag* the feed only observes each placement
    from its ``broadcast_start``: honeypot-type apparatus sees a domain
    once the broad blast begins, days after the domain's first quiet
    appearance in real mail (Figure 9).  *onset_max_fraction* adds the
    apparatus's own per-placement list-traversal jitter on top.
    """
    for placement in campaign.placements:
        not_before: Optional[SimTime] = None
        if respect_broadcast_lag:
            not_before = placement.broadcast_start
        if onset_max_fraction > 0:
            base = not_before if not_before is not None else placement.start
            remaining = max(0, placement.end - base)
            not_before = base + int(
                rng.random() * onset_max_fraction * remaining
            )
        times = capture_placement_times(
            rng, placement, exposure, delay, not_before=not_before
        )
        builder.extend_burst(placement.domain, times)
        if chaff_sampler is not None and chaff_probability > 0:
            for t in times:
                if rng.random() < chaff_probability:
                    builder.append(chaff_sampler(rng), t)


def capture_campaign(
    rng: random.Random,
    campaign: Campaign,
    exposure: float,
    delay: Optional[Callable[[random.Random], float]] = None,
    chaff_sampler: Optional[Callable[[random.Random], str]] = None,
    chaff_probability: float = 0.0,
    onset_max_fraction: float = 0.0,
    respect_broadcast_lag: bool = False,
) -> List[FeedRecord]:
    """Record-tuple view of :func:`capture_campaign_into` (same draws)."""
    builder = ColumnBuilder()
    capture_campaign_into(
        builder,
        rng,
        campaign,
        exposure,
        delay,
        chaff_sampler,
        chaff_probability,
        onset_max_fraction,
        respect_broadcast_lag,
    )
    block = builder.build()
    return [
        FeedRecord(d, t) for d, t in zip(block.domains, block.times)
    ]


def campaign_inclusion(
    rng: random.Random, probability: float
) -> bool:
    """Decide once per (feed, campaign) whether the feed sees it at all.

    An MX honeypot either is or is not on a campaign's generated address
    list; a honey-account network either was or was not harvested into
    it.  This per-campaign coin toss (as opposed to per-message) is what
    produces feed-exclusive domains.
    """
    if probability <= 0:
        return False
    if probability >= 1:
        return True
    return rng.random() < probability


def delivered_real_user_volume(campaign: Campaign) -> float:
    """Messages from *campaign* that land in real-user inboxes.

    Reach models how much of the address list points at real users;
    filter evasion models how much survives provider-side filtering.
    The incoming-mail oracle and the human feed both build on this.
    """
    reach = REAL_USER_REACH[campaign.strategy]
    return campaign.total_volume * reach * campaign.filter_evasion


def delivered_placement_volume(
    campaign: Campaign, placement: DomainPlacement
) -> float:
    """Per-placement share of :func:`delivered_real_user_volume`."""
    reach = REAL_USER_REACH[campaign.strategy]
    return placement.volume * reach * campaign.filter_evasion


def incoming_placement_volume(
    campaign: Campaign, placement: DomainPlacement
) -> float:
    """Messages *arriving* at real-user mail servers for a placement.

    Unlike :func:`delivered_placement_volume` this is pre-filtering:
    the incoming mail oracle counts messages at the provider's incoming
    servers, before any spam folder or rejection (Section 4.2.2), so
    loud campaigns dominate it even though almost none of their mail
    reaches an inbox.
    """
    reach = REAL_USER_REACH[campaign.strategy]
    return placement.volume * reach


def exponential_delay(mean_minutes: float) -> Callable[[random.Random], float]:
    """Return a sampler of exponential observation delays."""
    if mean_minutes <= 0:
        raise ValueError("mean delay must be positive")

    def sample(rng: random.Random) -> float:
        return rng.expovariate(1.0 / mean_minutes)

    return sample


def total_exposure_records(
    world: World,
    exposures: Dict[int, float],
) -> float:
    """Expected record count given per-campaign exposures (diagnostics)."""
    expected = 0.0
    for campaign in world.campaigns:
        exposure = exposures.get(campaign.campaign_id, 0.0)
        expected += campaign.total_volume * exposure
    return expected
