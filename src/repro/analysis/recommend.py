"""Feed recommendation: Section 5's guidance as code.

The paper closes with guidelines — "there is no perfect feed... the
choice should be closely related to the questions we are trying to
answer" — and enumerates which feed families suit which study types.
This module turns the measured qualities into a ranking engine: given a
:class:`FeedComparison` and a research question, score every feed and
explain the ranking.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Optional, Sequence

from repro.analysis.context import FeedComparison
from repro.analysis.coverage import pairwise_overlap
from repro.analysis.proportionality import (
    MAIL,
    variation_distance_matrix,
)
from repro.analysis.purity import purity_row
from repro.analysis.timing import first_appearance_latencies
from repro.simtime import MINUTES_PER_DAY


class Question(enum.Enum):
    """The study types Section 5 distinguishes."""

    #: What is advertised via spam?  (breadth of distinct domains)
    COVERAGE = "coverage"
    #: Direct mail filtering: false positives are costly.
    FILTERING = "filtering"
    #: When do campaigns start?  (early-warning latency)
    ONSET = "onset"
    #: When do campaigns end / how long do they run?
    DURATION = "duration"
    #: Relative prevalence of campaigns ("25% of all spam is X").
    PROPORTIONALITY = "proportionality"


@dataclasses.dataclass(frozen=True)
class FeedScore:
    """One feed's score for one question, with the evidence behind it."""

    feed: str
    question: Question
    score: float
    rationale: str

    def __str__(self) -> str:
        return f"{self.feed}: {self.score:.3f} ({self.rationale})"


def _coverage_scores(
    comparison: FeedComparison, feeds: Sequence[str]
) -> List[FeedScore]:
    matrix = pairwise_overlap(comparison, "tagged", feeds)
    scores = []
    for feed in feeds:
        fraction = matrix.union_coverage(feed)
        scores.append(
            FeedScore(
                feed,
                Question.COVERAGE,
                fraction,
                f"covers {100 * fraction:.0f}% of the tagged-domain union",
            )
        )
    return scores


def _filtering_scores(
    comparison: FeedComparison, feeds: Sequence[str]
) -> List[FeedScore]:
    matrix = pairwise_overlap(comparison, "tagged", feeds)
    scores = []
    for feed in feeds:
        row = purity_row(comparison, feed)
        # Non-existent domains are "merely a nuisance" operationally
        # (Section 4.1); what poisons a filter is benign domains among
        # the *registered* ones, so normalize the benign rate by the
        # feed's DNS purity (a DGA-flooded feed gets no dilution
        # credit).
        benign = (row.alexa + row.odp) / max(row.dns, 0.01)
        purity_factor = max(0.0, 1.0 - 10.0 * benign)
        coverage = matrix.union_coverage(feed)
        score = purity_factor * (0.25 + 0.75 * coverage)
        scores.append(
            FeedScore(
                feed,
                Question.FILTERING,
                score,
                f"{100 * benign:.1f}% benign rate among registered "
                f"domains, {100 * coverage:.0f}% tagged coverage",
            )
        )
    return scores


def _onset_scores(
    comparison: FeedComparison, feeds: Sequence[str]
) -> List[FeedScore]:
    stats = first_appearance_latencies(
        comparison, feeds, reference_feeds=feeds
    )
    scores = []
    for feed in feeds:
        if feed not in stats:
            continue
        median_days = stats[feed].median / MINUTES_PER_DAY
        score = 1.0 / (1.0 + median_days)
        scores.append(
            FeedScore(
                feed,
                Question.ONSET,
                score,
                f"median first-appearance lag {median_days:.2f} days",
            )
        )
    return scores


def _duration_scores(
    comparison: FeedComparison, feeds: Sequence[str]
) -> List[FeedScore]:
    # Feeds driven by live mail capture last-appearance faithfully; user
    # -reported feeds (human, hybrid, blacklists) distort campaign ends
    # (Section 4.4.2), so they are structurally penalized.
    from repro.feeds.base import FeedType

    live_mail_types = {FeedType.MX_HONEYPOT, FeedType.HONEY_ACCOUNT,
                       FeedType.BOTNET}
    matrix = pairwise_overlap(comparison, "tagged", feeds)
    scores = []
    for feed in feeds:
        dataset = comparison.datasets[feed]
        structural = 1.0 if dataset.feed_type in live_mail_types else 0.2
        coverage = matrix.union_coverage(feed)
        scores.append(
            FeedScore(
                feed,
                Question.DURATION,
                structural * (0.5 + 0.5 * coverage),
                (
                    "live-mail feed"
                    if structural == 1.0
                    else "user-reported timing (distorted ends)"
                )
                + f", {100 * coverage:.0f}% tagged coverage",
            )
        )
    return scores


def _proportionality_scores(
    comparison: FeedComparison, feeds: Sequence[str]
) -> List[FeedScore]:
    volume_feeds = [
        f for f in feeds if comparison.datasets[f].has_volume
    ]
    scores: List[FeedScore] = []
    for feed in feeds:
        if feed not in volume_feeds:
            scores.append(
                FeedScore(
                    feed, Question.PROPORTIONALITY, 0.0,
                    "no per-message volume information",
                )
            )
    if volume_feeds:
        matrix = variation_distance_matrix(comparison, volume_feeds)
        for feed in volume_feeds:
            distance = matrix[feed][MAIL]
            scores.append(
                FeedScore(
                    feed,
                    Question.PROPORTIONALITY,
                    1.0 - distance,
                    f"variation distance {distance:.2f} to incoming mail",
                )
            )
    return scores


_SCORERS = {
    Question.COVERAGE: _coverage_scores,
    Question.FILTERING: _filtering_scores,
    Question.ONSET: _onset_scores,
    Question.DURATION: _duration_scores,
    Question.PROPORTIONALITY: _proportionality_scores,
}


def rank_feeds(
    comparison: FeedComparison,
    question: Question,
    feeds: Optional[Sequence[str]] = None,
) -> List[FeedScore]:
    """Rank feeds for *question*, best first."""
    names = list(feeds) if feeds is not None else comparison.feed_names
    scores = _SCORERS[question](comparison, names)
    return sorted(scores, key=lambda s: (-s.score, s.feed))


def recommend(
    comparison: FeedComparison,
    question: Question,
    feeds: Optional[Sequence[str]] = None,
) -> FeedScore:
    """The single best feed for *question*."""
    ranking = rank_feeds(comparison, question, feeds)
    if not ranking:
        raise ValueError(f"no feed could be scored for {question}")
    return ranking[0]


def diverse_portfolio(
    comparison: FeedComparison,
    size: int,
    kind: str = "tagged",
    feeds: Optional[Sequence[str]] = None,
) -> List[str]:
    """Greedy max-coverage feed portfolio (Section 5: "the priority
    should be to obtain a set that is as diverse as possible").

    Picks the feed with the largest *marginal* domain contribution at
    each step — additional feeds of the same type naturally add little
    and are skipped in favor of methodological diversity.
    """
    if size < 1:
        raise ValueError("portfolio size must be positive")
    names = list(feeds) if feeds is not None else comparison.feed_names
    from repro.analysis.coverage import domain_sets

    sets = domain_sets(comparison, kind, names)
    chosen: List[str] = []
    covered: set = set()
    remaining = dict(sets)
    while remaining and len(chosen) < size:
        best, gain = None, -1
        for feed in sorted(remaining):
            marginal = len(remaining[feed] - covered)
            if marginal > gain:
                best, gain = feed, marginal
        if best is None or gain <= 0:
            break
        chosen.append(best)
        covered |= remaining.pop(best)
    return chosen


def portfolio_coverage(
    comparison: FeedComparison,
    portfolio: Sequence[str],
    kind: str = "tagged",
) -> float:
    """Fraction of the all-feed union covered by *portfolio*."""
    matrix = pairwise_overlap(comparison, kind)
    return matrix.combined_coverage(portfolio)
