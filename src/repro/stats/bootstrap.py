"""Bootstrap confidence intervals for coverage-style fractions.

The paper reports point estimates; when adopting its methodology on a
single feed sample it is useful to know how stable a coverage or purity
fraction is.  This module provides a nonparametric bootstrap over
domain sets: resample the union with replacement, recompute the
fraction of resampled elements belonging to the feed, and report
percentile intervals.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Hashable, Iterable, List, Sequence, Set

from repro.stats.rng import derive_rng

if TYPE_CHECKING:
    from repro.analysis.context import FeedComparison


@dataclasses.dataclass(frozen=True)
class BootstrapInterval:
    """A point estimate with a percentile confidence interval."""

    estimate: float
    low: float
    high: float
    confidence: float
    replicates: int

    def contains(self, value: float) -> bool:
        """True if *value* lies inside the interval."""
        return self.low <= value <= self.high

    @property
    def width(self) -> float:
        """Interval width."""
        return self.high - self.low

    def __str__(self) -> str:
        return (
            f"{self.estimate:.3f} "
            f"[{self.low:.3f}, {self.high:.3f}] "
            f"@{self.confidence:.0%}"
        )


def bootstrap_fraction(
    members: Iterable[Hashable],
    universe: Sequence[Hashable],
    replicates: int = 1_000,
    confidence: float = 0.95,
    seed: int = 0,
) -> BootstrapInterval:
    """CI for ``|members ∩ universe| / |universe|`` under resampling.

    *universe* is resampled with replacement; each replicate recomputes
    the member fraction.  Raises ``ValueError`` on an empty universe or
    invalid parameters.
    """
    universe = list(universe)
    if not universe:
        raise ValueError("empty universe")
    if replicates < 1:
        raise ValueError("need at least one replicate")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    member_set: Set[Hashable] = set(members)
    n = len(universe)
    estimate = sum(1 for item in universe if item in member_set) / n

    rng = derive_rng(seed, "bootstrap")
    stats: List[float] = []
    for _ in range(replicates):
        hits = 0
        for _ in range(n):
            if universe[int(rng.random() * n)] in member_set:
                hits += 1
        stats.append(hits / n)
    stats.sort()
    alpha = (1.0 - confidence) / 2.0
    low_index = max(0, int(alpha * replicates))
    high_index = min(replicates - 1, int((1.0 - alpha) * replicates))
    return BootstrapInterval(
        estimate=estimate,
        low=stats[low_index],
        high=stats[high_index],
        confidence=confidence,
        replicates=replicates,
    )


def bootstrap_coverage(
    comparison: "FeedComparison",
    feed: str,
    kind: str = "tagged",
    replicates: int = 1_000,
    confidence: float = 0.95,
    seed: int = 0,
) -> BootstrapInterval:
    """CI for one feed's union-coverage fraction (Figure 2 cells)."""
    from repro.analysis.coverage import domain_sets

    sets = domain_sets(comparison, kind)
    union: Set[Hashable] = set()
    for domains in sets.values():
        union |= domains
    return bootstrap_fraction(
        sets[feed], sorted(union), replicates, confidence, seed
    )
