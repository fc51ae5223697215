"""The web-crawl oracle (Click Trajectories-style tagging, Section 3.4).

The original apparatus visited every spam-advertised URL with an
instrumented browser, followed redirections to the final storefront, and
matched the storefront against hand-built content signatures for 45
affiliate programs.  Our oracle reproduces its *verdict surface*:

* ``http_ok`` -- did any visit during the measurement period reach a
  live site (HTTP 200)?
* ``program_id`` -- the affiliate program of the final storefront, when
  the site matched a known signature ("tagged" domains).
* ``affiliate_id`` -- the embedded affiliate identifier, extractable
  only for the program that embeds one (the RX-Promotion analog).

Redirector domains resolve to the storefront *behind* them, so an
Alexa-listed shortener abused by a tagged campaign is itself tagged --
the false-positive hazard Section 4.1.4 discusses.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional

from repro.ecosystem.world import World
from repro.simtime import SimTime, hours
from repro.stats.rng import derive_rng


@dataclasses.dataclass(frozen=True)
class CrawlResult:
    """Verdict of crawling one registered domain."""

    domain: str
    http_ok: bool
    program_id: Optional[int] = None
    affiliate_id: Optional[int] = None

    @property
    def tagged(self) -> bool:
        """True if the crawl reached a known storefront."""
        return self.http_ok and self.program_id is not None

    def __post_init__(self) -> None:
        if self.program_id is not None and not self.http_ok:
            raise ValueError("cannot tag a dead site")


class CrawlOracle:
    """Deterministic crawling verdicts over the world's hosting truth."""

    #: Crawls happen shortly after a URL is received.
    CRAWL_DELAY = hours(2)

    def __init__(self, world: World, seed: int = 0):
        self._world = world
        self._rng = derive_rng(seed, "crawler")
        self._cache: Dict[str, CrawlResult] = {}
        #: Transient fetch failures (network, robot interstitials).
        self.transient_failure_rate = 0.02

    def crawl(self, domain: str, at: SimTime) -> CrawlResult:
        """Visit *domain* at time *at* and return the verdict.

        Verdicts are cached per domain on first crawl, mirroring the
        original pipeline's one-verdict-per-domain tagging output.
        """
        if domain in self._cache:
            return self._cache[domain]
        result = self._crawl_uncached(domain, at + self.CRAWL_DELAY)
        self._cache[domain] = result
        return result

    def _crawl_uncached(self, domain: str, at: SimTime) -> CrawlResult:
        world = self._world

        # Redirector services: the service itself is alive; if a tagged
        # campaign hides behind it, the redirect lands on a storefront.
        tag = world.redirector_tags.get(domain)
        if tag is not None:
            program_id, affiliate_id = tag
            return CrawlResult(
                domain=domain,
                http_ok=True,
                program_id=program_id,
                affiliate_id=self._visible_affiliate(program_id, affiliate_id),
            )

        # Ordinary benign sites are alive and never match a signature.
        if world.benign.is_benign(domain):
            return CrawlResult(domain=domain, http_ok=True)

        record = world.hosting.get(domain)
        if record is None:
            # Unhosted: DGA noise, junk reports, unregistered web spam.
            return CrawlResult(domain=domain, http_ok=False)

        alive = record.live_at(at)
        if alive and self._rng.random() < self.transient_failure_rate:
            alive = False
        if not alive:
            return CrawlResult(domain=domain, http_ok=False)
        return CrawlResult(
            domain=domain,
            http_ok=True,
            program_id=record.program_id,
            affiliate_id=self._visible_affiliate(
                record.program_id, record.affiliate_id
            ),
        )

    def _visible_affiliate(
        self, program_id: Optional[int], affiliate_id: Optional[int]
    ) -> Optional[int]:
        """Affiliate ids are extractable only when the program embeds them."""
        if program_id is None or affiliate_id is None:
            return None
        program = self._world.programs.get(program_id)
        if program is None or not program.embeds_affiliate_id:
            return None
        return affiliate_id

    def crawl_at_first_seen(
        self, first_seen: Dict[str, SimTime]
    ) -> Dict[str, CrawlResult]:
        """Crawl every domain at its first sighting time.

        This mirrors the original pipeline: URLs were visited as they
        arrived in the feeds during the measurement period.
        """
        return {
            domain: self.crawl(domain, at)
            for domain, at in sorted(first_seen.items())
        }

    def live_subset(self, results: Iterable[CrawlResult]) -> set:
        """Domains whose crawl reached a live site."""
        return {r.domain for r in results if r.http_ok}

    def tagged_subset(self, results: Iterable[CrawlResult]) -> set:
        """Domains whose crawl reached a known storefront."""
        return {r.domain for r in results if r.tagged}
