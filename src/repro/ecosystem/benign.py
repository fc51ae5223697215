"""The benign web: popularity lists, redirectors, chaff, newsletters.

Benign domains enter spam feeds three ways (Section 4.1.3): spammers
include legitimate links (chaff / phished brands), legitimate mail is
inadvertently captured (typos, sign-up dummy addresses, newsletters
mis-reported by users), and spammers abuse legitimate redirection
services to hide behind established domains.  The last group is the
dangerous one: Alexa/ODP-listed redirectors can be *tagged* (they really
do lead to a storefront) and carry enormous mail volume (Figure 3).
"""

from __future__ import annotations

import random
from typing import List, Set

from repro.domains import BenignNameGenerator
from repro.stats.distributions import zipf_weights


class BenignWorld:
    """Benign-domain populations and their popularity structure."""

    def __init__(
        self,
        alexa_ranked: List[str],
        odp_domains: Set[str],
        redirectors: List[str],
        chaff_pool: List[str],
        newsletter_domains: List[str],
    ):
        self.alexa_ranked = list(alexa_ranked)
        self.alexa_set = set(alexa_ranked)
        if len(self.alexa_set) != len(self.alexa_ranked):
            raise ValueError("alexa list contains duplicates")
        self.odp_domains = set(odp_domains)
        self.redirectors = list(redirectors)
        self.chaff_pool = list(chaff_pool)
        self.newsletter_domains = list(newsletter_domains)
        for r in self.redirectors:
            if r not in self.alexa_set:
                raise ValueError(f"redirector {r!r} must be Alexa-listed")
        #: Zipf weights over the chaff pool: a handful of chaff domains
        #: (DTD hosts, big image hosts) recur in a huge share of spam.
        self._chaff_weights = zipf_weights(len(self.chaff_pool), 1.7) if self.chaff_pool else []

    @property
    def all_benign(self) -> Set[str]:
        """Union of every benign population."""
        return (
            self.alexa_set
            | self.odp_domains
            | set(self.chaff_pool)
            | set(self.newsletter_domains)
        )

    def is_benign(self, domain: str) -> bool:
        """True if *domain* belongs to any benign population."""
        return (
            domain in self.alexa_set
            or domain in self.odp_domains
            or domain in self._chaff_set()
            or domain in self._newsletter_set()
        )

    def _chaff_set(self) -> Set[str]:
        if not hasattr(self, "_chaff_cached"):
            self._chaff_cached = set(self.chaff_pool)
        return self._chaff_cached

    def _newsletter_set(self) -> Set[str]:
        if not hasattr(self, "_newsletter_cached"):
            self._newsletter_cached = set(self.newsletter_domains)
        return self._newsletter_cached

    def sample_chaff(self, rng: random.Random) -> str:
        """Draw one chaff domain (Zipf-weighted toward the head)."""
        if not self.chaff_pool:
            raise ValueError("empty chaff pool")
        x = rng.random()
        acc = 0.0
        for domain, w in zip(self.chaff_pool, self._chaff_weights):
            acc += w
            if x <= acc:
                return domain
        return self.chaff_pool[-1]

    def sample_redirector(self, rng: random.Random) -> str:
        """Draw one redirector service domain (uniform)."""
        if not self.redirectors:
            raise ValueError("no redirector services in this world")
        return rng.choice(self.redirectors)

    def sample_newsletter(self, rng: random.Random) -> str:
        """Draw one newsletter/legit-commercial domain (uniform)."""
        if not self.newsletter_domains:
            raise ValueError("no newsletter domains in this world")
        return rng.choice(self.newsletter_domains)


def build_benign_world(
    rng: random.Random,
    alexa_size: int,
    odp_size: int,
    odp_alexa_overlap: float,
    n_redirectors: int,
    chaff_pool_size: int,
    n_newsletter_domains: int,
) -> BenignWorld:
    """Generate the benign web.

    Redirector services are drawn from the top of the Alexa ranking
    (URL shorteners and free-hosting sites are very popular); chaff is a
    mix of Alexa and ODP domains; newsletters are ordinary benign names
    that may or may not be listed.
    """
    if not (0.0 <= odp_alexa_overlap <= 1.0):
        raise ValueError("odp_alexa_overlap out of range")
    if n_redirectors > alexa_size:
        raise ValueError("more redirectors than Alexa slots")

    gen = BenignNameGenerator(rng)
    alexa_ranked = gen.generate_batch(alexa_size)

    n_overlap = int(round(odp_size * odp_alexa_overlap))
    n_overlap = min(n_overlap, alexa_size)
    odp: Set[str] = set(rng.sample(alexa_ranked, n_overlap))
    odp.update(gen.generate_batch(odp_size - n_overlap))

    # Redirector/free-hosting services are popular but not the very
    # head of the ranking (search engines and social networks are).
    band_start = min(2_500, max(0, alexa_size - n_redirectors))
    band_end = min(alexa_size, max(band_start + n_redirectors, 8_000))
    band = alexa_ranked[band_start:band_end]
    redirectors = rng.sample(band, n_redirectors)

    chaff_candidates = [d for d in alexa_ranked if d not in redirectors]
    chaff_from_alexa = rng.sample(
        chaff_candidates, min(chaff_pool_size // 2, len(chaff_candidates))
    )
    odp_only = sorted(odp - set(alexa_ranked))
    chaff_from_odp = rng.sample(
        odp_only, min(chaff_pool_size - len(chaff_from_alexa), len(odp_only))
    )
    chaff_pool = chaff_from_alexa + chaff_from_odp

    newsletters = gen.generate_batch(n_newsletter_domains)

    return BenignWorld(
        alexa_ranked=alexa_ranked,
        odp_domains=odp,
        redirectors=redirectors,
        chaff_pool=chaff_pool,
        newsletter_domains=newsletters,
    )
