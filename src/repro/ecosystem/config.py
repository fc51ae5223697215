"""Configuration of the synthetic spam ecosystem.

All knobs of the world generator live here.  The defaults
(:func:`paper_config`) are calibrated so that the ten simulated feeds
reproduce the qualitative shape of the paper's tables and figures at a
scale that runs on a laptop: unique-domain counts are roughly 1:100 of
the paper's and message volumes roughly 1:1500 (the paper's corpus is
over a billion messages).  :func:`small_config` is a miniature world for
fast unit tests.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Tuple

from repro.ecosystem.entities import AddressStrategy, CampaignClass


@dataclasses.dataclass(frozen=True)
class CampaignClassConfig:
    """Generation parameters for one campaign archetype.

    Volumes are drawn from a bounded Pareto (heavy tail: a few campaigns
    dominate total volume, as the paper assumes when noting that tagged
    domains are a third of domains but the bulk of volume).
    """

    count: int
    volume_low: float
    volume_high: float
    volume_alpha: float
    domains_low: int
    domains_high: int
    duration_low_days: float
    duration_high_days: float
    #: (strategy, weight) mix the class draws address strategies from.
    strategies: Tuple[Tuple[AddressStrategy, float], ...]
    chaff_probability: float = 0.0
    redirector_probability: float = 0.0
    filter_evasion_low: float = 0.05
    filter_evasion_high: float = 0.3
    #: Fraction of campaigns in this class run for tagged (known
    #: storefront) programs; the rest advertise minor untagged shops.
    tagged_fraction: float = 1.0
    #: Probability a storefront domain of this class is dead at crawl
    #: time (hosting never provisioned / taken down).  Quiet fly-by-night
    #: operations die much faster than professionally-hosted broadcast
    #: storefronts; this gap drives the Hu feed's low HTTP purity.
    dead_site_probability: float = 0.12
    #: How long (days) after a domain's first quiet appearance the broad
    #: blast begins -- the honeypot-visible phase of each placement.
    broadcast_lag_low_days: float = 0.0
    broadcast_lag_high_days: float = 0.0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if not (0 < self.volume_low <= self.volume_high):
            raise ValueError("need 0 < volume_low <= volume_high")
        if not (1 <= self.domains_low <= self.domains_high):
            raise ValueError("need 1 <= domains_low <= domains_high")
        if not (0 < self.duration_low_days <= self.duration_high_days):
            raise ValueError("bad duration range")
        if not (0.0 <= self.tagged_fraction <= 1.0):
            raise ValueError("tagged_fraction out of range")
        if not self.strategies:
            raise ValueError("need at least one strategy")


@dataclasses.dataclass(frozen=True)
class DgaConfig:
    """The Rustock-style domain-poisoning episode (Section 4.1.1)."""

    #: Number of distinct random pseudo-domains emitted.
    n_domains: int = 60_000
    #: Ground-truth emitted message volume over the episode.
    volume: float = 2_000_000.0
    start_day: float = 20.0
    duration_days: float = 21.0
    #: Fraction of the random names that happen to collide with real
    #: registered (parked) domains -- the likely source of the Bot
    #: feed's exclusive "live" domains in the paper (Section 4.2.1).
    registered_fraction: float = 0.012
    #: The (monitored) botnet that runs the episode, by name.
    botnet_name: str = "rustock"


@dataclasses.dataclass(frozen=True)
class BenignConfig:
    """The benign web: popularity lists, redirectors, chaff."""

    #: Size of the simulated Alexa top list.
    alexa_size: int = 8_000
    #: Size of the simulated Open Directory listing.
    odp_size: int = 6_000
    #: Fraction of ODP domains also on the Alexa list.
    odp_alexa_overlap: float = 0.45
    #: Redirector/free-hosting services abused by spammers (bit.ly,
    #: blogspot, ...).  All are Alexa-listed.
    n_redirectors: int = 40
    #: Chaff pool: benign domains that co-occur in spam messages (image
    #: hosting, DTD references, phished brands).  Drawn from Alexa/ODP.
    chaff_pool_size: int = 600
    #: Plain benign mail domains (newsletters etc.) that users mis-report.
    n_newsletter_domains: int = 400


@dataclasses.dataclass(frozen=True)
class ProgramConfig:
    """Affiliate-program population (Section 4.2.3)."""

    n_pharma: int = 30
    n_replica: int = 8
    n_software: int = 7
    #: RX-Promotion affiliate population; the paper extracted 846
    #: distinct affiliate identifiers from storefront page sources.
    rx_affiliates: int = 260
    affiliates_low: int = 15
    affiliates_high: int = 120
    #: Bounded-Pareto parameters for per-affiliate annual revenue (USD).
    revenue_alpha: float = 0.9
    revenue_low: float = 3_000.0
    revenue_high: float = 3_000_000.0
    #: Zipf exponent for program popularity among spammers.
    popularity_exponent: float = 0.9

    @property
    def total_programs(self) -> int:
        """Total number of tagged affiliate programs (45 in the paper)."""
        return self.n_pharma + self.n_replica + self.n_software


@dataclasses.dataclass(frozen=True)
class BotnetConfig:
    """Botnet population."""

    n_botnets: int = 8
    n_monitored: int = 3
    capacity_low: float = 0.5
    capacity_high: float = 3.0
    #: How many distinct programs a single botnet spams for (operators
    #: act as affiliates themselves; Section 4.2.3).
    programs_per_botnet_low: int = 2
    programs_per_botnet_high: int = 6


@dataclasses.dataclass(frozen=True)
class EcosystemConfig:
    """Everything the world builder needs, minus the seed."""

    programs: ProgramConfig = dataclasses.field(default_factory=ProgramConfig)
    botnets: BotnetConfig = dataclasses.field(default_factory=BotnetConfig)
    benign: BenignConfig = dataclasses.field(default_factory=BenignConfig)
    dga: DgaConfig = dataclasses.field(default_factory=DgaConfig)
    campaign_classes: Dict[CampaignClass, CampaignClassConfig] = dataclasses.field(
        default_factory=dict
    )
    #: Days a storefront domain is registered before first advertisement.
    registration_lead_low_days: float = 0.5
    registration_lead_high_days: float = 10.0
    #: Days a storefront stays up (crawlable) after its last placement.
    hosting_linger_low_days: float = 2.0
    hosting_linger_high_days: float = 45.0
    #: Probability that a storefront domain is already dead (hosting
    #: taken down / never provisioned) when the crawler visits it.
    dead_site_probability: float = 0.12
    #: Hybrid feed's non-email web-spam pool: scraped domains that never
    #: appear in email spam (drives Hyb's exclusive live domains).
    hyb_webspam_pool: int = 16_000
    #: Fraction of that pool that is live (the rest unregistered or dead,
    #: dragging Hyb's DNS purity down to ~64%).
    hyb_webspam_live_fraction: float = 0.28
    #: Pool of junk/never-registered domains that appear in user reports
    #: (typos, truncations); drives Hu's 88% DNS rate.
    junk_report_pool: int = 1_500

    def class_config(self, cls: CampaignClass) -> CampaignClassConfig:
        """Return the config for campaign class *cls* (KeyError if absent)."""
        return self.campaign_classes[cls]


def _default_campaign_classes(scale: float) -> Dict[CampaignClass, CampaignClassConfig]:
    """Campaign-class mix; *scale* multiplies campaign counts."""

    def n(count: int) -> int:
        return max(1, int(round(count * scale)))

    return {
        CampaignClass.BOTNET_BROADCAST: CampaignClassConfig(
            count=n(90),
            volume_low=3_000.0,
            volume_high=1_200_000.0,
            volume_alpha=0.85,
            domains_low=3,
            domains_high=16,
            duration_low_days=4.0,
            duration_high_days=60.0,
            strategies=(
                (AddressStrategy.BRUTE_FORCE, 0.7),
                (AddressStrategy.HARVESTED, 0.3),
            ),
            chaff_probability=0.12,
            redirector_probability=0.08,
            filter_evasion_low=0.01,
            filter_evasion_high=0.10,
            tagged_fraction=0.70,
            dead_site_probability=0.06,
            broadcast_lag_low_days=0.5,
            broadcast_lag_high_days=3.5,
        ),
        CampaignClass.DIRECT_BROADCAST: CampaignClassConfig(
            count=n(340),
            volume_low=500.0,
            volume_high=60_000.0,
            volume_alpha=1.0,
            domains_low=2,
            domains_high=8,
            duration_low_days=2.0,
            duration_high_days=25.0,
            strategies=(
                (AddressStrategy.BRUTE_FORCE, 0.45),
                (AddressStrategy.HARVESTED, 0.55),
            ),
            chaff_probability=0.10,
            redirector_probability=0.10,
            filter_evasion_low=0.05,
            filter_evasion_high=0.25,
            tagged_fraction=0.50,
            dead_site_probability=0.12,
            broadcast_lag_low_days=0.5,
            broadcast_lag_high_days=3.0,
        ),
        CampaignClass.QUIET_TARGETED: CampaignClassConfig(
            count=n(3_200),
            volume_low=20.0,
            volume_high=1_500.0,
            volume_alpha=1.3,
            domains_low=1,
            domains_high=5,
            duration_low_days=0.5,
            duration_high_days=12.0,
            strategies=(
                (AddressStrategy.PURCHASED, 0.55),
                (AddressStrategy.SOCIAL, 0.30),
                (AddressStrategy.HARVESTED, 0.15),
            ),
            chaff_probability=0.06,
            redirector_probability=0.18,
            filter_evasion_low=0.4,
            filter_evasion_high=0.95,
            tagged_fraction=0.22,
            dead_site_probability=0.38,
        ),
        CampaignClass.OTHER_GOODS: CampaignClassConfig(
            count=n(4_200),
            volume_low=50.0,
            volume_high=60_000.0,
            volume_alpha=1.1,
            domains_low=1,
            domains_high=8,
            duration_low_days=0.5,
            duration_high_days=20.0,
            strategies=(
                (AddressStrategy.BRUTE_FORCE, 0.25),
                (AddressStrategy.HARVESTED, 0.35),
                (AddressStrategy.PURCHASED, 0.25),
                (AddressStrategy.SOCIAL, 0.15),
            ),
            chaff_probability=0.08,
            redirector_probability=0.12,
            filter_evasion_low=0.1,
            filter_evasion_high=0.7,
            tagged_fraction=0.0,
            dead_site_probability=0.30,
            broadcast_lag_low_days=0.2,
            broadcast_lag_high_days=2.0,
        ),
    }


def paper_config(scale: float = 1.0) -> EcosystemConfig:
    """The default world: calibrated to the paper's qualitative shape.

    *scale* multiplies the campaign population and the volume-carrying
    pools (see :func:`scaled_config`); ``scale=1`` is the laptop-size
    1:100 reproduction, ``scale=100`` approaches the paper's ~1M
    distinct spam domains.
    """
    config = EcosystemConfig(campaign_classes=_default_campaign_classes(1.0))
    if scale != 1.0:
        config = scaled_config(config, scale)
    return config


def scaled_config(config: EcosystemConfig, scale: float) -> EcosystemConfig:
    """Scale *config*'s spam populations by *scale*.

    Multiplies campaign-class counts, the DGA episode (domains and
    volume), and the web-spam / junk-report pools.  The benign web is
    deliberately left fixed: Alexa/ODP list sizes are a property of the
    measurement apparatus, not of how much spam exists -- and keeping
    them fixed preserves each feed's benign-contamination *rates* while
    the spam side grows.  A *scale* that is not a finite positive
    number, or that overflows a count, raises :class:`ValueError`.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")

    def n(count: int) -> int:
        scaled = count * scale
        if not math.isfinite(scaled):
            raise ValueError(f"scale {scale!r} overflows the config")
        return max(1, int(round(scaled)))

    classes = {
        cls: dataclasses.replace(cfg, count=n(cfg.count))
        for cls, cfg in config.campaign_classes.items()
    }
    return dataclasses.replace(
        config,
        campaign_classes=classes,
        dga=dataclasses.replace(
            config.dga,
            n_domains=n(config.dga.n_domains),
            volume=config.dga.volume * scale,
        ),
        hyb_webspam_pool=n(config.hyb_webspam_pool),
        junk_report_pool=n(config.junk_report_pool),
    )


def small_config() -> EcosystemConfig:
    """A miniature world for fast tests (seconds, not minutes)."""
    return EcosystemConfig(
        programs=ProgramConfig(
            n_pharma=6,
            n_replica=2,
            n_software=2,
            rx_affiliates=60,
            affiliates_low=5,
            affiliates_high=20,
        ),
        botnets=BotnetConfig(n_botnets=4, n_monitored=2),
        benign=BenignConfig(
            alexa_size=600,
            odp_size=400,
            n_redirectors=10,
            chaff_pool_size=80,
            n_newsletter_domains=50,
        ),
        dga=DgaConfig(n_domains=2_000, volume=60_000.0),
        campaign_classes=_default_campaign_classes(0.08),
        hyb_webspam_pool=700,
        junk_report_pool=120,
    )
