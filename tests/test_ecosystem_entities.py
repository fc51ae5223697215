"""Unit tests for ecosystem entities."""

import pytest

from repro.ecosystem.entities import (
    AddressStrategy,
    Affiliate,
    AffiliateProgram,
    Botnet,
    Campaign,
    CampaignClass,
    DomainPlacement,
    GoodsCategory,
    total_emitted_volume,
)


def make_placement(domain="x.com", start=0, end=100, volume=50.0, lag=0):
    return DomainPlacement(domain, start, end, volume, broadcast_lag=lag)


def make_campaign(placements=None, **kwargs):
    defaults = dict(
        campaign_id=1,
        campaign_class=CampaignClass.DIRECT_BROADCAST,
        strategy=AddressStrategy.BRUTE_FORCE,
        placements=placements or [make_placement()],
    )
    defaults.update(kwargs)
    return Campaign(**defaults)


class TestDomainPlacement:
    def test_duration_and_rate(self):
        p = make_placement(start=0, end=200, volume=100.0)
        assert p.duration == 200
        assert p.rate == 0.5

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            make_placement(start=10, end=10)

    def test_rejects_nonpositive_volume(self):
        with pytest.raises(ValueError):
            make_placement(volume=0.0)

    def test_rejects_negative_lag(self):
        with pytest.raises(ValueError):
            make_placement(lag=-1)

    def test_broadcast_start_clamped(self):
        p = make_placement(start=0, end=100, lag=500)
        assert p.broadcast_start == 99

    def test_broadcast_start_normal(self):
        p = make_placement(start=10, end=100, lag=20)
        assert p.broadcast_start == 30


class TestAffiliateProgram:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            AffiliateProgram(0, "x", GoodsCategory.PHARMA, 0.0)

    def test_fields(self):
        p = AffiliateProgram(3, "rx", GoodsCategory.PHARMA, 1.0, True)
        assert p.embeds_affiliate_id


class TestAffiliate:
    def test_rejects_negative_revenue(self):
        with pytest.raises(ValueError):
            Affiliate(0, 0, -1.0)


class TestBotnet:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Botnet(0, "x", 0.0, True)


class TestCampaign:
    def test_start_end_span_placements(self):
        c = make_campaign([
            make_placement("a.com", 100, 200, 10),
            make_placement("b.com", 50, 150, 10),
        ])
        assert c.start == 50
        assert c.end == 200

    def test_total_volume(self):
        c = make_campaign([
            make_placement("a.com", 0, 10, 30),
            make_placement("b.com", 0, 10, 70),
        ])
        assert c.total_volume == 100

    def test_domains_deduplicated_in_order(self):
        c = make_campaign([
            make_placement("b.com", 0, 10, 1),
            make_placement("a.com", 10, 20, 1),
            make_placement("b.com", 20, 30, 1),
        ])
        assert c.domains == ["b.com", "a.com"]

    def test_domain_interval_spans_reuses(self):
        c = make_campaign([
            make_placement("b.com", 0, 10, 1),
            make_placement("b.com", 20, 30, 1),
        ])
        assert c.domain_interval("b.com") == (0, 30)

    def test_domain_interval_unknown_raises(self):
        with pytest.raises(KeyError):
            make_campaign().domain_interval("nope.com")

    def test_requires_placements(self):
        with pytest.raises(ValueError):
            Campaign(
                campaign_id=1,
                campaign_class=CampaignClass.DIRECT_BROADCAST,
                strategy=AddressStrategy.BRUTE_FORCE,
                placements=[],
            )

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            make_campaign(chaff_probability=1.5)
        with pytest.raises(ValueError):
            make_campaign(redirector_probability=-0.1)
        with pytest.raises(ValueError):
            make_campaign(filter_evasion=2.0)

    def test_is_tagged_class(self):
        assert make_campaign(program_id=4).is_tagged_class
        assert not make_campaign().is_tagged_class

    def test_placements_for(self):
        p1 = make_placement("a.com", 0, 10, 1)
        p2 = make_placement("a.com", 20, 30, 1)
        c = make_campaign([p1, p2, make_placement("b.com", 0, 10, 1)])
        assert c.placements_for("a.com") == [p1, p2]


class TestTotalEmittedVolume:
    def test_sums_campaigns(self):
        c1 = make_campaign([make_placement(volume=10)])
        c2 = make_campaign([make_placement(volume=15)], campaign_id=2)
        assert total_emitted_volume([c1, c2]) == 25

    def test_empty(self):
        assert total_emitted_volume([]) == 0
