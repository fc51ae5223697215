"""Unit tests for the world builder (over the small generated world)."""

import pytest

from repro.ecosystem import WorldBuilder, build_world, small_config
from repro.ecosystem.entities import AddressStrategy, CampaignClass


class TestPopulations:
    def test_program_count(self, small_world):
        cfg = small_config()
        assert len(small_world.programs) == cfg.programs.total_programs

    def test_exactly_one_rx_program(self, small_world):
        embedding = [
            p for p in small_world.programs.values() if p.embeds_affiliate_id
        ]
        assert len(embedding) == 1
        assert embedding[0].program_id == 0

    def test_rx_affiliate_count(self, small_world):
        cfg = small_config()
        rx_members = [
            a for a in small_world.affiliates.values() if a.program_id == 0
        ]
        assert len(rx_members) == cfg.programs.rx_affiliates

    def test_affiliates_reference_real_programs(self, small_world):
        for affiliate in small_world.affiliates.values():
            assert affiliate.program_id in small_world.programs

    def test_monitored_botnet_count(self, small_world):
        cfg = small_config()
        monitored = small_world.monitored_botnet_ids()
        assert len(monitored) == cfg.botnets.n_monitored

    def test_rustock_exists_and_is_monitored(self, small_world):
        names = {b.name: b for b in small_world.botnets.values()}
        assert "rustock" in names
        assert names["rustock"].monitored


class TestCampaigns:
    def test_campaign_counts_match_config(self, small_world):
        cfg = small_config()
        by_class = {}
        for c in small_world.campaigns:
            by_class[c.campaign_class] = by_class.get(c.campaign_class, 0) + 1
        for cls, class_cfg in cfg.campaign_classes.items():
            assert by_class[cls] == class_cfg.count
        assert by_class[CampaignClass.DGA_POISON] == 1

    def test_campaigns_inside_window(self, small_world):
        tl = small_world.timeline
        for c in small_world.campaigns:
            assert c.start >= tl.start
            assert c.end <= tl.end

    def test_botnet_campaigns_have_botnets(self, small_world):
        for c in small_world.campaigns:
            if c.campaign_class is CampaignClass.BOTNET_BROADCAST:
                assert c.botnet_id in small_world.botnets

    def test_tagged_campaigns_have_affiliates(self, small_world):
        for c in small_world.campaigns:
            if c.program_id is not None:
                assert c.affiliate_id is not None
                affiliate = small_world.affiliates[c.affiliate_id]
                assert affiliate.program_id == c.program_id

    def test_other_goods_never_tagged(self, small_world):
        for c in small_world.campaigns:
            if c.campaign_class is CampaignClass.OTHER_GOODS:
                assert c.program_id is None

    def test_storefront_domains_registered_before_use(self, small_world):
        benign = small_world.benign.all_benign
        for c in small_world.campaigns:
            if c.campaign_class is CampaignClass.DGA_POISON:
                continue
            for domain in c.domains:
                if domain in benign:
                    continue  # abused redirectors: registered long ago
                entry = small_world.registry.entry(domain)
                assert entry is not None
                first, _ = c.domain_interval(domain)
                assert entry.registered_at <= first

    def test_broadcast_lag_present_for_loud_classes(self, small_world):
        lags = [
            p.broadcast_lag
            for c in small_world.campaigns
            if c.campaign_class is CampaignClass.BOTNET_BROADCAST
            for p in c.placements
        ]
        assert any(lag > 0 for lag in lags)
        for c in small_world.campaigns:
            for p in c.placements:
                assert p.broadcast_lag <= 0.7 * p.duration + 1


class TestDga:
    def test_dga_domains_match_config(self, small_world):
        assert len(small_world.dga_domains) == small_config().dga.n_domains

    def test_dga_campaign_uses_rustock(self, small_world):
        campaign = small_world.dga_campaign
        assert campaign is not None
        botnet = small_world.botnets[campaign.botnet_id]
        assert botnet.name == "rustock"
        assert campaign.strategy is AddressStrategy.BRUTE_FORCE

    def test_most_dga_domains_unregistered(self, small_world):
        registered = sum(
            1
            for d in small_world.dga_domains
            if small_world.registry.is_registered(d)
        )
        assert registered < 0.1 * len(small_world.dga_domains)
        # ...but the configured collision sliver exists at paper scale.

    def test_dga_collisions_hosted_untagged(self, small_world):
        for d in small_world.dga_domains:
            record = small_world.hosting.get(d)
            if record is not None:
                assert record.program_id is None


class TestSidePools:
    def test_webspam_pool_size(self, small_world):
        assert len(small_world.hyb_webspam) == small_config().hyb_webspam_pool

    def test_webspam_live_fraction(self, small_world):
        cfg = small_config()
        live = sum(
            1
            for d in small_world.hyb_webspam
            if small_world.registry.is_registered(d)
        )
        fraction = live / len(small_world.hyb_webspam)
        assert abs(fraction - cfg.hyb_webspam_live_fraction) < 0.08

    def test_junk_domains_unregistered(self, small_world):
        for d in small_world.junk_domains:
            assert not small_world.registry.is_registered(d)

    def test_benign_domains_registered(self, small_world):
        for d in list(small_world.benign.all_benign)[:100]:
            entry = small_world.registry.entry(d)
            assert entry is not None
            assert entry.registered_at < 0


class TestDeterminism:
    def test_same_seed_same_world(self):
        w1 = build_world(small_config(), seed=123)
        w2 = build_world(small_config(), seed=123)
        assert w1.summary() == w2.summary()
        assert w1.advertised_domains() == w2.advertised_domains()

    def test_different_seed_different_world(self):
        w1 = build_world(small_config(), seed=123)
        w2 = build_world(small_config(), seed=124)
        assert w1.advertised_domains() != w2.advertised_domains()

    def test_builder_rejects_bad_monitor_count(self):
        cfg = small_config()
        bad = type(cfg.botnets)(n_botnets=2, n_monitored=5)
        import dataclasses
        with pytest.raises(ValueError):
            WorldBuilder(
                dataclasses.replace(cfg, botnets=bad), seed=1
            ).build()


class TestRedirectorAbuse:
    def test_redirector_tags_point_at_real_programs(self, small_world):
        for domain, (program_id, affiliate_id) in (
            small_world.redirector_tags.items()
        ):
            assert domain in small_world.benign.alexa_set
            assert program_id in small_world.programs
            if affiliate_id is not None:
                assert affiliate_id in small_world.affiliates

    def test_redirector_domains_advertised(self, small_world):
        advertised = small_world.advertised_domains()
        for domain in small_world.redirector_tags:
            assert domain in advertised
