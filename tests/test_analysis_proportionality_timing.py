"""Unit tests for proportionality and timing analyses."""

import pytest

from repro.analysis import FeedComparison
from repro.analysis.proportionality import (
    MAIL,
    closest_to_mail,
    distributions_with_mail,
    kendall_matrix,
    mail_distribution,
    tagged_distribution,
    variation_distance_matrix,
)
from repro.analysis.timing import (
    BoxStats,
    campaign_end_times,
    campaign_start_times,
    duration_errors,
    first_appearance_latencies,
    last_appearance_gaps,
    _percentile,
)
from repro.feeds.base import FeedDataset, FeedType
from repro.simtime import days

from tests.test_analysis_context import make_feeds


@pytest.fixture()
def comparison(toy_world):
    return FeedComparison(toy_world, make_feeds(), seed=0)


class TestTaggedDistribution:
    def test_counts_restricted_to_tagged(self, comparison):
        dist = tagged_distribution(comparison, "mx1")
        assert dist.count("loudpills.com") == 2
        assert dist.count("loudpills2.net") == 1
        assert "shortlink.us" not in dist  # Alexa-excluded

    def test_requires_volume_feed(self, comparison):
        with pytest.raises(ValueError):
            tagged_distribution(comparison, "Hu")

    def test_mail_distribution_support(self, comparison):
        dist = mail_distribution(comparison, ["mx1"])
        assert dist.support <= {"loudpills.com", "loudpills2.net"}


class TestMatrices:
    def test_variation_distance_matrix_shape(self, comparison):
        matrix = variation_distance_matrix(comparison)
        assert set(matrix) == {"mx1", MAIL}
        assert matrix["mx1"]["mx1"] == 0.0
        assert 0.0 <= matrix["mx1"][MAIL] <= 1.0

    def test_kendall_matrix_shape(self, comparison):
        matrix = kendall_matrix(comparison)
        assert set(matrix) == {"mx1", MAIL}
        assert -1.0 <= matrix["mx1"][MAIL] <= 1.0

    def test_distributions_with_mail(self, comparison):
        dists = distributions_with_mail(comparison)
        assert MAIL in dists
        assert "mx1" in dists

    def test_closest_to_mail_ordering(self):
        matrix = {
            "a": {MAIL: 0.9},
            "b": {MAIL: 0.2},
            MAIL: {MAIL: 0.0},
        }
        assert closest_to_mail(matrix) == ["b", "a"]
        assert closest_to_mail(matrix, smaller_is_closer=False) == ["a", "b"]


class TestBoxStats:
    def test_from_values(self):
        stats = BoxStats.from_values([1, 2, 3, 4, 5])
        assert stats.median == 3
        assert stats.p25 == 2
        assert stats.p75 == 4
        assert stats.mean == 3
        assert stats.n == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxStats.from_values([])

    def test_scaled(self):
        stats = BoxStats.from_values([60, 120]).scaled(60)
        assert stats.median == 1.5
        assert stats.n == 2

    def test_percentile_interpolation(self):
        assert _percentile([0, 10], 0.5) == 5.0
        assert _percentile([7], 0.99) == 7.0
        with pytest.raises(ValueError):
            _percentile([], 0.5)


class TestAggregateTimes:
    def test_campaign_start_is_min_across_feeds(self, comparison):
        starts = campaign_start_times(
            comparison, ["Hu", "mx1"], {"loudpills.com"}
        )
        assert starts["loudpills.com"] == days(11)

    def test_campaign_end_is_max_across_feeds(self, comparison):
        ends = campaign_end_times(
            comparison, ["Hu", "mx1"], {"loudpills.com"}
        )
        assert ends["loudpills.com"] == days(13)

    def test_restricted_to_requested_domains(self, comparison):
        starts = campaign_start_times(comparison, ["Hu"], set())
        assert starts == {}


class TestFirstAppearance:
    def test_latency_relative_to_reference(self, comparison):
        stats = first_appearance_latencies(
            comparison, ["mx1"], reference_feeds=["Hu", "mx1"]
        )
        # mx1 first saw loudpills at day 12 vs aggregate day 11 -> 1 day;
        # loudpills2 is mx1-exclusive -> latency 0.
        assert stats["mx1"].n == 2
        assert stats["mx1"].mean == pytest.approx(days(0.5))
        assert stats["mx1"].median == pytest.approx(days(0.5))

    def test_self_reference_zero_for_single_feed(self, comparison):
        stats = first_appearance_latencies(comparison, ["mx1"])
        assert stats["mx1"].median == 0.0

    def test_unknown_kind_rejected(self, comparison):
        with pytest.raises(ValueError):
            first_appearance_latencies(comparison, ["mx1"], kind="bogus")


class TestLastAppearanceAndDuration:
    def test_gaps_non_negative(self, comparison):
        stats = last_appearance_gaps(
            comparison, ["mx1"], reference_feeds=["Hu", "mx1"]
        )
        assert stats["mx1"].p5 >= 0.0

    def test_duration_errors_non_negative(self, comparison):
        stats = duration_errors(
            comparison, ["mx1"], reference_feeds=["Hu", "mx1"]
        )
        assert stats["mx1"].p5 >= 0.0

    def test_duration_error_exact(self, comparison):
        # loudpills: aggregate duration day 11..13 = 2 days; mx1
        # lifetime day 12..13 = 1 day; error 1 day.
        # loudpills2: singleton -> duration == lifetime == 0.
        stats = duration_errors(
            comparison, ["mx1"], reference_feeds=["Hu", "mx1"]
        )
        assert stats["mx1"].n == 2
        assert stats["mx1"].mean == pytest.approx(days(0.5))

    def test_feeds_without_domains_skipped(self, toy_world):
        empty = FeedDataset("empty", FeedType.MX_HONEYPOT, [])
        feeds = make_feeds()
        feeds["empty"] = empty
        comparison = FeedComparison(toy_world, feeds)
        stats = first_appearance_latencies(comparison, ["empty", "mx1"])
        assert "empty" not in stats


class TestEmptyReferenceFeeds:
    """An explicit empty reference set is a caller bug, not a default.

    Regression: ``reference_feeds=[]`` used to be treated like ``None``
    (falsy), silently measuring against the measured feeds instead of
    the aggregate the caller named.
    """

    def test_first_appearance_rejects_empty_reference(self, comparison):
        with pytest.raises(ValueError, match="non-empty"):
            first_appearance_latencies(
                comparison, ["mx1"], reference_feeds=[]
            )

    def test_last_appearance_rejects_empty_reference(self, comparison):
        with pytest.raises(ValueError, match="non-empty"):
            last_appearance_gaps(comparison, ["mx1"], reference_feeds=[])

    def test_duration_errors_rejects_empty_reference(self, comparison):
        with pytest.raises(ValueError, match="non-empty"):
            duration_errors(comparison, ["mx1"], reference_feeds=())

    def test_none_still_defaults_to_measured_feeds(self, comparison):
        explicit = first_appearance_latencies(
            comparison, ["mx1"], reference_feeds=["mx1"]
        )
        defaulted = first_appearance_latencies(comparison, ["mx1"])
        assert defaulted == explicit
