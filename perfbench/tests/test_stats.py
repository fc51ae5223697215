"""The benchmark's own statistics."""

import statistics

from hypothesis import given, strategies as st

import stats

samples = st.lists(
    st.floats(min_value=0, max_value=1e4, allow_nan=False), max_size=400
)


def test_no_tail_with_fewer_than_ten_samples_beyond():
    assert stats.tail(list(range(39))) is None
    pct, value, beyond = stats.tail(list(range(40)))
    assert (pct, value, beyond) == (75.0, 29, 10)


def test_tail_climbs_with_sample_count():
    assert stats.tail(list(range(100)))[:1] == (90.0,)
    assert stats.tail(list(range(200)))[:1] == (95.0,)
    assert stats.tail(list(range(1000)))[:1] == (99.0,)
    assert stats.tail(list(range(999)))[:1] == (95.0,)


@given(samples)
def test_reported_tail_always_has_ten_samples_beyond(values):
    found = stats.tail(values)
    if found is None:
        assert len(values) < 40
        return
    pct, value, beyond = found
    ordered = sorted(values)
    index = stats.rank_index(len(values), pct)
    assert ordered[index] == value
    assert beyond == len(values) - 1 - index >= stats.TAIL_MIN_BEYOND


def test_percentile_is_a_sample():
    assert stats.percentile([5, 1, 3, 2, 4], 50) == 3
    assert stats.percentile([5, 1, 3, 2, 4], 100) == 5
    assert stats.percentile([5, 1, 3, 2, 4], 0) == 1


def test_quartile_spread_matches_the_acceptance_rule():
    values = [9.0, 10.0, 10.5, 11.0, 12.0, 10.2, 9.8, 10.1, 10.4, 9.9]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == (q3 - q1) / q2


def test_unattributed_counts_uncovered_time_once():
    windows = [(0.0, 10.0)]
    calls = [(1.0, 4.0), (2.0, 5.0), (9.0, 12.0), (-3.0, -1.0)]
    # covered: 1..5 and 9..10 -> 5 s of the 10 s window
    assert stats.unattributed(windows, calls) == 5.0


def test_unattributed_over_concurrent_windows():
    windows = [(0.0, 2.0), (1.0, 3.0), (10.0, 11.0)]
    calls = [(0.5, 2.5), (10.0, 11.0)]
    assert stats.unattributed(windows, calls) == 1.0


intervals = st.lists(
    st.tuples(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=50, allow_nan=False),
    ).map(lambda p: (p[0], p[0] + p[1])),
    max_size=30,
)


@given(intervals, intervals)
def test_unattributed_is_never_negative(windows, calls):
    gap = stats.unattributed(windows, calls)
    assert 0.0 <= gap <= stats.covered_length(windows) + 1e-9
