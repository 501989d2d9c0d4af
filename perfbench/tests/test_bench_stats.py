import statistics

import pytest

from perfbench import stats


@pytest.mark.parametrize("count, expected", [
    (10, None), (11, 9), (20, 50), (50, 80), (100, 90), (1000, 99),
    (10000, 99),
])
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


@pytest.mark.parametrize("count", [11, 20, 37, 64, 100, 250, 1000])
def test_tail_percentile_is_the_highest_with_ten_beyond(count):
    pct = stats.tail_percentile(count)
    values = list(range(count))
    beyond = [v for v in values if v > stats.percentile(values, pct)]
    assert len(beyond) >= stats.TAIL_SAMPLES
    if pct < 99:
        above = [v for v in values
                 if v > stats.percentile(values, pct + 1)]
        assert len(above) < stats.TAIL_SAMPLES


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert stats.percentile(values, 50) == 3
    assert stats.percentile(values, 100) == 5
    assert stats.percentile(values, 1) == 1


def test_tail_needs_a_percentile_above_the_median():
    assert stats.tail(list(range(19))) is None
    assert stats.tail(list(range(100))) == (90, 89)


def test_spread_is_interquartile_range_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 14.5)
    assert stats.spread([3.0]) == 0.0
