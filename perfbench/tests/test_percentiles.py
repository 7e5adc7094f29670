import pytest

from perfbench import percentiles


def test_median_of_raw_samples():
    assert percentiles.median([3.0, 1.0, 2.0]) == 2.0
    assert percentiles.median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_tail_needs_ten_samples_beyond():
    assert percentiles.min_samples(0.99) == 1000
    assert percentiles.min_samples(0.75) == 40
    assert percentiles.beyond(40, 0.75) == 10
    with pytest.raises(ValueError, match="p99 needs 1000 samples"):
        percentiles.percentile(list(range(999)), 0.99)


def test_nearest_rank_percentile():
    samples = list(range(1, 1001))  # 1..1000
    assert percentiles.percentile(samples, 0.99) == 990
    assert percentiles.percentile(samples[::-1], 0.99) == 990
    assert percentiles.percentile(list(range(1, 41)), 0.75) == 30
