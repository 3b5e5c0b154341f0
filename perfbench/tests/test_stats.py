import pytest

from stats import tail_percentile


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    value, percentile, count = tail_percentile(samples)
    assert value == 90
    assert percentile == 90.0
    assert count == 100
    assert sum(1 for sample in samples if sample > value) == 10


def test_tail_with_few_samples_falls_to_a_low_percentile():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0,
               12.0]
    value, percentile, count = tail_percentile(samples)
    assert (value, count) == (2.0, 12)
    assert percentile == pytest.approx(100.0 * 2 / 12)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile(range(10))
