"""Unit and property tests for latency statistics."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas.records import InvocationRecord
from repro.metrics.latency import (
    mean_ms,
    p99_ms,
    per_second_average_ms,
    percentile,
    spike_factor,
    window_mean_factor,
)
from repro.units import MS, SEC


def record(arrival_s, latency_ms, function="f"):
    arrival = int(arrival_s * SEC)
    return InvocationRecord(
        function, arrival, arrival, arrival + int(latency_ms * MS),
        cold=False, ok=True,
    )


class TestPercentile:
    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)
        with pytest.raises(ValueError):
            percentile([1], -1)

    def test_single_value(self):
        assert percentile([7], 99) == 7

    def test_median_of_odd_sample(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_p0_is_min_p100_is_max(self):
        values = [5, 1, 9, 3]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    @settings(max_examples=50)
    @given(values=st.lists(st.integers(0, 10**6), min_size=1, max_size=200),
           q=st.floats(0, 100))
    def test_percentile_always_a_sample_value(self, values, q):
        assert percentile(values, q) in values

    @settings(max_examples=50)
    @given(values=st.lists(st.integers(0, 10**6), min_size=1, max_size=100))
    def test_percentile_monotone_in_q(self, values):
        assert percentile(values, 50) <= percentile(values, 99)


class TestRecordStats:
    def test_p99_of_uniform_sample(self):
        records = [record(0, latency_ms=i) for i in range(1, 101)]
        assert p99_ms(records) == 99.0

    def test_mean(self):
        records = [record(0, 10), record(0, 30)]
        assert mean_ms(records) == 20.0

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ms([])


class TestPerSecondSeries:
    def test_buckets_by_arrival_second(self):
        records = [record(0.2, 10), record(0.8, 30), record(2.5, 100)]
        series = per_second_average_ms(records, duration_s=4)
        assert series[0] == (0, 20.0)
        assert math.isnan(series[1][1])
        assert series[2] == (2, 100.0)
        assert math.isnan(series[3][1])

    def test_out_of_range_arrivals_ignored(self):
        records = [record(10, 50)]
        series = per_second_average_ms(records, duration_s=5)
        assert all(math.isnan(v) for _, v in series)


class TestSpikeFactors:
    def make_series(self):
        series = [(s, 100.0) for s in range(20)]
        series[10] = (10, 300.0)
        series[11] = (11, 200.0)
        return series

    def test_spike_factor_peak_over_baseline(self):
        assert spike_factor(self.make_series(), (9, 13)) == 3.0

    def test_window_mean_factor(self):
        # window [10, 12): mean(300, 200)=250 over baseline 100.
        assert window_mean_factor(self.make_series(), (10, 12)) == 2.5

    def test_flat_series_factor_one(self):
        series = [(s, 100.0) for s in range(20)]
        assert spike_factor(series, (5, 10)) == 1.0
        assert window_mean_factor(series, (5, 10)) == 1.0

    def test_empty_window_returns_one(self):
        series = [(s, 100.0) for s in range(5)]
        assert spike_factor(series, (10, 12)) == 1.0

    def test_nan_values_skipped(self):
        series = [(0, 100.0), (1, math.nan), (2, 100.0), (3, 400.0)]
        assert spike_factor(series, (3, 4)) == 4.0
