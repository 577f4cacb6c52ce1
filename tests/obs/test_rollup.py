"""Bounded-memory rollup series: exactness, compaction, determinism."""

import gc
import tracemalloc

import pytest

from repro.metrics.collector import TimeSeries
from repro.obs.rollup import RollupSeries
from repro.units import SEC


def _stream(n):
    """A deterministic sample stream with repeats and plateaus."""
    return [
        (i * 7_000, float((i * 37) % 211 - 50))
        for i in range(n)
    ]


class TestFinestResolutionEquivalence:
    """With no compaction, every aggregate matches the exact log."""

    def test_aggregates_match_timeseries_exactly(self):
        rollup = RollupSeries("r", max_buckets=1 << 20)
        exact = TimeSeries("t")
        for time_ns, value in _stream(500):
            rollup.record(time_ns, value)
            exact.record(time_ns, value)
        assert len(rollup) == len(exact)
        assert rollup.last() == exact.last()
        assert rollup.max_value() == exact.max_value()
        assert rollup.min_value() == min(exact.values())
        assert rollup.delta() == exact.delta()
        assert rollup.total() == sum(exact.values())
        assert rollup.mean() == sum(exact.values()) / len(exact)

    def test_first_and_last_are_exact_samples(self):
        rollup = RollupSeries("r", max_buckets=1 << 20)
        samples = _stream(100)
        for time_ns, value in samples:
            rollup.record(time_ns, value)
        assert rollup.first() == samples[0]
        assert rollup.last() == samples[-1]


class TestCompaction:
    def test_resident_buckets_stay_bounded(self):
        rollup = RollupSeries("r", max_buckets=16)
        for time_ns, value in _stream(100_000):
            rollup.record(time_ns, value)
        assert rollup.bucket_count() <= 16
        assert len(rollup) == 100_000

    def test_resident_bytes_stay_bounded(self):
        """A 256-bucket series stays under 256 KiB however many samples
        fold in; an exact log of these samples would take megabytes."""
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            rollup = RollupSeries("r", max_buckets=256)
            for index in range(100_000):
                rollup.record(index * 1_000, float(index & 1023))
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rollup) == 100_000
        assert after - before <= 256 * 1024

    def test_width_doubles_per_compaction(self):
        rollup = RollupSeries("r", max_buckets=4, width_ns=1)
        for i in range(64):
            rollup.record(i, 1.0)
        # Width grows by powers of two only.
        assert rollup.width_ns & (rollup.width_ns - 1) == 0
        assert rollup.width_ns > 1

    def test_aggregates_survive_compaction_exactly(self):
        rollup = RollupSeries("r", max_buckets=8)
        exact = TimeSeries("t")
        for time_ns, value in _stream(10_000):
            rollup.record(time_ns, value)
            exact.record(time_ns, value)
        assert rollup.max_value() == exact.max_value()
        assert rollup.min_value() == min(exact.values())
        assert rollup.total() == pytest.approx(sum(exact.values()))
        assert rollup.last() == exact.last()
        assert rollup.delta() == exact.delta()

    def test_compaction_is_deterministic(self):
        a = RollupSeries("r", max_buckets=8)
        b = RollupSeries("r", max_buckets=8)
        for time_ns, value in _stream(5_000):
            a.record(time_ns, value)
            b.record(time_ns, value)
        assert a.to_row() == b.to_row()

    def test_timeline_rows_are_per_bucket(self):
        rollup = RollupSeries("r", max_buckets=8, width_ns=SEC)
        for i in range(20):
            rollup.record(i * SEC, float(i))
        timeline = rollup.timeline()
        assert len(timeline) == rollup.bucket_count()
        counts = sum(count for _, count, _, _, _ in timeline)
        assert counts == 20
        for start_ns, _, vmin, mean, vmax in timeline:
            assert start_ns % rollup.width_ns == 0
            assert vmin <= mean <= vmax


class TestValidation:
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_samples_rejected(self, bad):
        rollup = RollupSeries("mem")
        with pytest.raises(ValueError, match="mem: non-finite sample"):
            rollup.record(0, bad)
        assert len(rollup) == 0

    def test_time_must_not_decrease(self):
        rollup = RollupSeries("r")
        rollup.record(10, 1.0)
        with pytest.raises(ValueError, match="sample at 5 before 10"):
            rollup.record(5, 2.0)

    def test_empty_series_accessors_raise(self):
        rollup = RollupSeries("r")
        for accessor in (
            rollup.last,
            rollup.first,
            rollup.max_value,
            rollup.min_value,
            rollup.mean,
        ):
            with pytest.raises(ValueError, match="empty series"):
                accessor()
        assert rollup.delta() == 0.0
        assert rollup.total() == 0.0

    def test_constructor_bounds(self):
        with pytest.raises(ValueError, match="max_buckets"):
            RollupSeries("r", max_buckets=1)
        with pytest.raises(ValueError, match="width_ns"):
            RollupSeries("r", width_ns=0)


class TestSerialization:
    def test_row_round_trip_preserves_aggregates(self):
        rollup = RollupSeries(
            "used-h0",
            kind="used",
            max_buckets=8,
            labels={"host": 0, "mode": "hotmem"},
        )
        for time_ns, value in _stream(3_000):
            rollup.record(time_ns, value)
        row = rollup.to_row()
        assert row["type"] == "rollup"
        back = RollupSeries.from_row(row)
        assert back.name == rollup.name
        assert back.kind == rollup.kind
        assert back.labels == rollup.labels
        assert len(back) == len(rollup)
        assert back.max_value() == rollup.max_value()
        assert back.min_value() == rollup.min_value()
        # Sample times coarsen to bucket starts on export; values are exact.
        assert back.last()[1] == rollup.last()[1]
        assert back.to_row()["buckets"] == row["buckets"]

    def test_times_s_reports_bucket_starts(self):
        rollup = RollupSeries("r", width_ns=SEC, max_buckets=64)
        rollup.record(2 * SEC, 1.0)
        rollup.record(5 * SEC, 2.0)
        assert rollup.times_s() == [2.0, 5.0]
