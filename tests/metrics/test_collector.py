"""Unit tests for time-series collection."""

import pytest

from repro.metrics.collector import FleetCollector, PeriodicSampler, TimeSeries
from repro.metrics.latency import percentile
from repro.obs.rollup import RollupSeries
from repro.units import SEC


class TestTimeSeries:
    def test_record_and_read(self):
        series = TimeSeries("t")
        series.record(0, 1.0)
        series.record(10, 2.0)
        assert series.values() == [1.0, 2.0]
        assert len(series) == 2
        assert series.last() == (10, 2.0)

    def test_non_monotone_time_rejected(self):
        series = TimeSeries("t")
        series.record(10, 1.0)
        with pytest.raises(ValueError):
            series.record(5, 2.0)

    def test_empty_series_accessors_raise(self):
        series = TimeSeries("t")
        with pytest.raises(ValueError):
            series.last()
        with pytest.raises(ValueError):
            series.max_value()

    def test_delta_and_max(self):
        series = TimeSeries("t")
        for t, v in [(0, 5.0), (1, 9.0), (2, 7.0)]:
            series.record(t, v)
        assert series.delta() == 2.0
        assert series.max_value() == 9.0

    def test_times_in_seconds(self):
        series = TimeSeries("t")
        series.record(2 * SEC, 1.0)
        assert series.times_s() == [2.0]

    # A series has no percentile method of its own: its values go
    # straight to the one nearest-rank implementation.

    def test_percentile_nearest_rank(self):
        series = TimeSeries("t")
        for t, v in enumerate([10.0, 40.0, 20.0, 30.0]):
            series.record(t, v)
        assert percentile(series.values(), 50) == 20.0
        assert percentile(series.values(), 99) == 40.0
        assert percentile(series.values(), 0) == 10.0
        assert percentile(series.values(), 100) == 40.0

    def test_percentile_is_an_actual_sample(self):
        series = TimeSeries("t")
        for t, v in enumerate([1.0, 1000.0]):
            series.record(t, v)
        # Nearest-rank, not interpolated: the result is a real sample.
        assert percentile(series.values(), 50) in series.values()

    def test_percentile_empty_and_out_of_range_raise(self):
        with pytest.raises(ValueError):
            percentile(TimeSeries("t").values(), 50)
        series = TimeSeries("t")
        series.record(0, 1.0)
        with pytest.raises(ValueError):
            percentile(series.values(), 101)
        with pytest.raises(ValueError):
            percentile(series.values(), -1)


class TestPeriodicSampler:
    def test_samples_on_period(self, sim):
        counter = {"n": 0}

        def probe():
            counter["n"] += 1
            return counter["n"]

        sampler = PeriodicSampler(sim, probe, period_ns=SEC, name="s")
        sampler.start(until_ns=5 * SEC)
        sim.run(until=10 * SEC)
        assert 5 <= len(sampler.series) <= 7

    def test_stop_ends_sampling(self, sim):
        sampler = PeriodicSampler(sim, lambda: 1.0, period_ns=SEC)
        sampler.start()
        sim.run(until=3 * SEC)
        sampler.stop()
        sim.run(until=20 * SEC)
        count = len(sampler.series)
        sim.run(until=40 * SEC)
        assert len(sampler.series) == count

    def test_invalid_period_rejected(self, sim):
        with pytest.raises(ValueError):
            PeriodicSampler(sim, lambda: 0.0, period_ns=0)


class TestTimeSeriesRejectsNonFinite:
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_samples_raise_with_series_name(self, bad):
        series = TimeSeries("mem-used")
        with pytest.raises(ValueError, match="mem-used: non-finite sample"):
            series.record(5, bad)
        assert len(series) == 0


class TestFleetCollectorExactMode:
    def test_host_rollup_is_pointwise_sum(self, sim, fleet):
        collector = FleetCollector(sim, fleet, period_ns=SEC, bounded=False)
        collector.start(until_ns=3 * SEC)
        sim.run(until=3 * SEC)
        rolled = collector.host_used_series(0)
        parts = [s for (h, _), s in collector.used.items() if h == 0]
        assert len(rolled) == len(parts[0])
        for i, (_, value) in enumerate(rolled.samples):
            assert value == sum(p.samples[i][1] for p in parts)

    def test_rolled_series_names_come_from_kind(self, sim, fleet):
        collector = FleetCollector(sim, fleet, period_ns=SEC, bounded=False)
        collector.start(until_ns=2 * SEC)
        sim.run(until=2 * SEC)
        assert collector.host_used_series(0).name == "used-h0"
        assert collector.host_used_series(0).kind == "used"
        assert collector.host_committed_series(0).name == "committed-h0"
        assert collector.host_committed_series(0).kind == "committed"

    def test_unknown_host_raises(self, sim, fleet):
        collector = FleetCollector(sim, fleet, period_ns=SEC, bounded=False)
        with pytest.raises(ValueError, match="no series for host 7"):
            collector.host_used_series(7)

    def test_misaligned_series_raise_with_lengths(self, sim, fleet):
        collector = FleetCollector(sim, fleet, period_ns=SEC, bounded=False)
        collector.start(until_ns=3 * SEC)
        sim.run(until=3 * SEC)
        straggler = TimeSeries("used-h0n99")
        straggler.record(0, 1.0)
        collector.used[(0, 99)] = straggler
        with pytest.raises(ValueError, match="misaligned per-node series"):
            collector.host_used_series(0)
        with pytest.raises(ValueError, match="used-h0n99=1"):
            collector.host_used_series(0)


class TestFleetCollectorBoundedMode:
    def test_bounded_is_the_default(self, sim, fleet):
        collector = FleetCollector(sim, fleet, period_ns=SEC)
        assert collector.bounded

    def test_host_series_is_a_rollup(self, sim, fleet):
        collector = FleetCollector(sim, fleet, period_ns=SEC)
        collector.start(until_ns=3 * SEC)
        sim.run(until=3 * SEC)
        series = collector.host_used_series(0)
        assert isinstance(series, RollupSeries)
        assert series.kind == "used"
        assert series.labels["host"] == 0
        assert "node" not in series.labels

    def test_unknown_host_raises(self, sim, fleet):
        collector = FleetCollector(sim, fleet, period_ns=SEC)
        with pytest.raises(ValueError, match="no series for host 7"):
            collector.host_used_series(7)

    def test_peak_matches_exact_mode_bitwise(self, sim, fleet):
        bounded = FleetCollector(sim, fleet, period_ns=SEC)
        exact = FleetCollector(sim, fleet, period_ns=SEC, bounded=False)
        bounded.start(until_ns=5 * SEC)
        exact.start(until_ns=5 * SEC)
        sim.run(until=5 * SEC)
        for host_index in range(len(fleet.hosts)):
            assert bounded.peak_used_bytes(host_index) == exact.peak_used_bytes(
                host_index
            )

    def test_resident_buckets_stay_bounded_over_long_horizons(
        self, sim, fleet
    ):
        max_buckets = 8
        collector = FleetCollector(
            sim, fleet, period_ns=SEC, max_buckets=max_buckets
        )
        collector.start(until_ns=200 * SEC)
        sim.run(until=200 * SEC)
        series_count = (
            len(collector.used)
            + len(collector.committed)
            + 2 * len(fleet.hosts)
        )
        assert collector.bucket_count() <= series_count * max_buckets
        # Sample counts keep growing even though residency does not.
        host = collector.host_used_series(0)
        assert len(host) > max_buckets

    def test_bucket_count_is_bounded_mode_only(self, sim, fleet):
        exact = FleetCollector(sim, fleet, period_ns=SEC, bounded=False)
        with pytest.raises(ValueError, match="bounded-mode"):
            exact.bucket_count()

    def test_labels_propagate_to_every_series(self, sim, fleet):
        collector = FleetCollector(
            sim, fleet, period_ns=SEC, labels={"mode": "hotmem"}
        )
        for series in collector.used.values():
            assert series.labels["mode"] == "hotmem"
        assert collector.host_used_series(0).labels["mode"] == "hotmem"
