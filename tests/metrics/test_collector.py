"""Unit tests for time-series collection."""

import pytest

from repro.metrics.collector import FleetCollector, PeriodicSampler, TimeSeries
from repro.metrics.latency import percentile
from repro.obs.rollup import RollupSeries
from repro.sim import Timeout
from repro.units import GIB, SEC


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


class ExactFleetCollector:
    """The exact oracle for :class:`FleetCollector`'s rollups.

    Keeps every per-node sample in a :class:`TimeSeries` and sums a
    host's nodes pointwise on demand, in node order.
    """

    def __init__(self, sim, fleet, period_ns):
        self.sim = sim
        self.fleet = fleet
        self.period_ns = period_ns
        self.used = {}
        self.committed = {}
        for host_index, host in enumerate(fleet.hosts):
            for node in host.nodes:
                suffix = f"h{host_index}n{node.node_id}"
                key = (host_index, node.node_id)
                self.used[key] = TimeSeries(f"used-{suffix}", kind="used")
                self.committed[key] = TimeSeries(
                    f"committed-{suffix}", kind="committed"
                )

    def start(self, until_ns):
        return self.sim.spawn(self._loop(until_ns), name="exact-collector")

    def _loop(self, until_ns):
        while self.sim.now <= until_ns:
            for host_index, host in enumerate(self.fleet.hosts):
                for node in host.nodes:
                    key = (host_index, node.node_id)
                    committed = self.fleet.arbiter.committed_bytes(
                        host_index, node.node_id
                    )
                    self.used[key].record(self.sim.now, node.used_bytes)
                    self.committed[key].record(self.sim.now, committed)
            yield Timeout(self.period_ns)

    def _host_sum(self, table, host_index):
        parts = [series for (h, _), series in table.items() if h == host_index]
        if not parts:
            raise ValueError(f"no series for host {host_index}")
        lengths = {len(p) for p in parts}
        if len(lengths) > 1:
            detail = ", ".join(f"{p.name}={len(p)}" for p in parts)
            raise ValueError(
                f"host {host_index}: misaligned per-node series — a "
                f"pointwise sum needs equal lengths, got {detail}"
            )
        rolled = TimeSeries(f"{parts[0].kind}-h{host_index}", kind=parts[0].kind)
        for i, (time_ns, _) in enumerate(parts[0].samples):
            rolled.record(time_ns, sum(p.samples[i][1] for p in parts))
        return rolled

    def host_used_series(self, host_index):
        return self._host_sum(self.used, host_index)

    def host_committed_series(self, host_index):
        return self._host_sum(self.committed, host_index)

    def peak_used_bytes(self, host_index):
        return self.host_used_series(host_index).max_value()


class TestFleetCollectorExactMode:
    """The exact oracle, and the rollup names it shares with the
    collector."""

    def test_host_rollup_is_pointwise_sum(self, sim, fleet):
        collector = ExactFleetCollector(sim, fleet, period_ns=SEC)
        collector.start(until_ns=3 * SEC)
        sim.run(until=3 * SEC)
        rolled = collector.host_used_series(0)
        parts = [s for (h, _), s in collector.used.items() if h == 0]
        assert len(rolled) == len(parts[0])
        for i, (_, value) in enumerate(rolled.samples):
            assert value == sum(p.samples[i][1] for p in parts)

    def test_rolled_series_names_come_from_kind(self, sim, fleet):
        collector = FleetCollector(sim, fleet, period_ns=SEC)
        exact = ExactFleetCollector(sim, fleet, period_ns=SEC)
        collector.start(until_ns=2 * SEC)
        exact.start(until_ns=2 * SEC)
        sim.run(until=2 * SEC)
        assert collector.host_used_series(0).name == "used-h0"
        assert collector.host_used_series(0).kind == "used"
        assert collector.host_committed_series(0).name == "committed-h0"
        assert collector.host_committed_series(0).kind == "committed"
        assert exact.host_used_series(0).name == "used-h0"
        assert exact.host_committed_series(0).name == "committed-h0"

    def test_unknown_host_raises(self, sim, fleet):
        collector = ExactFleetCollector(sim, fleet, period_ns=SEC)
        with pytest.raises(ValueError, match="no series for host 7"):
            collector.host_used_series(7)

    def test_misaligned_series_raise_with_lengths(self, sim, fleet):
        collector = ExactFleetCollector(sim, fleet, period_ns=SEC)
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

    def test_peak_matches_exact_mode_bitwise(self, sim, fleet, vanilla_vm):
        bounded = FleetCollector(sim, fleet, period_ns=SEC)
        exact = ExactFleetCollector(sim, fleet, period_ns=SEC)
        bounded.start(until_ns=5 * SEC)
        exact.start(until_ns=5 * SEC)
        vanilla_vm.request_plug(GIB)  # so the host timeline moves
        sim.run(until=5 * SEC)
        for host_index in range(len(fleet.hosts)):
            assert bounded.peak_used_bytes(host_index) == exact.peak_used_bytes(
                host_index
            )
        # Six samples stay in unit-width buckets, one sample each, so the
        # rollup must hold the oracle's pointwise sums exactly.
        oracle = exact.host_used_series(0).samples
        host = bounded.host_used_series(0)
        assert [(b.first_ns, b.last) for b in host.buckets] == oracle
        assert oracle[0][1] < oracle[-1][1]

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

    def test_labels_propagate_to_every_series(self, sim, fleet):
        collector = FleetCollector(
            sim, fleet, period_ns=SEC, labels={"mode": "hotmem"}
        )
        for series in collector.used.values():
            assert series.labels["mode"] == "hotmem"
        assert collector.host_used_series(0).labels["mode"] == "hotmem"
