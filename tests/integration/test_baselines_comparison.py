"""Integration tests: the four-interface comparison (A5)."""

import pytest

from repro.experiments import baselines_comparison as bc
from repro.units import GIB, MIB


class TestHappyPath:
    @pytest.fixture(scope="class")
    def result(self):
        return bc.run(
            bc.BaselinesConfig(
                total_bytes=4 * GIB,
                partition_bytes=512 * MIB,
                reclaim_bytes=1 * GIB,
            )
        )

    def test_hotmem_fastest(self, result):
        for other, bound in (("virtio-mem", 5.0), ("balloon", 3.0), ("dimm", 3.0)):
            assert result.speedup_over(other) > bound

    def test_balloon_beats_migrating_hotplug_when_memory_is_free(self, result):
        assert (
            result.by_mechanism["balloon"].latency_ms
            < result.by_mechanism["virtio-mem"].latency_ms
        )

    def test_everyone_reclaims_the_request(self, result):
        for name in ("hotmem", "virtio-mem", "balloon"):
            assert result.by_mechanism[name].reclaimed_fraction == 1.0

    def test_only_hotplug_migrates(self, result):
        assert result.by_mechanism["hotmem"].migrated_pages == 0
        assert result.by_mechanism["balloon"].migrated_pages == 0
        assert result.by_mechanism["virtio-mem"].migrated_pages > 0
        assert result.by_mechanism["dimm"].migrated_pages > 0

    def test_dimm_over_reclaims(self, result):
        row = result.by_mechanism["dimm"]
        assert row.reclaimed_bytes >= 1 * GIB
        assert row.reclaimed_bytes % (1 * GIB) == 0

    def test_fpr_latency_is_about_one_reporting_tick(self, result):
        row = result.by_mechanism["fpr"]
        # Default tick is 2 s; the reconciliation lands within ~one tick.
        assert 100 < row.latency_ms < 3000
        assert row.migrated_pages == 0

    def test_fpr_slower_than_hotmem_but_reclaims_most(self, result):
        row = result.by_mechanism["fpr"]
        assert row.latency_ms > result.by_mechanism["hotmem"].latency_ms
        assert row.reclaimed_fraction > 0.5


class TestPressure:
    @pytest.fixture(scope="class")
    def result(self):
        return bc.run(bc.BaselinesConfig.pressure())

    def test_balloon_stalls_with_retries(self, result):
        row = result.by_mechanism["balloon"]
        assert row.balloon_retries > 0
        assert row.reclaimed_fraction < 1.0

    def test_hotmem_partial_but_instant(self, result):
        row = result.by_mechanism["hotmem"]
        assert row.reclaimed_bytes == 512 * MIB  # exactly what was freed
        assert row.latency_ms < 100
        assert row.migrated_pages == 0

    def test_dimm_wastes_migrations_on_aborts(self, result):
        assert result.by_mechanism["dimm"].wasted_migrated_pages > 0

    def test_hotmem_latency_unaffected_by_pressure(self, result):
        relaxed = bc.run(
            bc.BaselinesConfig(
                total_bytes=6 * GIB,
                partition_bytes=512 * MIB,
                reclaim_bytes=512 * MIB,
            )
        )
        pressured = result.by_mechanism["hotmem"].latency_ms
        assert pressured == pytest.approx(
            relaxed.by_mechanism["hotmem"].latency_ms, rel=0.5
        )
