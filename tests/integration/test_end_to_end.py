"""Full-stack end-to-end invariants across the whole system."""

import pytest

from repro.experiments.serverless import (
    FunctionLoad,
    ServerlessScenario,
    run_scenario,
)
from repro.modes import HOTMEM, VANILLA
from repro.units import MEMORY_BLOCK_SIZE, MIB


@pytest.fixture(scope="module")
def hotmem_run():
    return run_scenario(
        ServerlessScenario(
            mode=HOTMEM,
            loads=(FunctionLoad.for_function("cnn", max_instances=8),),
            duration_s=60,
            keep_alive_s=15,
            recycle_interval_s=5,
            drain_s=20,
        )
    )


@pytest.fixture(scope="module")
def vanilla_run():
    return run_scenario(
        ServerlessScenario(
            mode=VANILLA,
            loads=(FunctionLoad.for_function("cnn", max_instances=8),),
            duration_s=60,
            keep_alive_s=15,
            recycle_interval_s=5,
            drain_s=20,
        )
    )


class TestMemoryConservation:
    def test_plug_unplug_balance(self, hotmem_run):
        plugged = sum(
            e.completed_bytes for e in hotmem_run.resize_events if e.kind == "plug"
        )
        unplugged = sum(
            e.completed_bytes
            for e in hotmem_run.resize_events
            if e.kind == "unplug"
        )
        assert plugged >= unplugged
        assert plugged % MEMORY_BLOCK_SIZE == 0
        assert unplugged % MEMORY_BLOCK_SIZE == 0

    def test_resize_events_never_overlap(self, hotmem_run):
        events = sorted(hotmem_run.resize_events, key=lambda e: e.start_ns)
        for earlier, later in zip(events, events[1:]):
            assert later.start_ns >= earlier.end_ns


class TestScalingLifecycle:
    def test_cold_starts_bounded_by_traffic(self, hotmem_run):
        assert 0 < hotmem_run.cold_starts["cnn"] <= len(hotmem_run.records)

    def test_every_record_well_formed(self, hotmem_run):
        for record in hotmem_run.records:
            assert record.arrival_ns <= record.start_ns <= record.end_ns
            assert record.function == "cnn"

    def test_shrink_events_follow_keep_alive(self, hotmem_run):
        scenario = hotmem_run.scenario
        for event in hotmem_run.shrink_events:
            assert event.time_ns >= scenario.keep_alive_s * 10**9
            assert event.evicted > 0


class TestMechanismContrast:
    def test_identical_workload_different_reclaim_cost(self, hotmem_run, vanilla_run):
        assert len(hotmem_run.records) == len(vanilla_run.records)
        hotmem_migrated = sum(
            e.migrated_pages for e in hotmem_run.resize_events
        )
        vanilla_migrated = sum(
            e.migrated_pages for e in vanilla_run.resize_events
        )
        assert hotmem_migrated == 0
        assert vanilla_migrated > 0

    def test_unplug_latency_gap(self, hotmem_run, vanilla_run):
        hotmem_ms = hotmem_run.unplug_latencies_ms()
        vanilla_ms = vanilla_run.unplug_latencies_ms()
        assert hotmem_ms and vanilla_ms
        assert max(hotmem_ms) < min(vanilla_ms)

    def test_virtio_cpu_gap(self, hotmem_run, vanilla_run):
        assert vanilla_run.virtio_cpu_ns > 2 * hotmem_run.virtio_cpu_ns
