"""Unit tests for the VMM-side virtio-mem device."""

import pytest

from repro.errors import HotplugError
from repro.mm.mm_struct import MmStruct
from repro.sim.engine import Timeout
from repro.units import GIB, MEMORY_BLOCK_SIZE, MIB


class TestPlug:
    def test_plug_rounds_up_to_blocks(self, sim, vanilla_vm):
        process = vanilla_vm.request_plug(100 * MIB)
        sim.run()
        assert process.value.plugged_bytes == MEMORY_BLOCK_SIZE

    def test_plug_charges_host_memory(self, sim, vanilla_vm):
        used_before = vanilla_vm.node.used_bytes
        vanilla_vm.request_plug(512 * MIB)
        sim.run()
        assert vanilla_vm.node.used_bytes == used_before + 512 * MIB

    def test_plug_beyond_region_rejected(self, sim, vanilla_vm):
        vanilla_vm.request_plug(8 * GIB)
        with pytest.raises(HotplugError):
            sim.run()

    def test_plug_behind_partial_unplug_gets_the_free_blocks(self, sim, vanilla_vm):
        region = vanilla_vm.config.hotplug_region_bytes
        vanilla_vm.request_plug(region)
        sim.run()
        manager = vanilla_vm.manager
        movable = manager.zone_movable
        manager.alloc_pages(MmStruct("p"), movable.free_pages, zones=[movable])
        unplug = vanilla_vm.request_unplug(1 * GIB)
        plug = vanilla_vm.request_plug(1 * GIB)  # queued behind the unplug
        sim.run()
        freed = unplug.value.unplugged_bytes
        assert 0 < freed < 1 * GIB
        assert plug.value.plugged_bytes == freed
        assert plug.value.error == "region-partial"
        assert vanilla_vm.device.plugged_bytes == region
        vanilla_vm.check_consistency()

    def test_plug_into_full_region_plugs_nothing(self, sim, vanilla_vm):
        vanilla_vm.request_plug(vanilla_vm.config.hotplug_region_bytes)
        sim.run()
        used_before = vanilla_vm.node.used_bytes
        process = vanilla_vm.request_plug(MEMORY_BLOCK_SIZE)
        sim.run()
        assert process.value.plugged_bytes == 0
        assert process.value.error == "region-partial"
        assert vanilla_vm.node.used_bytes == used_before

    def test_plug_latency_positive_and_traced(self, sim, vanilla_vm):
        process = vanilla_vm.request_plug(256 * MIB)
        sim.run()
        assert process.value.latency_ns > 0
        events = vanilla_vm.tracer.plug_events()
        assert len(events) == 1
        assert events[0].completed_bytes == 256 * MIB

    def test_consistency_after_plug(self, sim, vanilla_vm):
        vanilla_vm.request_plug(1 * GIB)
        sim.run()
        vanilla_vm.check_consistency()


class TestUnplug:
    def test_unplug_returns_memory_to_host(self, sim, vanilla_vm):
        vanilla_vm.request_plug(1 * GIB)
        sim.run()
        used_before = vanilla_vm.node.used_bytes
        process = vanilla_vm.request_unplug(512 * MIB)
        sim.run()
        assert process.value.unplugged_bytes == 512 * MIB
        assert vanilla_vm.node.used_bytes == used_before - 512 * MIB

    def test_unplug_more_than_plugged_clamped(self, sim, vanilla_vm):
        vanilla_vm.request_plug(256 * MIB)
        sim.run()
        process = vanilla_vm.request_unplug(4 * GIB)
        sim.run()
        assert process.value.unplugged_bytes == 256 * MIB

    def test_unplug_latency_measured_hypervisor_side(self, sim, vanilla_vm):
        vanilla_vm.request_plug(512 * MIB)
        sim.run()
        process = vanilla_vm.request_unplug(512 * MIB)
        sim.run()
        result = process.value
        event = vanilla_vm.tracer.unplug_events()[0]
        assert event.latency_ns == result.latency_ns
        # Latency covers at least the madvise work.
        assert result.latency_ns >= 4 * vanilla_vm.costs.madvise_block_ns

    def test_consistency_after_unplug(self, sim, vanilla_vm):
        vanilla_vm.request_plug(1 * GIB)
        sim.run()
        vanilla_vm.request_unplug(512 * MIB)
        sim.run()
        vanilla_vm.check_consistency()


class TestSerialization:
    def test_concurrent_requests_serialize(self, sim, vanilla_vm):
        first = vanilla_vm.request_plug(512 * MIB)
        second = vanilla_vm.request_plug(512 * MIB)
        sim.run()
        first_event, second_event = vanilla_vm.tracer.plug_events()
        assert second_event.start_ns >= first_event.end_ns
        assert first.value.fully_plugged and second.value.fully_plugged

    def test_plug_then_unplug_ordering(self, sim, vanilla_vm):
        vanilla_vm.request_plug(512 * MIB)
        vanilla_vm.request_unplug(256 * MIB)
        sim.run()
        plug = vanilla_vm.tracer.plug_events()[0]
        unplug = vanilla_vm.tracer.unplug_events()[0]
        assert unplug.start_ns >= plug.end_ns
        assert unplug.completed_bytes == 256 * MIB


class TestBootPlug:
    def test_plug_at_boot_is_instant(self, sim, vanilla_vm):
        vanilla_vm.device.plug_at_boot(512 * MIB, vanilla_vm.manager.zone_movable)
        assert sim.now == 0
        assert vanilla_vm.device.plugged_bytes == 512 * MIB
        vanilla_vm.check_consistency()

    def test_plug_at_boot_not_traced(self, sim, vanilla_vm):
        vanilla_vm.device.plug_at_boot(256 * MIB, vanilla_vm.manager.zone_movable)
        assert vanilla_vm.tracer.events == []

    def test_boot_plug_beyond_region_rejected(self, vanilla_vm):
        with pytest.raises(HotplugError):
            vanilla_vm.device.plug_at_boot(
                8 * GIB, vanilla_vm.manager.zone_movable
            )


class TestReclaimThroughputMetric:
    def test_throughput_zero_without_unplugs(self, vanilla_vm):
        assert vanilla_vm.tracer.reclaim_throughput_mib_per_sec() == 0.0

    def test_throughput_positive_after_reclaim(self, sim, vanilla_vm):
        vanilla_vm.request_plug(512 * MIB)
        sim.run()
        vanilla_vm.request_unplug(512 * MIB)
        sim.run()
        assert vanilla_vm.tracer.reclaim_throughput_mib_per_sec() > 0
        assert vanilla_vm.tracer.total_unplugged_bytes() == 512 * MIB
