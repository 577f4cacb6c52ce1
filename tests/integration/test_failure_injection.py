"""Failure injection and adversarial interleavings at the VM level.

These drive the full stack through hostile sequences — resize storms,
attach storms against the concurrency limit, OOM storms, unplug/replug
races — and assert that the system stays consistent and makes progress.
"""

import pytest

from repro.cluster.provision import VmSpec
from repro.errors import OutOfMemory
from repro.modes import HOTMEM
from repro.sim import Simulator, Timeout
from repro.units import GIB, MIB, SEC
from repro.workloads import Memhog


def build(sim, fleet, mode="hotmem", slots=8, slot_bytes=384 * MIB, shared=0):
    del sim  # the fleet owns the simulator
    if mode == "hotmem":
        spec = VmSpec(
            mode,
            mode=HOTMEM,
            partition_bytes=slot_bytes,
            concurrency=slots,
            shared_bytes=shared,
        )
    else:
        spec = VmSpec(mode, region_bytes=slots * slot_bytes + shared)
    return fleet.provision(spec).vm


class TestResizeStorms:
    @pytest.mark.parametrize("mode", ["hotmem", "vanilla"])
    def test_interleaved_plug_unplug_storm(self, sim, fleet, mode):
        """Alternating plug/unplug requests fired without waiting."""
        vm = build(sim, fleet, mode)
        for _ in range(6):
            vm.request_plug(768 * MIB)
            vm.request_unplug(384 * MIB)
        sim.run()
        vm.check_consistency()
        # Net effect: 6 * (768 - 384) MiB plugged.
        assert vm.device.plugged_bytes == 6 * 384 * MIB

    def test_unplug_storm_on_empty_device_is_harmless(self, sim, fleet):
        vm = build(sim, fleet, "vanilla")
        processes = [vm.request_unplug(1 * GIB) for _ in range(4)]
        sim.run()
        for process in processes:
            assert process.value.unplugged_bytes == 0
        vm.check_consistency()

    def test_unplug_races_with_running_allocations(self, sim, fleet):
        """Memhogs keep faulting while unplug requests arrive."""
        vm = build(sim, fleet, "vanilla")
        vm.request_plug(8 * 384 * MIB)
        sim.run()
        hogs = [
            Memhog(vm, 256 * MIB, vcpu_index=i, churn_fraction=0.3,
                   name=f"churn{i}")
            for i in range(4)
        ]
        for hog in hogs:
            hog.start()

        def storm():
            yield Timeout(300_000_000)
            for _ in range(3):
                unplug = vm.request_unplug(512 * MIB)
                yield unplug
            for hog in hogs:
                hog.stop()

        sim.run_process(storm(), name="storm")
        sim.run()
        vm.check_consistency()


class TestAttachStorms:
    def test_more_attaches_than_partitions_queue_and_drain(self, sim, fleet):
        vm = build(sim, fleet, "hotmem", slots=4)
        vm.request_plug(4 * 384 * MIB)
        sim.run()
        finished = []

        def instance(tag):
            mm = vm.new_process(f"fn{tag}")
            yield from vm.hotmem.attach(mm)
            charge = vm.fault_handler.fault_anon(mm, 1000)
            yield vm.vcpus[tag % 10].submit(charge.cost_ns, f"fn{tag}")
            yield Timeout(50_000_000)
            vm.exit_process(mm)
            finished.append(tag)

        for tag in range(12):
            sim.spawn(instance(tag))
        sim.run()
        assert sorted(finished) == list(range(12))
        assert vm.hotmem.waitqueue_depth == 0
        assert len(vm.hotmem.reclaimable_partitions()) == 4
        vm.check_consistency()

    def test_waiters_survive_partition_reclaim_interleaving(self, sim, fleet):
        """Attach waiters racing with the partitions being unplugged."""
        vm = build(sim, fleet, "hotmem", slots=2)
        vm.request_plug(2 * 384 * MIB)
        sim.run()
        first = vm.new_process("first")
        vm.hotmem.try_attach(first)
        # Reclaim the one free partition first ...
        vm.request_unplug(384 * MIB)
        sim.run()
        second = vm.new_process("second")

        def waiter():
            yield from vm.hotmem.attach(second)
            return "attached"

        # ... so the late attacher has nothing and must park.
        process = sim.spawn(waiter())
        sim.run()
        assert not process.finished
        # ... then release the occupied one: the waiter gets it.
        vm.exit_process(first)
        sim.run()
        assert process.value == "attached"
        vm.check_consistency()


class TestOomStorms:
    def test_partition_overflow_storm(self, sim, fleet):
        """Every instance overflows its partition; all are killed and every
        partition comes back reusable."""
        vm = build(sim, fleet, "hotmem", slots=4)
        vm.request_plug(4 * 384 * MIB)
        sim.run()
        kills = 0
        for round_index in range(8):
            mm = vm.new_process(f"greedy{round_index}")
            vm.hotmem.try_attach(mm)
            with pytest.raises(OutOfMemory):
                vm.fault_handler.fault_anon(mm, 4 * 384 * MIB // 4096)
            kills += 1
            vm.exit_process(mm)
        assert vm.oom_killer.kill_count == kills
        assert len(vm.hotmem.reclaimable_partitions()) == 4
        vm.check_consistency()

    def test_global_exhaustion_does_not_corrupt_state(self, sim, fleet):
        vm = build(sim, fleet, "vanilla", slots=2)
        vm.request_plug(2 * 384 * MIB)
        sim.run()
        survivors = []
        for i in range(3):
            mm = vm.new_process(f"ok{i}")
            vm.fault_handler.fault_anon(mm, 10_000)
            survivors.append(mm)
        greedy = vm.new_process("greedy")
        with pytest.raises(OutOfMemory):
            vm.fault_handler.fault_anon(greedy, 10**7)
        for mm in survivors:
            assert mm.total_pages == 10_000
        vm.check_consistency()


class TestReplugCycles:
    def test_unplug_replug_cycles_converge(self, sim, fleet):
        """Repeated full shrink/grow cycles end exactly where they began."""
        vm = build(sim, fleet, "hotmem", slots=6)
        for _ in range(5):
            plug = vm.request_plug(6 * 384 * MIB)
            sim.run()
            assert plug.value.fully_plugged
            mm = vm.new_process("fn")
            vm.hotmem.try_attach(mm)
            vm.fault_handler.fault_anon(mm, 50_000)
            vm.exit_process(mm)
            unplug = vm.request_unplug(6 * 384 * MIB)
            sim.run()
            assert unplug.value.unplugged_bytes == 6 * 384 * MIB
            assert unplug.value.migrated_pages == 0
        vm.check_consistency()
        assert vm.device.plugged_bytes == 0

    def test_partial_unplug_then_replug_heals(self, sim, fleet):
        """A vanilla unplug that goes partial must not strand the device."""
        vm = build(sim, fleet, "vanilla", slots=4)
        vm.request_plug(4 * 384 * MIB)
        sim.run()
        hog = Memhog(vm, 4 * 300 * MIB)
        hog.materialize()
        partial = vm.request_unplug(4 * 384 * MIB)
        sim.run()
        assert partial.value.unplugged_bytes < 4 * 384 * MIB
        hog.release()
        # Now everything can go.
        final = vm.request_unplug(4 * 384 * MIB)
        sim.run()
        assert vm.device.plugged_bytes + final.value.unplugged_bytes >= 0
        vm.check_consistency()
