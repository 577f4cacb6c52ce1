"""Unit tests for VM wiring (vanilla, HotMem, overprovisioned)."""

import pytest

from repro.cluster.provision import Fleet, VmSpec
from repro.errors import ConfigError
from repro.modes import HOTMEM, OVERPROVISIONED, VANILLA
from repro.sim import Simulator
from repro.units import GIB, MIB


def _provision(fleet, **spec_kwargs):
    return fleet.provision(VmSpec(**spec_kwargs)).vm


class TestVanillaWiring:
    def test_vcpus_and_vmm_thread_created(self, vanilla_vm):
        assert len(vanilla_vm.vcpus) == 10
        assert vanilla_vm.irq_vcpu is vanilla_vm.vcpus[0]
        assert vanilla_vm.vmm_core.name.endswith("-vmm")

    def test_not_hotmem(self, vanilla_vm):
        assert not vanilla_vm.is_hotmem
        assert vanilla_vm.hotmem is None

    def test_boot_memory_charged_on_host(self, fleet, host):
        used_before = host.node(0).used_bytes
        vm = _provision(fleet, name="vm", region_bytes=GIB)
        assert host.node(0).used_bytes == (
            used_before + vm.config.effective_boot_memory_bytes
        )

    def test_shutdown_releases_host_memory(self, sim, fleet, host):
        vm = _provision(fleet, name="vm", region_bytes=GIB)
        vm.request_plug(512 * MIB)
        sim.run()
        vm.shutdown()
        assert host.node(0).used_bytes == 0

    def test_shutdown_idempotent(self, fleet, host):
        vm = _provision(fleet, name="vm", region_bytes=GIB)
        vm.shutdown()
        vm.shutdown()
        assert host.node(0).used_bytes == 0


class TestHotMemWiring:
    def test_partitions_created(self, hotmem_vm, hotmem_params):
        assert hotmem_vm.is_hotmem
        assert len(hotmem_vm.hotmem.partitions) == hotmem_params.concurrency

    def test_shared_partition_populated_at_boot(self, hotmem_vm, hotmem_params):
        shared = hotmem_vm.hotmem.shared_partition
        assert shared.is_fully_populated
        assert hotmem_vm.device.plugged_bytes == hotmem_params.shared_bytes

    def test_region_too_small_rejected(self, fleet, hotmem_params):
        with pytest.raises(ConfigError):
            _provision(
                fleet,
                name="vm",
                mode=HOTMEM,
                region_bytes=GIB,
                partition_bytes=hotmem_params.partition_bytes,
                concurrency=hotmem_params.concurrency,
                shared_bytes=hotmem_params.shared_bytes,
            )

    def test_file_faults_use_shared_partition(self, sim, hotmem_vm):
        from repro.mm.pagecache import CachedFile

        file = hotmem_vm.page_cache.register(CachedFile("lib", 1000))
        mm = hotmem_vm.new_process("fn")
        hotmem_vm.fault_handler.fault_file(mm, file, 1000)
        shared_zone = hotmem_vm.hotmem.shared_partition.zone
        assert shared_zone.occupied_pages == 1000


class TestProcessLifecycle:
    def test_exit_vanilla_process(self, sim, vanilla_vm):
        mm = vanilla_vm.new_process("p")
        vanilla_vm.fault_handler.fault_anon(mm, 100)
        charge = vanilla_vm.exit_process(mm)
        assert charge.anon_pages == 100
        assert mm.total_pages == 0

    def test_exit_hotmem_process_releases_partition(self, sim, hotmem_vm):
        hotmem_vm.request_plug(384 * MIB)
        sim.run()
        mm = hotmem_vm.new_process("fn")
        partition = hotmem_vm.hotmem.try_attach(mm)
        hotmem_vm.fault_handler.fault_anon(mm, 1000)
        hotmem_vm.exit_process(mm)
        assert partition.is_reclaimable


class TestOverprovisioned:
    def test_plug_all_at_boot(self, sim, fleet):
        vm = fleet.provision(
            VmSpec(
                "vm",
                mode=OVERPROVISIONED,
                region_bytes=2 * GIB,
            )
        ).vm
        assert vm.device.plugged_bytes == 2 * GIB
        assert sim.now == 0
        vm.check_consistency()

    def test_plug_all_at_boot_idempotent(self, fleet):
        vm = _provision(
            fleet,
            name="vm",
            mode=OVERPROVISIONED,
            region_bytes=GIB,
        )
        vm.plug_all_at_boot()
        assert vm.device.plugged_bytes == GIB


class TestEndToEndResize:
    def test_hotmem_unplug_is_much_faster_than_vanilla(self):
        """The headline claim at unit scale: same load, same reclaim,
        an order of magnitude apart."""
        from repro.workloads.memhog import Memhog

        results = {}
        for mode in ("vanilla", "hotmem"):
            local_sim = Simulator()
            local_fleet = Fleet(local_sim)
            vm = local_fleet.provision(
                VmSpec(
                    mode,
                    mode=(
                        HOTMEM
                        if mode == "hotmem"
                        else VANILLA
                    ),
                    region_bytes=8 * 384 * MIB,
                    partition_bytes=384 * MIB if mode == "hotmem" else 0,
                    concurrency=8 if mode == "hotmem" else 0,
                    shared_bytes=0,
                )
            ).vm
            vm.request_plug(8 * 384 * MIB)
            local_sim.run()
            hogs = [
                Memhog(vm, 300 * MIB, vcpu_index=i % 10,
                       use_hotmem=mode == "hotmem", name=f"hog{i}")
                for i in range(8)
            ]
            for hog in hogs:
                hog.materialize()
            for hog in hogs[-2:]:
                hog.release()
            process = vm.request_unplug(2 * 384 * MIB)
            local_sim.run()
            results[mode] = process.value
            vm.check_consistency()
        assert results["hotmem"].migrated_pages == 0
        assert results["vanilla"].migrated_pages > 0
        assert (
            results["vanilla"].latency_ns > 10 * results["hotmem"].latency_ns
        )
