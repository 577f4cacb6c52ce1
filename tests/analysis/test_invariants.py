"""Unit tests for the invariant registry: every rule must catch a seeded
violation and stay silent on conforming state."""

import pytest

from repro.analysis.invariants import (
    INVARIANTS,
    CheckContext,
    Failure,
    InvariantViolation,
    check_now,
    describe_block,
    run_invariants,
)
from repro.core import HotMemBootParams
from repro.core.manager import HotMemManager
from repro.mm.block import BlockState, MemoryBlock
from repro.mm.manager import GuestMemoryManager
from repro.mm.mm_struct import MmStruct
from repro.mm.owner import PageOwner
from repro.sim import Simulator
from repro.units import GIB, MIB, PAGES_PER_BLOCK


@pytest.fixture
def manager():
    return GuestMemoryManager(
        boot_memory_bytes=1 * GIB, hotplug_region_bytes=2 * GIB
    )


@pytest.fixture
def hotmem(manager):
    """A HotMem layer with two 256 MiB partitions plus a 128 MiB shared
    partition, all fully populated from the hotplug region."""
    params = HotMemBootParams.for_function(
        256 * MIB, concurrency=2, shared_bytes=128 * MIB
    )
    hm = HotMemManager(Simulator(), manager, params)
    indices = iter(manager.hotplug_block_indices())
    for partition in hm.partitions + [hm.shared_partition]:
        for _ in range(partition.size_blocks):
            manager.online_block(next(indices), partition.zone)
    return hm


def violation(manager, **kwargs):
    """Run a sweep expecting failure; returns the InvariantViolation."""
    with pytest.raises(InvariantViolation) as excinfo:
        check_now(manager, **kwargs)
    return excinfo.value


class TestRegistry:
    def test_at_least_seven_rules_registered(self):
        assert len(INVARIANTS) >= 7

    def test_expected_rule_names(self):
        expected = {
            "page-conservation",
            "zone-free-counter",
            "zone-usable-index",
            "block-state-legality",
            "zone-movability",
            "owner-mirror-sync",
            "hotmem-exclusivity",
            "footprint-confinement",
            "partition-refcount",
            "teardown-no-leak",
        }
        assert expected <= set(INVARIANTS)

    def test_every_rule_has_a_description(self):
        for rule in INVARIANTS.values():
            assert rule.description
            assert rule.name

    def test_unknown_rule_selection_rejected(self, manager):
        with pytest.raises(ValueError, match="no-such-rule"):
            run_invariants(CheckContext(manager), rules=["no-such-rule"])

    def test_rule_subset_runs_only_selected(self, manager):
        mm = MmStruct("subset")
        manager.alloc_pages(mm, 100)
        block = next(iter(mm.block_pages))
        block.owner_pages[mm] += 3  # owner-mirror-sync violation only
        failures = run_invariants(
            CheckContext(manager), rules=["block-state-legality"]
        )
        assert failures == []


class TestReport:
    def test_report_names_rule_and_block(self, manager):
        manager.zone_normal.blocks[0].free_pages += 7
        error = violation(manager, event="unit-test")
        assert "unit-test" in str(error)
        assert "block 0" in str(error)
        for rule in error.rules:
            assert f"[{rule}]" in error.report()

    def test_report_elides_beyond_block_limit(self):
        blocks = tuple(MemoryBlock(i) for i in range(12))
        error = InvariantViolation(
            [Failure("page-conservation", "synthetic", blocks)]
        )
        assert "... and 4 more block(s)" in error.report()

    def test_describe_block_covers_owners(self, manager):
        mm = MmStruct("descr")
        manager.alloc_pages(mm, 64)
        block = next(iter(mm.block_pages))
        line = describe_block(block)
        assert mm.owner_id in line
        assert "state=online" in line

    def test_violation_is_a_memory_error(self, manager):
        from repro.errors import MemoryError_

        manager.zone_normal.blocks[0].free_pages += 1
        with pytest.raises(MemoryError_):
            check_now(manager)


class TestPageConservation:
    def test_clean_manager_passes(self, manager):
        check_now(manager)

    def test_inflated_block_free_count_caught(self, manager):
        manager.zone_normal.blocks[0].free_pages += 7
        error = violation(manager)
        assert "page-conservation" in error.rules

    def test_absent_block_with_pages_caught(self, manager):
        absent = manager.blocks[manager.boot_blocks]
        assert absent.state is BlockState.ABSENT
        absent.free_pages = 5
        error = violation(manager)
        assert "page-conservation" in error.rules

    def test_global_ledger_mismatch_caught(self, manager):
        # Per-block accounting consistent, but a phantom owner entry on a
        # block inflates the allocated total against the online capacity.
        block = manager.zone_normal.blocks[0]
        phantom = PageOwner("phantom")
        taken = 16
        block.free_pages -= taken
        block.owner_pages[phantom] = taken
        phantom.block_pages[block] = taken
        manager.zone_normal._free_pages -= taken  # keep the zone counter honest
        check_now(manager)  # still conserved: pages moved free -> owned
        block.owner_pages[phantom] += 8  # now the ledger breaks
        error = violation(manager)
        assert "page-conservation" in error.rules


class TestZoneFreeCounter:
    def test_stale_cached_counter_caught(self, manager):
        manager.zone_normal._free_pages -= 5
        error = violation(manager)
        assert "zone-free-counter" in error.rules
        assert "delta -5" in str(error)

    def test_isolated_blocks_excluded_from_recount(self, manager):
        index = next(iter(manager.hotplug_block_indices()))
        block = manager.online_block(index, manager.zone_movable)
        manager.isolate_block(block)
        check_now(manager)  # isolation is not a violation
        manager.unisolate_block(block)
        check_now(manager)


class TestZoneUsableIndex:
    def test_dropped_index_entry_caught(self, manager):
        block = manager.zone_normal.usable_blocks.pop(1)
        error = violation(manager)
        assert error.rules == ["zone-usable-index"]
        assert error.failures[0].blocks == (block,)

    def test_full_block_left_in_index_caught(self, manager):
        index = next(iter(manager.hotplug_block_indices()))
        block = manager.online_block(index, manager.zone_movable)
        mm = MmStruct("filler")
        manager.alloc_pages(mm, PAGES_PER_BLOCK, zones=[manager.zone_movable])
        manager.zone_movable.usable_blocks.append(block)  # a missed removal
        error = violation(manager)
        assert error.rules == ["zone-usable-index"]
        assert f"holds blocks [{index}], recomputed []" in str(error)

    def test_isolated_and_full_blocks_leave_the_index(self, manager):
        index = next(iter(manager.hotplug_block_indices()))
        block = manager.online_block(index, manager.zone_movable)
        zone = manager.zone_movable
        assert zone.usable_blocks == [block]
        manager.isolate_block(block)
        assert zone.usable_blocks == []
        check_now(manager)
        manager.unisolate_block(block)
        mm = MmStruct("filler")
        manager.alloc_pages(mm, PAGES_PER_BLOCK, zones=[zone])
        assert zone.usable_blocks == []
        check_now(manager)
        manager.free_pages(mm, 1)  # a release into the full block
        assert zone.usable_blocks == [block]
        check_now(manager)


class TestBlockStateLegality:
    def test_offline_block_in_zone_caught(self, manager):
        block = manager.zone_normal.blocks[-1]
        block.state = BlockState.OFFLINE
        error = violation(manager)
        assert "block-state-legality" in error.rules

    def test_boot_block_never_unplugged(self, manager):
        block = manager.blocks[0]
        # Detach the boot block "legally" so only the boot rule fires.
        manager.free_pages(manager.kernel, manager.kernel.total_pages)
        manager.zone_normal.detach_block(block)
        block.state = BlockState.ABSENT
        block.free_pages = 0
        error = violation(manager)
        assert "block-state-legality" in error.rules
        assert "boot" in str(error)

    def test_broken_backreference_caught(self, manager):
        index = next(iter(manager.hotplug_block_indices()))
        block = manager.online_block(index, manager.zone_movable)
        block.zone = manager.zone_normal
        error = violation(manager)
        assert "block-state-legality" in error.rules


class TestZoneMovability:
    def test_unmovable_owner_in_movable_zone_caught(self, manager):
        index = next(iter(manager.hotplug_block_indices()))
        block = manager.online_block(index, manager.zone_movable)
        # Seed the corruption below the zone API (which would refuse it):
        # kernel pages can never live in ZONE_MOVABLE.
        taken = 10
        block.charge(manager.kernel, taken)
        manager.kernel._mirror_charge(block, taken)
        manager.zone_movable._free_pages -= taken
        error = violation(manager)
        assert "zone-movability" in error.rules
        assert "kernel" in str(error)

    def test_movable_owner_in_movable_zone_ok(self, manager):
        index = next(iter(manager.hotplug_block_indices()))
        manager.online_block(index, manager.zone_movable)
        mm = MmStruct("movable")
        manager.alloc_pages(mm, 100, zones=[manager.zone_movable])
        check_now(manager)


class TestOwnerMirrorSync:
    def test_inflated_mirror_caught(self, manager):
        mm = MmStruct("mirror")
        manager.alloc_pages(mm, 100)
        block = next(iter(mm.block_pages))
        mm.block_pages[block] += 3
        error = violation(manager)
        assert "owner-mirror-sync" in error.rules

    def test_stale_mirror_entry_caught(self, manager):
        mm = MmStruct("stale")
        manager.alloc_pages(mm, 100)
        orphan = manager.blocks[manager.boot_blocks - 1]
        if orphan not in mm.block_pages:
            mm.block_pages[orphan] = 4
        else:
            mm.block_pages[orphan] += 4
        error = violation(manager)
        assert "owner-mirror-sync" in error.rules

    def test_non_positive_charge_caught(self, manager):
        mm = MmStruct("zero")
        manager.alloc_pages(mm, 50)
        block = next(iter(mm.block_pages))
        held = block.owner_pages[mm]
        block.owner_pages[mm] = 0
        block.free_pages += held  # keep conservation satisfied
        manager.zone_normal._free_pages += held
        mm.block_pages[block] = 0
        error = violation(manager)
        assert "owner-mirror-sync" in error.rules


class TestHotMemExclusivity:
    def test_clean_hotmem_setup_passes(self, manager, hotmem):
        check_now(manager, hotmem=hotmem)

    def test_foreign_owner_in_private_partition_caught(self, manager, hotmem):
        partition = hotmem.partitions[0]
        leader = MmStruct("leader")
        partition.assign(leader)
        manager.alloc_pages(leader, 200, zones=[partition.zone])
        intruder = MmStruct("intruder")
        manager.alloc_pages(intruder, 50, zones=[partition.zone])
        error = violation(manager, hotmem=hotmem)
        assert "hotmem-exclusivity" in error.rules
        assert intruder.owner_id in str(error)

    def test_anon_pages_in_shared_partition_caught(self, manager, hotmem):
        shared = hotmem.shared_partition
        mm = MmStruct("anon-in-shared")
        manager.alloc_pages(mm, 30, zones=[shared.zone])
        error = violation(manager, hotmem=hotmem)
        assert "hotmem-exclusivity" in error.rules

    def test_page_cache_in_shared_partition_ok(self, manager, hotmem):
        cache = PageOwner("page-cache")
        manager.alloc_pages(cache, 30, zones=[hotmem.shared_partition.zone])
        check_now(manager, hotmem=hotmem)


class TestFootprintConfinement:
    def test_partitioned_instance_leaking_outside_caught(self, manager, hotmem):
        partition = hotmem.partitions[0]
        mm = MmStruct("confined")
        partition.assign(mm)
        manager.alloc_pages(mm, 100, zones=[partition.zone])
        check_now(manager, hotmem=hotmem)
        # The bug class fig2 quantifies: anonymous pages of a partitioned
        # instance landing in a generic zone.
        manager.alloc_pages(mm, 10, zones=[manager.zone_normal])
        error = violation(manager, hotmem=hotmem)
        assert "footprint-confinement" in error.rules

    def test_vanilla_instance_may_interleave(self, manager):
        mm = MmStruct("vanilla")
        manager.alloc_pages(mm, 100)
        check_now(manager)


class TestPartitionRefcount:
    def test_refcount_without_assignment_caught(self, manager, hotmem):
        hotmem.partitions[0].partition_users = 2
        error = violation(manager, hotmem=hotmem)
        assert "partition-refcount" in error.rules

    def test_negative_refcount_caught(self, manager, hotmem):
        hotmem.partitions[1].partition_users = -1
        error = violation(manager, hotmem=hotmem)
        assert "partition-refcount" in error.rules

    def test_leak_on_teardown_caught(self, manager, hotmem):
        partition = hotmem.partitions[0]
        mm = MmStruct("leaker")
        partition.assign(mm)
        manager.alloc_pages(mm, 100, zones=[partition.zone])
        # Drop the refcount without freeing the address space (the bug
        # partition_users exists to prevent).
        partition.partition_users = 0
        partition.assigned_to = None
        mm.hotmem_partition = None
        error = violation(manager, hotmem=hotmem)
        assert "partition-refcount" in error.rules
        assert "leaked" in str(error)

    def test_shared_partition_never_assigned(self, manager, hotmem):
        hotmem.shared_partition.partition_users = 1
        error = violation(manager, hotmem=hotmem)
        assert "partition-refcount" in error.rules

    def test_empty_unassigned_partition_mid_unplug_ok(self, manager, hotmem):
        # Isolated-but-free partition blocks are a legal transient during
        # batched unplug, not a leak (regression for the Zone.occupied_pages
        # subtlety: the zone counter hides isolated pages).
        partition = hotmem.partitions[0]
        for block in partition.zone.blocks:
            manager.isolate_block(block)
        check_now(manager, hotmem=hotmem)


class TestQuarantineIsolation:
    def test_clean_quarantine_passes(self, manager):
        index = next(iter(manager.hotplug_block_indices()))
        block = manager.online_block(index, manager.zone_movable)
        manager.quarantine_block(block, reason="test")
        check_now(manager)
        manager.release_quarantine(block)
        check_now(manager)

    def test_unisolated_quarantined_block_caught(self, manager):
        index = next(iter(manager.hotplug_block_indices()))
        block = manager.online_block(index, manager.zone_movable)
        manager.quarantine_block(block)
        # Bypass the manager guard: leak the block back to the allocator.
        manager.zone_movable.unisolate_block(block)
        error = violation(manager)
        assert "quarantine-isolation" in error.rules
        assert "visible to the allocator" in str(error)

    def test_offline_quarantined_block_caught(self, manager):
        index = next(iter(manager.hotplug_block_indices()))
        block = manager.online_block(index, manager.zone_movable)
        manager.quarantine_block(block)
        block.state = BlockState.OFFLINE
        failures = run_invariants(
            CheckContext(manager), rules=["quarantine-isolation"]
        )
        assert failures and "must keep the block online" in failures[0].message

    @pytest.mark.no_autosanitize  # the quarantine checkpoint would reject it first
    def test_quarantined_block_in_live_partition_caught(self, manager, hotmem):
        partition = hotmem.partitions[0]
        manager.quarantine_block(partition.zone.blocks[0])
        error = violation(manager, hotmem=hotmem)
        assert "quarantine-isolation" in error.rules
        assert "not quarantined itself" in str(error)

    def test_assigned_quarantined_partition_caught(self, manager, hotmem):
        partition = hotmem.partitions[0]
        mm = MmStruct("assigned")
        partition.assign(mm)
        partition.quarantined = True  # bypass the PartitionBusy guard
        error = violation(manager, hotmem=hotmem)
        assert "quarantine-isolation" in error.rules
        assert "still assigned" in str(error)

    @pytest.mark.no_autosanitize  # quarantines blocks of a live partition on the way
    def test_quarantined_partition_unassigned_ok(self, manager, hotmem):
        partition = hotmem.partitions[0]
        for block in partition.zone.blocks:
            manager.quarantine_block(block)
        partition.quarantine()
        check_now(manager, hotmem=hotmem)


class TestTeardownNoLeak:
    def test_released_owner_with_pages_caught(self, manager):
        mm = MmStruct("undead")
        manager.alloc_pages(mm, 100)
        error = violation(manager, event="teardown", owner=mm)
        assert "teardown-no-leak" in error.rules

    def test_fully_freed_owner_passes(self, manager):
        mm = MmStruct("clean-exit")
        manager.alloc_pages(mm, 100)
        manager.free_all(mm)
        check_now(manager, event="teardown", owner=mm)

    def test_skipped_without_owner(self, manager):
        mm = MmStruct("not-torn-down")
        manager.alloc_pages(mm, 100)
        check_now(manager)  # owning pages is fine outside teardown


class TestSanitizerRegression:
    """Satellite: the full `--sanitize` experiment sweep surfaced no latent
    accounting bug, so pin the detection machinery itself — deliberately
    corrupt a healthy manager mid-workload and assert the sweep attributes
    the damage to the right rules."""

    def test_corruption_mid_workload_is_attributed(self, manager):
        instances = [MmStruct(f"fn-{i}") for i in range(4)]
        for index in list(manager.hotplug_block_indices())[:4]:
            manager.online_block(index, manager.zone_movable)
        for mm in instances:
            manager.alloc_pages(mm, 3000)
        manager.free_all(instances[1])
        manager.check_consistency()  # healthy after real churn
        victim = next(iter(instances[0].block_pages))
        victim.free_pages += 7  # the seeded bug
        with pytest.raises(InvariantViolation) as excinfo:
            manager.check_consistency()
        assert excinfo.value.rules == [
            "page-conservation",
            "zone-free-counter",
        ]
        assert f"block {victim.index}" in str(excinfo.value)

    def test_check_consistency_uses_hotmem_context(self, manager, hotmem):
        # manager.check_consistency() must pick up partition rules through
        # the _hotmem_context hook without being handed the HotMem layer.
        hotmem.partitions[0].partition_users = 3
        with pytest.raises(InvariantViolation) as excinfo:
            manager.check_consistency()
        assert "partition-refcount" in excinfo.value.rules


class TestHostConservation:
    """Fleet-level rule: per node, resident VMs' attributed backing bytes
    must sum exactly to the node's used bytes."""

    @staticmethod
    def _fleet_with_vm():
        from repro.cluster import Fleet, VmSpec

        sim = Simulator()
        fleet = Fleet(sim, hosts=1, nodes_per_host=1, memory_per_node=8 * GIB)
        handle = fleet.provision(
            VmSpec(name="hc-vm", region_bytes=1 * GIB, vcpus=2)
        )
        return fleet, handle

    def test_clean_fleet_passes(self):
        fleet, handle = self._fleet_with_vm()
        check_now(handle.vm.manager)

    def test_unattributed_host_charge_is_detected(self):
        fleet, handle = self._fleet_with_vm()
        # A charge made directly against the node bypasses every VM's
        # HostAccount ledger — exactly the leak the rule exists to catch.
        fleet.hosts[0].node(0).charge(128 * MIB)
        failure = violation(handle.vm.manager)
        assert "host-conservation" in failure.rules
        assert "hc-vm" in str(failure)

    def test_understated_ledger_is_detected(self):
        fleet, handle = self._fleet_with_vm()
        handle.vm.node.charged_bytes -= 64 * MIB  # corrupt the ledger
        failure = violation(handle.vm.manager)
        assert "host-conservation" in failure.rules

    def test_shutdown_vm_stops_counting(self):
        fleet, handle = self._fleet_with_vm()
        handle.shutdown()
        check_now(handle.vm.manager)

    def test_rule_skips_without_fleet_context(self, manager):
        # A bare manager (no fleet) must not trip the fleet-level rule.
        check_now(manager, rules=["host-conservation"])


class TestLedgerConservation:
    """Fleet-level rule: the density arbiter's committed ledger must
    equal the ground truth recomputed from alive VMs (zero drift)."""

    @staticmethod
    def _fleet_with_vms():
        from repro.cluster import Fleet, VmSpec

        sim = Simulator()
        fleet = Fleet(sim, hosts=1, nodes_per_host=1, memory_per_node=8 * GIB)
        a = fleet.provision(VmSpec(name="lc-a", region_bytes=1 * GIB, vcpus=2))
        b = fleet.provision(VmSpec(name="lc-b", region_bytes=1 * GIB, vcpus=2))
        return fleet, a, b

    def test_clean_fleet_passes(self):
        fleet, a, b = self._fleet_with_vms()
        check_now(a.vm.manager, rules=["ledger-conservation"])

    def test_overstated_arbiter_ledger_is_detected(self):
        fleet, a, b = self._fleet_with_vms()
        fleet.arbiter._committed[(0, 0)] += 64 * MIB  # corrupt the ledger
        failure = violation(a.vm.manager, rules=["ledger-conservation"])
        assert "ledger-conservation" in failure.rules

    def test_dead_vm_left_in_ledger_is_detected(self):
        fleet, a, b = self._fleet_with_vms()
        # Kill the VM behind the arbiter's back: the committed charge
        # survives with no alive VM backing it — exactly the drift a
        # crash leaves behind until reconcile() runs.
        if b.agent is not None:
            b.agent.kill()
        b.vm.kill()
        failure = violation(a.vm.manager, rules=["ledger-conservation"])
        assert "ledger-conservation" in failure.rules

    def test_reconcile_repairs_the_drift(self):
        fleet, a, b = self._fleet_with_vms()
        fleet.kill_vm("lc-b")
        check_now(a.vm.manager, rules=["ledger-conservation"])

    def test_rule_skips_without_fleet_context(self, manager):
        check_now(manager, rules=["ledger-conservation"])


def test_every_rule_has_a_seeded_violation_test():
    """Meta-test: each registered rule name appears in an assertion above."""
    import pathlib

    source = pathlib.Path(__file__).read_text(encoding="utf-8")
    for name in INVARIANTS:
        assert f'"{name}"' in source, f"no test asserts rule {name!r}"
