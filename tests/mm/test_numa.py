"""Tests for multi-node (NUMA) guest memory management.

The paper's future-work extension: boot memory and the hotplug region
split across guest NUMA nodes, per-node zones, node-local allocation
with cross-node fallback, and node-local hot(un)plug.
"""

import pytest

from repro.errors import ConfigError, OutOfMemory
from repro.mm.manager import MEMMAP_PAGES_PER_BLOCK, GuestMemoryManager
from repro.mm.mm_struct import MmStruct
from repro.mm.zone import ZoneType
from repro.units import GIB, MIB, PAGES_PER_BLOCK


@pytest.fixture
def manager():
    return GuestMemoryManager(1 * GIB, 2 * GIB, numa_nodes=2)


class TestTopology:
    def test_per_node_zones_created(self, manager):
        assert len(manager.normal_zones) == 2
        assert len(manager.movable_zones) == 2
        assert manager.zones["Normal@node0"] is manager.normal_zones[0]
        assert manager.zones["Movable@node1"] is manager.movable_zones[1]

    def test_single_node_keeps_plain_zone_names(self):
        single = GuestMemoryManager(512 * MIB, 0)
        assert "Normal" in single.zones
        assert single.zone_normal is single.normal_zones[0]

    def test_boot_blocks_split_across_nodes(self, manager):
        assert len(manager.normal_zones[0].blocks) == 4
        assert len(manager.normal_zones[1].blocks) == 4

    def test_node_of_block_layout(self, manager):
        assert manager.node_of_block(0) == 0
        assert manager.node_of_block(3) == 0
        assert manager.node_of_block(4) == 1
        # Hotplug region: first half node 0, second half node 1.
        first_hotplug = manager.boot_blocks
        assert manager.node_of_block(first_hotplug) == 0
        assert manager.node_of_block(first_hotplug + 8) == 1

    def test_uneven_split_rejected(self):
        with pytest.raises(ConfigError):
            GuestMemoryManager(384 * MIB, 0, numa_nodes=2)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigError):
            GuestMemoryManager(1 * GIB, 0, numa_nodes=0)

    def test_kernel_footprint_split_node_locally(self, manager):
        for zone in manager.normal_zones:
            kernel_pages = sum(
                pages
                for block in zone.blocks
                for owner, pages in block.owner_pages.items()
                if owner is manager.kernel
            )
            assert kernel_pages > 0


class TestZonelist:
    def test_preferred_node_first(self, manager):
        zones = manager.zonelist(True, node=1)
        assert zones[0] is manager.movable_zones[1]
        assert manager.movable_zones[0] in zones
        assert zones.index(manager.normal_zones[1]) < zones.index(
            manager.normal_zones[0]
        )

    def test_movable_zones_precede_normals(self, manager):
        zones = manager.zonelist(True, node=0)
        first_normal = next(
            i for i, z in enumerate(zones) if z.ztype is ZoneType.NORMAL
        )
        assert all(z.ztype is ZoneType.MOVABLE for z in zones[:first_normal])

    def test_unmovable_zonelist_normals_only(self, manager):
        zones = manager.zonelist(False, node=0)
        assert all(z.ztype is ZoneType.NORMAL for z in zones)
        assert zones[0] is manager.normal_zones[0]

    def test_invalid_node_rejected(self, manager):
        with pytest.raises(ConfigError):
            manager.zonelist(True, node=5)

    def test_memoized_orders_match_the_per_call_sort(self, manager):
        def per_call(movable, node):  # the order once rebuilt on every call
            def zone_node(zone):
                for n in range(manager.numa_nodes):
                    if zone is manager.normal_zones[n] or zone is manager.movable_zones[n]:
                        return n
                return 0

            order = [node] + [n for n in range(manager.numa_nodes) if n != node]
            zones = []
            for n in order:
                if movable:
                    zones.append(manager.movable_zones[n])
                zones.append(manager.normal_zones[n])
            if movable:
                zones.sort(
                    key=lambda z: (z.ztype is not ZoneType.MOVABLE, order.index(zone_node(z)))
                )
            return zones

        for movable in (True, False):
            for node in range(manager.numa_nodes):
                assert manager.zonelist(movable, node) == per_call(movable, node)
                assert manager.zonelist(movable, node) == per_call(movable, node)

    def test_mutating_a_returned_zonelist_changes_no_later_result(self, manager):
        zones = manager.zonelist(True, node=1)
        expected = list(zones)
        zones.reverse()
        zones.pop()
        assert manager.zonelist(True, node=1) == expected


class TestNodeLocalAllocation:
    def test_allocation_prefers_local_node(self, manager):
        for index in manager.hotplug_block_indices():
            manager.online_block(
                index, manager.movable_zones[manager.node_of_block(index)]
            )
        mm = MmStruct("local")
        manager.alloc_pages(mm, 1000, zones=manager.zonelist(True, node=1))
        for block in mm.block_pages:
            assert manager.node_of_block(block.index) == 1

    def test_allocation_spills_to_remote_node(self, manager):
        for index in manager.hotplug_block_indices():
            manager.online_block(
                index, manager.movable_zones[manager.node_of_block(index)]
            )
        hog = MmStruct("hog")
        local_free = manager.movable_zones[0].free_pages
        manager.alloc_pages(hog, local_free, zones=[manager.movable_zones[0]])
        mm = MmStruct("spill")
        manager.alloc_pages(mm, 1000, zones=manager.zonelist(True, node=0))
        nodes_touched = {manager.node_of_block(b.index) for b in mm.block_pages}
        assert nodes_touched <= {0, 1}
        assert 1 in nodes_touched  # spilled
        manager.check_consistency()

    def test_memmap_charged_node_locally(self, manager):
        node1_kernel_before = sum(
            manager.normal_zones[1].blocks[0].owner_pages.get(manager.kernel, 0)
            for _ in [0]
        )
        index = next(
            i
            for i in manager.hotplug_block_indices()
            if manager.node_of_block(i) == 1
        )
        kernel_node1 = lambda: sum(  # noqa: E731
            block.owner_pages.get(manager.kernel, 0)
            for block in manager.normal_zones[1].blocks
        )
        before = kernel_node1()
        manager.online_block(index, manager.movable_zones[1])
        assert kernel_node1() == before + MEMMAP_PAGES_PER_BLOCK


class TestNodeLocalReclaim:
    def test_per_node_offline(self, manager):
        indices = [
            next(
                i
                for i in manager.hotplug_block_indices()
                if manager.node_of_block(i) == node
            )
            for node in (0, 1)
        ]
        for node, index in enumerate(indices):
            manager.online_block(index, manager.movable_zones[node])
        block0 = manager.blocks[indices[0]]
        manager.offline_and_remove(block0, migrate=False)
        assert manager.movable_zones[0].blocks == []
        assert len(manager.movable_zones[1].blocks) == 1
        manager.check_consistency()

    def test_migration_within_and_across_nodes(self, manager):
        for index in manager.hotplug_block_indices():
            manager.online_block(
                index, manager.movable_zones[manager.node_of_block(index)]
            )
        mm = MmStruct("p")
        manager.alloc_pages(
            mm, 2 * PAGES_PER_BLOCK, zones=[manager.movable_zones[0]]
        )
        block = manager.movable_zones[0].blocks[0]
        outcome = manager.migrate_block_out(
            block, target_zones=manager.zonelist(True, node=0)
        )
        assert outcome.migrated_pages > 0
        assert block.is_empty
        manager.check_consistency()
