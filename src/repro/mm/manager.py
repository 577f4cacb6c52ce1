"""The guest memory manager: zones, allocation, migration, hot(un)plug.

This is the state machine whose behaviour determines everything the paper
measures.  It is deliberately *state-only*: operations return page counts
(allocated, migrated, zeroed) and the timing layers above (virtio driver,
fault handler) convert those counts into CPU-nanoseconds with the
:class:`~repro.sim.costs.CostModel` and charge them to the right vCPU.

Guest physical memory layout::

    [ boot blocks (ZONE_NORMAL) | virtio-mem device region (hotpluggable) ]

Boot memory holds the kernel (including the ``memmap`` metadata for the
maximum hotpluggable size, as in Section 5.1) and serves as fallback for
movable allocations.  Hotplugged blocks are onlined into ``ZONE_MOVABLE``
under vanilla, or into a HotMem partition zone under HotMem.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, HotplugError, MemoryError_, OfflineFailed, OutOfMemory
from repro.mm.block import BlockState, MemoryBlock
from repro.mm.owner import KernelOwner, PageOwner
from repro.mm.placement import make_placement
from repro.mm.zone import Zone, ZoneType
from repro.units import (
    MEMORY_BLOCK_SIZE,
    PAGES_PER_BLOCK,
    bytes_to_blocks,
    format_bytes,
    pages_to_bytes,
)

__all__ = ["GuestMemoryManager", "MigrationOutcome", "MEMMAP_PAGES_PER_BLOCK"]

#: struct-page metadata per 128 MiB block: 32768 pages × 64 B = 2 MiB = 512 pages.
MEMMAP_PAGES_PER_BLOCK = (PAGES_PER_BLOCK * 64) // 4096


@dataclass
class MigrationOutcome:
    """Result of emptying a block prior to offlining it."""

    #: Occupied pages that had to be migrated out of the block.
    migrated_pages: int
    #: Blocks that received migrated pages.
    target_blocks: int


class GuestMemoryManager:
    """Zones plus the physical block map of one guest."""

    def __init__(
        self,
        boot_memory_bytes: int,
        hotplug_region_bytes: int,
        placement: str = "scatter",
        rng=None,
        kernel_extra_pages: int = 8192,
        numa_nodes: int = 1,
    ):
        """Create the guest physical map.

        Parameters
        ----------
        boot_memory_bytes:
            Memory present at boot (``ZONE_NORMAL``); must be a multiple of
            the 128 MiB block size.
        hotplug_region_bytes:
            Size of the virtio-mem device region (maximum hotpluggable).
        placement:
            Placement policy name for the generic zones
            (``scatter``/``sequential``/``random``).
        kernel_extra_pages:
            Unmovable kernel footprint beyond the ``memmap`` (slab, text,
            ...); 8192 pages = 32 MiB by default (split across nodes).
        numa_nodes:
            Guest NUMA nodes (the paper's future-work extension; HotMem
            itself stays single-node as in the paper).  Boot memory and
            the hotplug region are split evenly; each node gets its own
            ``Normal``/``Movable`` zones and zonelists fall back to the
            other nodes in distance order.
        """
        if boot_memory_bytes <= 0 or boot_memory_bytes % MEMORY_BLOCK_SIZE:
            raise ConfigError(
                f"boot memory must be a positive multiple of 128MiB, "
                f"got {format_bytes(boot_memory_bytes)}"
            )
        if hotplug_region_bytes < 0 or hotplug_region_bytes % MEMORY_BLOCK_SIZE:
            raise ConfigError(
                f"hotplug region must be a non-negative multiple of 128MiB, "
                f"got {format_bytes(hotplug_region_bytes)}"
            )
        if numa_nodes <= 0:
            raise ConfigError(f"numa_nodes must be positive, got {numa_nodes}")
        self.boot_blocks = bytes_to_blocks(boot_memory_bytes)
        self.hotplug_blocks = bytes_to_blocks(hotplug_region_bytes)
        if self.boot_blocks % numa_nodes or self.hotplug_blocks % numa_nodes:
            raise ConfigError(
                "boot and hotplug blocks must split evenly across "
                f"{numa_nodes} NUMA nodes"
            )
        self.numa_nodes = numa_nodes
        total_blocks = self.boot_blocks + self.hotplug_blocks
        self.blocks: List[MemoryBlock] = [MemoryBlock(i) for i in range(total_blocks)]

        self.kernel = KernelOwner()
        #: Blocks withdrawn from service after repeatedly failing to
        #: offline (insertion-ordered; block → reason).  Quarantined
        #: blocks stay ONLINE but isolated, so the allocator never
        #: touches them and their free pages are never double-counted.
        self._quarantined: Dict[MemoryBlock, str] = {}
        self.zones: Dict[str, Zone] = {}
        #: Memoized :meth:`zonelist` orders, keyed by ``(movable, node)``.
        self._zonelists: Dict[Tuple[bool, int], Tuple[Zone, ...]] = {}
        suffix = lambda n: "" if numa_nodes == 1 else f"@node{n}"  # noqa: E731
        self.normal_zones: List[Zone] = [
            self._add_zone(
                Zone(f"Normal{suffix(n)}", ZoneType.NORMAL, make_placement(placement, rng))
            )
            for n in range(numa_nodes)
        ]
        self.movable_zones: List[Zone] = [
            self._add_zone(
                Zone(f"Movable{suffix(n)}", ZoneType.MOVABLE, make_placement(placement, rng))
            )
            for n in range(numa_nodes)
        ]

        # Online the boot blocks into each node's ZONE_NORMAL.
        for index, block in enumerate(self.blocks[: self.boot_blocks]):
            block.state = BlockState.ONLINE
            block.free_pages = PAGES_PER_BLOCK
            self.normal_zones[self.node_of_block(index)].add_block(block)

        # Boot-time kernel footprint: memmap for the boot blocks plus a
        # fixed overhead, charged node-locally.  Metadata for hotplugged
        # blocks is charged when they are added (mirroring Linux hot-add).
        per_node_kernel_pages = (
            self.boot_blocks // numa_nodes * MEMMAP_PAGES_PER_BLOCK
            + kernel_extra_pages // numa_nodes
        )
        for zone in self.normal_zones:
            zone.allocate(self.kernel, per_node_kernel_pages)

    # ------------------------------------------------------------------
    # NUMA topology
    # ------------------------------------------------------------------
    @property
    def zone_normal(self) -> Zone:
        """Node 0's ``ZONE_NORMAL`` (the whole zone on single-node guests)."""
        return self.normal_zones[0]

    @property
    def zone_movable(self) -> Zone:
        """Node 0's ``ZONE_MOVABLE`` (the whole zone on single-node guests)."""
        return self.movable_zones[0]

    def node_of_block(self, index: int) -> int:
        """The NUMA node a physical block belongs to."""
        if index < self.boot_blocks:
            return index // (self.boot_blocks // self.numa_nodes)
        offset = index - self.boot_blocks
        return offset // (self.hotplug_blocks // self.numa_nodes)

    # ------------------------------------------------------------------
    # Zone management
    # ------------------------------------------------------------------
    def _add_zone(self, zone: Zone) -> Zone:
        if zone.name in self.zones:
            raise ConfigError(f"duplicate zone {zone.name}")
        self.zones[zone.name] = zone
        return zone

    def register_zone(self, zone: Zone) -> Zone:
        """Register an extra zone (used by HotMem to add partition zones)."""
        return self._add_zone(zone)

    def zonelist(self, movable: bool = True, node: int = 0) -> List[Zone]:
        """Generic allocation fallback order (HotMem zones excluded).

        Movable data prefers ``ZONE_MOVABLE`` and falls back to
        ``ZONE_NORMAL`` (Section 2.2); on NUMA guests the preferred
        node's zones come first, then the remaining nodes' in id order,
        with every node's movable zone ahead of any ``ZONE_NORMAL`` (Linux
        prefers any movable memory over dipping into it).  The generic
        zones are fixed at construction, so each order is computed once;
        callers get a fresh list.
        """
        zones = self._zonelists.get((movable, node))
        if zones is None:
            if not 0 <= node < self.numa_nodes:
                raise ConfigError(f"invalid NUMA node {node}")
            order = [node] + [n for n in range(self.numa_nodes) if n != node]
            movables = [self.movable_zones[n] for n in order] if movable else []
            zones = self._zonelists[(movable, node)] = tuple(
                movables + [self.normal_zones[n] for n in order]
            )
        return list(zones)

    # ------------------------------------------------------------------
    # Allocation / free
    # ------------------------------------------------------------------
    def alloc_pages(
        self,
        owner: PageOwner,
        pages: int,
        zones: Optional[Sequence[Zone]] = None,
    ) -> int:
        """Allocate ``pages`` for ``owner`` from ``zones`` (or the zonelist).

        The allocation may be split across the zones in order.  Raises
        :class:`OutOfMemory` (without mutating anything) when the zones
        cannot satisfy it.
        """
        if pages <= 0:
            raise MemoryError_(f"invalid allocation of {pages} pages")
        zone_order = list(zones) if zones is not None else self.zonelist(owner.movable)
        available = sum(z.free_pages for z in zone_order)
        if available < pages:
            raise OutOfMemory(
                f"cannot allocate {format_bytes(pages_to_bytes(pages))} for "
                f"{owner.owner_id}: only {format_bytes(pages_to_bytes(available))} "
                f"free in {[z.name for z in zone_order]}"
            )
        remaining = pages
        for zone in zone_order:
            if remaining == 0:
                break
            take = min(remaining, zone.free_pages)
            if take > 0:
                zone.allocate(owner, take)
                remaining -= take
        assert remaining == 0
        return pages

    def free_pages(self, owner: PageOwner, pages: int) -> int:
        """Release ``pages`` of ``owner``'s pages (highest blocks first)."""
        if pages <= 0:
            raise MemoryError_(f"invalid free of {pages} pages")
        if pages > owner.total_pages:
            raise MemoryError_(
                f"{owner.owner_id} owns {owner.total_pages} pages, cannot free {pages}"
            )
        remaining = pages
        for block in sorted(
            owner.block_pages, key=attrgetter("index"), reverse=True
        ):
            if remaining == 0:
                break
            held = owner.block_pages[block]
            give = min(held, remaining)
            block.zone.release(owner, block, give)
            remaining -= give
        return pages

    def free_all(self, owner: PageOwner) -> int:
        """Release every page of ``owner`` (process exit); returns the count."""
        total = owner.total_pages
        if total:
            self.free_pages(owner, total)
        return total

    # ------------------------------------------------------------------
    # Hot(un)plug state transitions
    # ------------------------------------------------------------------
    def hotplug_block_indices(self) -> range:
        """Physical block indices belonging to the virtio-mem device region."""
        return range(self.boot_blocks, self.boot_blocks + self.hotplug_blocks)

    def online_block(self, index: int, zone: Zone) -> MemoryBlock:
        """Hot-add + online one device block into ``zone``.

        Charges the block's ``memmap`` metadata to the kernel (in
        ``ZONE_NORMAL``), makes all the block's pages allocatable in the
        target zone, and returns the block.
        """
        block = self.blocks[index]
        if index not in self.hotplug_block_indices():
            raise HotplugError(
                f"block {index} is boot memory, not hotpluggable",
                block_index=index,
            )
        if block.state is not BlockState.ABSENT:
            raise HotplugError(
                f"block {index} already {block.state.value}", block_index=index
            )
        # memmap first: if ZONE_NORMAL cannot hold the metadata, hot-add
        # fails.  Charged node-locally, falling back to the other nodes.
        node = self.node_of_block(index)
        normal_order = [self.normal_zones[node]] + [
            z for n, z in enumerate(self.normal_zones) if n != node
        ]
        self.alloc_pages(self.kernel, MEMMAP_PAGES_PER_BLOCK, zones=normal_order)
        block.state = BlockState.ONLINE
        block.free_pages = PAGES_PER_BLOCK
        zone.add_block(block)
        return block

    def isolate_block(self, block: MemoryBlock) -> None:
        """Hide a block's free pages from the allocator (pre-offline)."""
        if block.zone is None:
            raise OfflineFailed(
                f"block {block.index} is not in any zone",
                block_index=block.index,
            )
        block.zone.isolate_block(block)

    def unisolate_block(self, block: MemoryBlock) -> None:
        """Abort an offline attempt: make the block allocatable again."""
        if block.zone is None:
            raise OfflineFailed(
                f"block {block.index} is not in any zone",
                block_index=block.index,
            )
        if block in self._quarantined:
            raise OfflineFailed(
                f"block {block.index} is quarantined "
                f"({self._quarantined[block]}); release it first",
                block_index=block.index,
            )
        block.zone.unisolate_block(block)

    # ------------------------------------------------------------------
    # Quarantine (graceful degradation for blocks that will not offline)
    # ------------------------------------------------------------------
    def quarantine_block(self, block: MemoryBlock, reason: str = "") -> None:
        """Withdraw a block from service after repeated offline failures.

        The block stays ONLINE (its memory is still charged to the host)
        but is isolated, so the placement policies never allocate from
        it and its free pages drop out of the zone's free counter.  The
        deferred-reclamation machinery gives up on quarantined blocks;
        :meth:`release_quarantine` returns one to service.  Idempotent.
        """
        if block.state is not BlockState.ONLINE or block.zone is None:
            raise OfflineFailed(
                f"cannot quarantine block {block.index}: "
                f"state={block.state.value}",
                block_index=block.index,
            )
        if block in self._quarantined:
            return
        if not block.isolated:
            block.zone.isolate_block(block)
        self._quarantined[block] = reason or "offline-failures"

    def release_quarantine(self, block: MemoryBlock) -> None:
        """Return a quarantined block to allocator service."""
        if block not in self._quarantined:
            raise OfflineFailed(
                f"block {block.index} is not quarantined",
                block_index=block.index,
            )
        del self._quarantined[block]
        block.zone.unisolate_block(block)

    def is_quarantined(self, block: MemoryBlock) -> bool:
        """Whether ``block`` is currently quarantined."""
        return block in self._quarantined

    @property
    def quarantined_blocks(self) -> List[MemoryBlock]:
        """Quarantined blocks in quarantine order."""
        return list(self._quarantined)

    def migrate_block_out(
        self, block: MemoryBlock, target_zones: Optional[Sequence[Zone]] = None
    ) -> MigrationOutcome:
        """Empty ``block`` by migrating its occupied pages elsewhere.

        Raises :class:`OfflineFailed` if the block holds unmovable pages or
        the target zones lack headroom.  On success the block is empty and
        every owner's mirror reflects the new placement.
        """
        if block.state is not BlockState.ONLINE:
            raise OfflineFailed(
                f"block {block.index} is {block.state.value}",
                block_index=block.index,
            )
        if block.has_unmovable:
            raise OfflineFailed(
                f"block {block.index} holds unmovable kernel pages",
                block_index=block.index,
            )
        occupied = block.occupied_pages
        if occupied == 0:
            return MigrationOutcome(migrated_pages=0, target_blocks=0)
        zone_order = (
            list(target_zones) if target_zones is not None else self.zonelist(True)
        )
        exclude = {block}
        headroom = sum(z.free_pages_excluding(exclude) for z in zone_order)
        if headroom < occupied:
            raise OfflineFailed(
                f"block {block.index}: need to migrate {occupied} pages but only "
                f"{headroom} pages of headroom in {[z.name for z in zone_order]}",
                block_index=block.index,
            )
        touched_blocks = set()
        for owner, pages in list(block.owner_pages.items()):
            remaining = pages
            for zone in zone_order:
                if remaining == 0:
                    break
                take = min(remaining, zone.free_pages_excluding(exclude))
                if take > 0:
                    plan = zone.allocate(owner, take, exclude=exclude)
                    touched_blocks.update(plan)
                    remaining -= take
            assert remaining == 0
            block.zone.release(owner, block, pages)
        return MigrationOutcome(
            migrated_pages=occupied, target_blocks=len(touched_blocks)
        )

    def offline_and_remove(
        self,
        block: MemoryBlock,
        migrate: bool = True,
        target_zones: Optional[Sequence[Zone]] = None,
    ) -> MigrationOutcome:
        """Offline ``block`` and hot-remove it (back to ``ABSENT``).

        With ``migrate=False`` the block must already be empty (the HotMem
        fast path); otherwise occupied pages are migrated out first (the
        vanilla path).  The block's ``memmap`` metadata is released.
        """
        if block.state is not BlockState.ONLINE:
            raise OfflineFailed(
                f"block {block.index} is {block.state.value}",
                block_index=block.index,
            )
        if block in self._quarantined:
            raise OfflineFailed(
                f"block {block.index} is quarantined "
                f"({self._quarantined[block]})",
                block_index=block.index,
            )
        if migrate:
            outcome = self.migrate_block_out(block, target_zones)
        else:
            if block.occupied_pages:
                raise OfflineFailed(
                    f"block {block.index} has {block.occupied_pages} occupied pages "
                    f"and migrate=False",
                    block_index=block.index,
                )
            outcome = MigrationOutcome(migrated_pages=0, target_blocks=0)
        block.zone.detach_block(block)
        block.state = BlockState.ABSENT
        block.free_pages = 0
        self.free_pages(self.kernel, MEMMAP_PAGES_PER_BLOCK)
        return outcome

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def online_blocks_in(self, zone: Zone) -> List[MemoryBlock]:
        """The zone's online blocks, ascending by physical index."""
        return list(zone.blocks)

    @property
    def online_bytes(self) -> int:
        """Memory currently visible to the guest (boot + plugged)."""
        online = sum(1 for b in self.blocks if b.state is BlockState.ONLINE)
        return online * MEMORY_BLOCK_SIZE

    @property
    def plugged_bytes(self) -> int:
        """Hotplugged memory currently online (excludes boot memory)."""
        online = sum(
            1
            for i in self.hotplug_block_indices()
            if self.blocks[i].state is BlockState.ONLINE
        )
        return online * MEMORY_BLOCK_SIZE

    @property
    def free_pages_total(self) -> int:
        """Free pages across every zone (including HotMem partitions)."""
        return sum(zone.free_pages for zone in self.zones.values())

    def check_consistency(self) -> None:
        """Verify cross-structure invariants (used by tests and debugging).

        Delegates to the invariant registry in
        :mod:`repro.analysis.invariants` — the same named rules the
        runtime sanitizer sweeps at checkpoints — and raises
        :class:`~repro.analysis.invariants.InvariantViolation` (a
        :class:`MemoryError_`) carrying a per-block report when any
        structure disagrees.
        """
        from repro.analysis.invariants import check_now  # local: analysis imports mm

        check_now(self, hotmem=getattr(self, "_hotmem_context", None))

    def __repr__(self) -> str:
        return (
            f"<GuestMemoryManager online={format_bytes(self.online_bytes)} "
            f"zones={list(self.zones)}>"
        )
