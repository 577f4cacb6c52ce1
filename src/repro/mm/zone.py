"""Memory zones.

Linux segregates physical memory into zones; the two that matter here are
``ZONE_NORMAL`` (may hold unmovable kernel data) and ``ZONE_MOVABLE``
(movable-only, guaranteeing offline can succeed — Section 2.2).  HotMem
adds ``ZONE_HOTMEM`` partition zones (Section 4): movable-only zones that
are excluded from the generic allocation path and serve exactly one
function instance each.
"""

from __future__ import annotations

import enum
from bisect import insort
from operator import attrgetter
from typing import Dict, List, Optional, Set

from repro.errors import MemoryError_, OutOfMemory
from repro.mm.block import BlockState, MemoryBlock
from repro.mm.owner import PageOwner
from repro.mm.placement import PlacementPolicy, ScatterPlacement
from repro.units import PAGES_PER_BLOCK, format_bytes, pages_to_bytes

__all__ = ["ZoneType", "Zone"]

_by_index = attrgetter("index")


class ZoneType(enum.Enum):
    """Kind of zone, deciding movability rules and allocation visibility."""

    #: May hold unmovable (kernel) allocations; fallback for movable ones.
    NORMAL = "normal"
    #: Movable-only; where hotplugged memory is onlined under vanilla.
    MOVABLE = "movable"
    #: A HotMem partition: movable-only, excluded from generic allocation.
    HOTMEM = "hotmem"


class Zone:
    """An ordered set of online memory blocks with one placement policy.

    Besides its blocks the zone keeps :attr:`usable_blocks`, the index its
    placement policy plans over: the non-isolated blocks with free pages,
    ascending by block index.  The zone updates it at each state change
    (add, detach, isolate, unisolate, an allocation that fills a block, a
    release into a full block) and does the capacity check itself, so a
    policy neither filters nor sums, and a plan walks only the blocks it
    fills.
    """

    def __init__(
        self,
        name: str,
        ztype: ZoneType,
        placement: Optional[PlacementPolicy] = None,
    ):
        self.name = name
        self.ztype = ztype
        self.placement = placement or ScatterPlacement()
        self.blocks: List[MemoryBlock] = []
        #: Non-isolated blocks with free pages, ascending by block index.
        self.usable_blocks: List[MemoryBlock] = []
        self._free_pages = 0

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    @property
    def allows_unmovable(self) -> bool:
        """Whether unmovable (kernel) allocations may land here."""
        return self.ztype is ZoneType.NORMAL

    @property
    def free_pages(self) -> int:
        """Free pages across all online blocks of the zone."""
        return self._free_pages

    @property
    def total_pages(self) -> int:
        """All pages (free or occupied) in the zone."""
        return len(self.blocks) * PAGES_PER_BLOCK

    @property
    def occupied_pages(self) -> int:
        """Occupied pages across the zone."""
        return self.total_pages - self._free_pages

    @property
    def is_empty(self) -> bool:
        """Whether no page in the zone is occupied."""
        return self.occupied_pages == 0

    def free_pages_excluding(self, exclude: Set[MemoryBlock]) -> int:
        """Free pages outside the ``exclude`` set (migration headroom)."""
        return self._free_pages - sum(
            b.free_pages for b in exclude if b.zone is self and not b.isolated
        )

    # ------------------------------------------------------------------
    # Block membership
    # ------------------------------------------------------------------
    def add_block(self, block: MemoryBlock) -> None:
        """Attach an onlined block (its pages become allocatable here)."""
        if block.zone is not None:
            raise MemoryError_(f"block {block.index} already in zone {block.zone.name}")
        if block.state is not BlockState.ONLINE:
            raise MemoryError_(f"block {block.index} is not online")
        block.zone = self
        # The list stays sorted by block index; an insort is O(n) per
        # add instead of the O(n log n) re-sort this replaced (plug
        # loops add blocks one at a time).
        insort(self.blocks, block, key=_by_index)
        if block.free_pages:
            insort(self.usable_blocks, block, key=_by_index)
        self._free_pages += block.free_pages

    def detach_block(self, block: MemoryBlock) -> None:
        """Remove an (empty) block from the zone during offlining."""
        if block.zone is not self:
            raise MemoryError_(f"block {block.index} not in zone {self.name}")
        if block.occupied_pages:
            raise MemoryError_(
                f"block {block.index} still has {block.occupied_pages} occupied pages"
            )
        self.blocks.remove(block)
        if not block.isolated:
            self.usable_blocks.remove(block)
            self._free_pages -= block.free_pages
        block.isolated = False
        block.zone = None

    # ------------------------------------------------------------------
    # Isolation (first step of offlining)
    # ------------------------------------------------------------------
    def isolate_block(self, block: MemoryBlock) -> None:
        """Hide a block's free pages from the allocator prior to offline."""
        if block.zone is not self:
            raise MemoryError_(f"block {block.index} not in zone {self.name}")
        if block.isolated:
            raise MemoryError_(f"block {block.index} already isolated")
        block.isolated = True
        if block.free_pages:
            self.usable_blocks.remove(block)
        self._free_pages -= block.free_pages

    def unisolate_block(self, block: MemoryBlock) -> None:
        """Return an isolated block's free pages to the allocator."""
        if block.zone is not self or not block.isolated:
            raise MemoryError_(f"block {block.index} is not isolated in {self.name}")
        block.isolated = False
        if block.free_pages:
            insort(self.usable_blocks, block, key=_by_index)
        self._free_pages += block.free_pages

    # ------------------------------------------------------------------
    # Allocation / free
    # ------------------------------------------------------------------
    def allocate(
        self,
        owner: PageOwner,
        pages: int,
        exclude: Optional[Set[MemoryBlock]] = None,
    ) -> Dict[MemoryBlock, int]:
        """Charge ``pages`` to ``owner`` according to the placement policy.

        Raises :class:`OutOfMemory` when the zone's blocks outside
        ``exclude`` lack free pages, leaving all state untouched.
        """
        if pages <= 0:
            raise MemoryError_(f"invalid allocation of {pages} pages")
        if not owner.movable and not self.allows_unmovable:
            raise MemoryError_(
                f"zone {self.name} cannot hold unmovable owner {owner.owner_id}"
            )
        usable = self.usable_blocks
        if exclude:
            usable = [b for b in usable if b not in exclude]
            free = self.free_pages_excluding(exclude)
        else:
            free = self._free_pages
        if free < pages:
            raise OutOfMemory(
                f"zone {self.name}: cannot allocate "
                f"{format_bytes(pages_to_bytes(pages))} "
                f"({format_bytes(pages_to_bytes(self._free_pages))} free)"
            )
        plan = self.placement.plan(usable, pages)
        for block, count in plan.items():
            block.charge(owner, count)
            owner._mirror_charge(block, count)
            if not block.free_pages:
                self.usable_blocks.remove(block)
        self._free_pages -= pages
        return plan

    def release(self, owner: PageOwner, block: MemoryBlock, pages: int) -> None:
        """Return ``pages`` of ``owner``'s pages in ``block`` to the zone.

        Pages freed inside an isolated block stay invisible to the
        allocator (they will leave with the block at hot-remove).
        """
        if block.zone is not self:
            raise MemoryError_(f"block {block.index} not in zone {self.name}")
        block.uncharge(owner, pages)
        owner._mirror_uncharge(block, pages)
        if not block.isolated:
            if block.free_pages == pages:
                insort(self.usable_blocks, block, key=_by_index)
            self._free_pages += pages

    def __repr__(self) -> str:
        return (
            f"<Zone {self.name} ({self.ztype.value}) blocks={len(self.blocks)} "
            f"free={format_bytes(pages_to_bytes(self._free_pages))}>"
        )
