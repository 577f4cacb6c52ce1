"""Physical page placement policies.

The key indirect cause of slow vanilla unplug (Section 2.2) is *where* the
allocator places pages: Linux serves page faults from mixed per-zone free
lists, scattering each process's footprint across many memory blocks and
interleaving it with other processes.  We model that with pluggable
placement policies:

* :class:`ScatterPlacement` (default) — chunked round-robin over all blocks
  with free pages, starting from a rotating cursor.  Successive allocations
  by different processes interleave across blocks, reproducing Figure 2.
* :class:`SequentialPlacement` — first-fit lowest block; the best case for
  vanilla unplug (used as an ablation bound).
* :class:`RandomPlacement` — uniformly random block per chunk.

A policy *plans* an allocation over the zone's usable-block index (its
non-isolated blocks with free pages, ascending by block index, kept up to
date by the zone at every state change); the zone then applies the plan.
The zone also owns the capacity check, so a plan never falls short, and
scatter costs O(blocks it visits), not O(blocks in the zone).  Plans are
deterministic given the policy state and RNG stream.
"""

from __future__ import annotations

import random  # Random is only referenced as a type; draws go through make_rng
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mm.block import MemoryBlock

__all__ = [
    "PlacementPolicy",
    "ScatterPlacement",
    "SequentialPlacement",
    "RandomPlacement",
    "make_placement",
]

#: Allocation chunk used by scatter/random policies (256 pages = 1 MiB).
#: Real free lists hand out runs of pages, not single pages; chunking also
#: keeps planning cost low for multi-GiB allocations.
DEFAULT_CHUNK_PAGES = 256


class PlacementPolicy:
    """Strategy deciding which blocks serve an allocation."""

    name = "abstract"

    def plan(
        self, usable: List["MemoryBlock"], pages: int
    ) -> Dict["MemoryBlock", int]:
        """Distribute ``pages`` over the ``usable`` blocks.

        ``usable`` lists blocks with free pages in ascending block order,
        and the caller guarantees they hold at least ``pages`` free pages.
        Returns a block → page-count map.  Must not mutate the blocks.
        """
        raise NotImplementedError


class SequentialPlacement(PlacementPolicy):
    """First-fit: fill the lowest-index block completely before the next."""

    name = "sequential"

    def plan(self, usable, pages):
        plan: Dict["MemoryBlock", int] = {}
        remaining = pages
        for block in usable:
            if remaining == 0:
                break
            take = min(block.free_pages, remaining)
            plan[block] = take
            remaining -= take
        return plan


class ScatterPlacement(PlacementPolicy):
    """Chunked round-robin with a rotating cursor.

    Models the steady-state interleaving produced by Linux free lists: the
    cursor persists across allocations, so consecutive allocations by
    different owners land on different blocks.
    """

    name = "scatter"

    def __init__(self, chunk_pages: int = DEFAULT_CHUNK_PAGES):
        if chunk_pages <= 0:
            raise ValueError("chunk_pages must be positive")
        self.chunk_pages = chunk_pages
        self._cursor = 0

    def plan(self, usable, pages):
        plan: Dict["MemoryBlock", int] = {}
        chunk = self.chunk_pages
        count = len(usable)
        index = self._cursor % count
        remaining = pages
        while remaining > 0:
            block = usable[index]
            taken = plan.get(block, 0)
            free = block.free_pages - taken
            if free > 0:
                take = min(chunk, free, remaining)
                plan[block] = taken + take
                remaining -= take
            index += 1
            if index == count:
                index = 0
        self._cursor = index
        return plan


class RandomPlacement(PlacementPolicy):
    """Uniformly random block per chunk (worst-case fragmentation)."""

    name = "random"

    def __init__(
        self, rng: Optional[random.Random] = None, chunk_pages: int = DEFAULT_CHUNK_PAGES
    ):
        # Default to the seeded stream machinery so even an unconfigured
        # policy stays deterministic and auditable (seed 0, named stream).
        self.rng = rng if rng is not None else make_rng(0, "placement/random")
        self.chunk_pages = chunk_pages

    def plan(self, usable, pages):
        plan: Dict["MemoryBlock", int] = {}
        candidates = list(usable)
        remaining = pages
        while remaining > 0:
            block = self.rng.choice(candidates)
            taken = plan.get(block, 0)
            take = min(self.chunk_pages, block.free_pages - taken, remaining)
            plan[block] = taken + take
            remaining -= take
            if taken + take == block.free_pages:
                candidates.remove(block)
        return plan


def make_placement(
    name: str, rng: Optional[random.Random] = None
) -> PlacementPolicy:
    """Factory used by configuration objects (``scatter``/``sequential``/``random``)."""
    if name == ScatterPlacement.name:
        return ScatterPlacement()
    if name == SequentialPlacement.name:
        return SequentialPlacement()
    if name == RandomPlacement.name:
        return RandomPlacement(rng=rng)
    raise ValueError(f"unknown placement policy {name!r}")
