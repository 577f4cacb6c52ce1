"""Unit tests for placement policies.

A policy plans over a zone's usable-block index, and the zone checks
capacity first, so full, isolated, excluded and too-small blocks are
exercised through a :class:`Zone`.
"""

import random

import pytest

from repro.errors import OutOfMemory
from repro.mm.block import BlockState, MemoryBlock
from repro.mm.owner import PageOwner
from repro.mm.placement import (
    RandomPlacement,
    ScatterPlacement,
    SequentialPlacement,
    make_placement,
)
from repro.mm.zone import Zone, ZoneType
from repro.units import PAGES_PER_BLOCK


def make_blocks(count, free=PAGES_PER_BLOCK):
    blocks = []
    for i in range(count):
        block = MemoryBlock(i)
        block.state = BlockState.ONLINE
        block.free_pages = free
        blocks.append(block)
    return blocks


def make_zone(policy, count, free=PAGES_PER_BLOCK):
    zone = Zone("Z", ZoneType.MOVABLE, policy)
    for block in make_blocks(count, free):
        zone.add_block(block)
    return zone


class TestSequential:
    def test_fills_lowest_block_first(self):
        blocks = make_blocks(3)
        plan = SequentialPlacement().plan(blocks, PAGES_PER_BLOCK + 10)
        assert plan == {blocks[0]: PAGES_PER_BLOCK, blocks[1]: 10}

    def test_exact_fit(self):
        blocks = make_blocks(2)
        plan = SequentialPlacement().plan(blocks, PAGES_PER_BLOCK)
        assert plan == {blocks[0]: PAGES_PER_BLOCK}

    def test_insufficient_raises_out_of_memory(self):
        zone = make_zone(SequentialPlacement(), 1)
        with pytest.raises(OutOfMemory):
            zone.allocate(PageOwner("p"), PAGES_PER_BLOCK + 1)

    def test_skips_full_blocks(self):
        zone = make_zone(SequentialPlacement(), 2)
        zone.allocate(PageOwner("filler"), PAGES_PER_BLOCK)
        plan = zone.allocate(PageOwner("p"), 10)
        assert plan == {zone.blocks[1]: 10}

    def test_respects_exclude(self):
        zone = make_zone(SequentialPlacement(), 2)
        plan = zone.allocate(PageOwner("p"), 10, exclude={zone.blocks[0]})
        assert plan == {zone.blocks[1]: 10}

    def test_skips_isolated_blocks(self):
        zone = make_zone(SequentialPlacement(), 2)
        zone.isolate_block(zone.blocks[0])
        plan = zone.allocate(PageOwner("p"), 10)
        assert plan == {zone.blocks[1]: 10}


class TestScatter:
    def test_spreads_over_all_blocks(self):
        blocks = make_blocks(4)
        plan = ScatterPlacement(chunk_pages=256).plan(blocks, 4 * 256)
        assert len(plan) == 4
        assert all(count == 256 for count in plan.values())

    def test_cursor_rotates_between_allocations(self):
        blocks = make_blocks(4)
        policy = ScatterPlacement(chunk_pages=256)
        first = policy.plan(blocks, 256)
        second = policy.plan(blocks, 256)
        assert list(first) != list(second)

    def test_total_matches_request(self):
        blocks = make_blocks(5)
        plan = ScatterPlacement().plan(blocks, 12345)
        assert sum(plan.values()) == 12345

    def test_never_exceeds_block_free(self):
        blocks = make_blocks(3, free=100)
        plan = ScatterPlacement(chunk_pages=256).plan(blocks, 300)
        assert all(plan[b] <= 100 for b in plan)

    def test_insufficient_raises_out_of_memory(self):
        zone = make_zone(ScatterPlacement(), 2, free=10)
        with pytest.raises(OutOfMemory):
            zone.allocate(PageOwner("p"), 21)

    def test_no_usable_blocks_raises_out_of_memory(self):
        zone = make_zone(ScatterPlacement(), 2, free=0)
        with pytest.raises(OutOfMemory):
            zone.allocate(PageOwner("p"), 1)

    def test_interleaving_two_owners(self):
        """Two successive allocations both touch most blocks — the
        behaviour that penalizes vanilla unplug (Figure 2)."""
        blocks = make_blocks(8)
        policy = ScatterPlacement(chunk_pages=256)
        plan_a = policy.plan(blocks, 8 * 1024)
        for block, pages in plan_a.items():
            block.free_pages -= pages
        plan_b = policy.plan(blocks, 8 * 1024)
        shared = set(plan_a) & set(plan_b)
        assert len(shared) >= 4

    def test_invalid_chunk_rejected(self):
        with pytest.raises(ValueError):
            ScatterPlacement(chunk_pages=0)


class TestRandom:
    def test_deterministic_for_seeded_rng(self):
        blocks_a = make_blocks(4)
        blocks_b = make_blocks(4)
        plan_a = RandomPlacement(rng=random.Random(7)).plan(blocks_a, 5000)
        plan_b = RandomPlacement(rng=random.Random(7)).plan(blocks_b, 5000)
        assert {b.index: v for b, v in plan_a.items()} == {
            b.index: v for b, v in plan_b.items()
        }

    def test_total_matches_request(self):
        blocks = make_blocks(4)
        plan = RandomPlacement(rng=random.Random(1)).plan(blocks, 7777)
        assert sum(plan.values()) == 7777

    def test_insufficient_raises_out_of_memory(self):
        zone = make_zone(RandomPlacement(rng=random.Random(1)), 1, free=5)
        with pytest.raises(OutOfMemory):
            zone.allocate(PageOwner("p"), 6)


class TestFactory:
    @pytest.mark.parametrize("name", ["scatter", "sequential", "random"])
    def test_known_names(self, name):
        assert make_placement(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_placement("bogus")
