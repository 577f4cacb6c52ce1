"""Zones' usable-block index against from-scratch placement.

Before zones kept an index, every plan filtered the zone's blocks, summed
their free pages and returned ``None`` when they fell short.  The
``Scratch*`` policies below keep that ``plan()`` unchanged, and
:class:`ScratchZone` applies it the way ``Zone.allocate`` did.  Hypothesis
drives a manager built from them and a regular one through the same
random operations: both must make equal plans, keep equal scatter cursors
and RNG states, leave every block with equal free and per-owner pages,
and raise ``OutOfMemory`` (or any other error) on the same steps.  After
every step each index must also equal its from-scratch filter: a stale
index would let a scatter plan spin on blocks that cannot fill it.
"""

import random
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.mm.manager as manager_module
from repro.errors import MemoryError_, OutOfMemory
from repro.mm.block import BlockState
from repro.mm.manager import GuestMemoryManager
from repro.mm.owner import PageOwner
from repro.mm.placement import DEFAULT_CHUNK_PAGES
from repro.mm.zone import Zone
from repro.units import MIB, PAGES_PER_BLOCK


def _usable(blocks, exclude):
    excluded = exclude or set()
    return [
        b
        for b in blocks
        if b.free_pages > 0 and not b.isolated and b not in excluded
    ]


class ScratchSequential:
    name = "sequential"

    def plan(self, blocks, pages, exclude=None):
        usable = _usable(blocks, exclude)
        plan = {}
        remaining = pages
        for block in usable:
            if remaining == 0:
                break
            take = min(block.free_pages, remaining)
            plan[block] = take
            remaining -= take
        if remaining > 0:
            return None
        return plan


class ScratchScatter:
    name = "scatter"

    def __init__(self, chunk_pages=DEFAULT_CHUNK_PAGES):
        self.chunk_pages = chunk_pages
        self._cursor = 0

    def plan(self, blocks, pages, exclude=None):
        usable = _usable(blocks, exclude)
        if not usable:
            return None
        if sum(b.free_pages for b in usable) < pages:
            return None
        plan = {}
        remaining_free = {b: b.free_pages for b in usable}
        remaining = pages
        index = self._cursor % len(usable)
        while remaining > 0:
            block = usable[index]
            free = remaining_free[block]
            if free > 0:
                take = min(self.chunk_pages, free, remaining)
                plan[block] = plan.get(block, 0) + take
                remaining_free[block] = free - take
                remaining -= take
            index = (index + 1) % len(usable)
        self._cursor = index
        return plan


class ScratchRandom:
    name = "random"

    def __init__(self, rng, chunk_pages=DEFAULT_CHUNK_PAGES):
        self.rng = rng
        self.chunk_pages = chunk_pages

    def plan(self, blocks, pages, exclude=None):
        usable = _usable(blocks, exclude)
        if sum(b.free_pages for b in usable) < pages:
            return None
        plan = {}
        remaining_free = {b: b.free_pages for b in usable}
        candidates = list(usable)
        remaining = pages
        while remaining > 0:
            block = self.rng.choice(candidates)
            free = remaining_free[block]
            take = min(self.chunk_pages, free, remaining)
            if take > 0:
                plan[block] = plan.get(block, 0) + take
                remaining_free[block] = free - take
                remaining -= take
            if remaining_free[block] == 0:
                candidates.remove(block)
        return plan


def make_scratch_placement(name, rng=None):
    if name == "scatter":
        return ScratchScatter()
    if name == "sequential":
        return ScratchSequential()
    return ScratchRandom(rng)


class ScratchZone(Zone):
    """A zone whose allocations plan from scratch over all its blocks."""

    def allocate(self, owner, pages, exclude=None):
        if pages <= 0:
            raise MemoryError_(f"invalid allocation of {pages} pages")
        if not owner.movable and not self.allows_unmovable:
            raise MemoryError_(f"zone {self.name} cannot hold {owner.owner_id}")
        plan = self.placement.plan(self.blocks, pages, exclude)
        if plan is None:
            raise OutOfMemory(f"zone {self.name}: no plan for {pages} pages")
        for block, count in plan.items():
            block.charge(owner, count)
            owner._mirror_charge(block, count)
            self._free_pages -= count
            # The plan never reads the index; it is kept for the sanitizer.
            if not block.free_pages:
                self.usable_blocks.remove(block)
        return plan


BOOT, REGION = 256 * MIB, 512 * MIB
#: Owners 0-2 are movable processes; index 3 stands for the kernel.
OWNERS = 3


def build(placement, numa_nodes, seed, scratch):
    kwargs = dict(placement=placement, rng=random.Random(seed), numa_nodes=numa_nodes)
    if not scratch:
        return GuestMemoryManager(BOOT, REGION, **kwargs)
    with mock.patch.object(manager_module, "Zone", ScratchZone), mock.patch.object(
        manager_module, "make_placement", make_scratch_placement
    ):
        return GuestMemoryManager(BOOT, REGION, **kwargs)


def _pick(candidates, arg):
    return candidates[arg % len(candidates)] if candidates else None


def apply(manager, owners, op):
    """Run one operation; returns its plan/result or the error's type."""
    kind, arg, pages = op[:3]
    blocks = manager.blocks
    try:
        if kind == "alloc":
            owner = manager.kernel if arg % (OWNERS + 1) == OWNERS else owners[arg % OWNERS]
            return manager.alloc_pages(owner, pages)
        if kind == "fill":  # fill every block of one zone
            zone = _pick(list(manager.zones.values()), arg)
            if zone.free_pages:
                return manager.alloc_pages(owners[arg % OWNERS], zone.free_pages, [zone])
            return None
        if kind == "alloc_excluding":
            zone = _pick(list(manager.zones.values()), arg)
            mask = op[3]
            exclude = {b for i, b in enumerate(zone.blocks) if mask >> i & 1}
            plan = zone.allocate(owners[arg % OWNERS], pages, exclude=exclude)
            return {b.index: count for b, count in plan.items()}
        if kind == "free":
            owner = owners[arg % OWNERS]
            if owner.total_pages:
                return manager.free_pages(owner, min(pages, owner.total_pages))
            return None
        if kind == "isolate":
            block = _pick([b for b in blocks if b.zone and not b.isolated], arg)
            return block and manager.isolate_block(block)
        if kind == "unisolate":
            block = _pick(
                [b for b in blocks if b.isolated and not manager.is_quarantined(b)], arg
            )
            return block and manager.unisolate_block(block)
        if kind == "quarantine":
            block = _pick(
                [b for b in blocks if b.zone and not manager.is_quarantined(b)], arg
            )
            return block and manager.quarantine_block(block)
        if kind == "release":
            block = _pick(manager.quarantined_blocks, arg)
            return block and manager.release_quarantine(block)
        hotplug = [blocks[i] for i in manager.hotplug_block_indices()]
        if kind == "online":
            block = _pick([b for b in hotplug if b.state is BlockState.ABSENT], arg)
            if block is None:
                return None
            zone = manager.movable_zones[manager.node_of_block(block.index)]
            return manager.online_block(block.index, zone).index
        assert kind == "offline"
        block = _pick([b for b in hotplug if b.state is BlockState.ONLINE], arg)
        return block and manager.offline_and_remove(block)
    except MemoryError_ as error:
        return type(error)


def _policy_state(policy):
    if hasattr(policy, "_cursor"):
        return policy._cursor
    if hasattr(policy, "rng"):
        return policy.rng.getstate()
    return None


def snapshot(manager):
    zones = [
        (name, [b.index for b in z.blocks], z.free_pages, _policy_state(z.placement))
        for name, z in manager.zones.items()
    ]
    blocks = [
        (
            b.index,
            b.state,
            b.isolated,
            b.free_pages,
            sorted((o.owner_id, n) for o, n in b.owner_pages.items()),
        )
        for b in manager.blocks
    ]
    return zones, blocks, [b.index for b in manager.quarantined_blocks]


_pages = st.one_of(st.integers(1, 600), st.integers(1, 2 * PAGES_PER_BLOCK))
_arg = st.integers(0, 63)
_op = st.one_of(
    st.tuples(st.sampled_from(["alloc", "fill", "free"]), _arg, _pages),
    st.tuples(st.just("alloc_excluding"), _arg, _pages, st.integers(0, 255)),
    st.tuples(
        st.sampled_from(
            ["isolate", "unisolate", "quarantine", "release", "online", "offline"]
        ),
        _arg,
        st.just(0),
    ),
)


@settings(max_examples=200, deadline=None)
@given(
    placement=st.sampled_from(["scatter", "sequential", "random"]),
    numa_nodes=st.sampled_from([1, 2]),
    seed=st.integers(0, 3),
    ops=st.lists(_op, max_size=40),
)
# A release into a block the previous allocation filled must make that
# block usable again.
@example(
    placement="scatter",
    numa_nodes=1,
    seed=0,
    ops=[
        ("online", 0, 0),
        ("alloc", 0, PAGES_PER_BLOCK),
        ("free", 0, 100),
        ("alloc", 1, 300),
    ],
)
def test_indexed_zones_match_from_scratch_placement(placement, numa_nodes, seed, ops):
    indexed = build(placement, numa_nodes, seed, scratch=False)
    scratch = build(placement, numa_nodes, seed, scratch=True)
    assert snapshot(indexed) == snapshot(scratch)
    indexed_owners = [PageOwner(f"p{i}") for i in range(OWNERS)]
    scratch_owners = [PageOwner(f"p{i}") for i in range(OWNERS)]
    for step, op in enumerate(ops):
        expected = apply(scratch, scratch_owners, op)
        assert apply(indexed, indexed_owners, op) == expected, (step, op)
        assert snapshot(indexed) == snapshot(scratch), (step, op)
        for zone in indexed.zones.values():
            assert zone.usable_blocks == _usable(zone.blocks, None), (step, op)
    indexed.check_consistency()
