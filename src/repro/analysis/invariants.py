"""Named invariants over the simulated memory-management state.

Everything the paper measures rests on structural properties the state
plane must never silently break: page counts are conserved, HotMem
partitions serve exactly one instance, unplug only succeeds on empty
blocks, owner mirrors agree with per-block occupancy.  A bug in
``mm/zone.py`` or ``virtio/driver.py`` that corrupts page accounting
would not crash anything — it would just make every downstream figure
quietly wrong.

This module is the registry of those properties, in the spirit of
KASAN/lockdep: each :class:`Invariant` is a named, documented rule with a
checker that walks zones → blocks → page owners and reports structured
:class:`Failure` records.  The runtime sanitizer
(:mod:`repro.analysis.sanitizer`) sweeps the registry at checkpoints;
:meth:`~repro.mm.manager.GuestMemoryManager.check_consistency` delegates
here so tests and debugging sessions use the same rules.

Adding a rule
-------------
Decorate a generator taking a :class:`CheckContext` and yielding
:class:`Failure` records::

    @invariant("my-rule", "one-line contract the rule enforces")
    def _check_my_rule(ctx: CheckContext) -> Iterator[Failure]:
        for block in ctx.manager.blocks:
            if something_wrong(block):
                yield Failure("my-rule", "what and by how much", (block,))

Rules must be read-only and side-effect free: they may be re-run at any
checkpoint, against any manager, in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.errors import MemoryError_
from repro.mm.block import BlockState, MemoryBlock
from repro.mm.zone import ZoneType
from repro.units import PAGES_PER_BLOCK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.provision import Fleet
    from repro.core.manager import HotMemManager
    from repro.mm.manager import GuestMemoryManager
    from repro.mm.owner import PageOwner

__all__ = [
    "CheckContext",
    "Failure",
    "Invariant",
    "InvariantViolation",
    "INVARIANTS",
    "invariant",
    "run_invariants",
    "check_now",
    "describe_block",
]

#: How many offending blocks a report dumps per failure before eliding.
_REPORT_BLOCK_LIMIT = 8


@dataclass
class CheckContext:
    """Everything a rule may inspect during one sweep.

    ``hotmem`` is optional: partition-level rules degrade to weaker
    structural checks (or skip) when the guest runs vanilla.  ``owner``
    is set only at ``teardown`` checkpoints and names the page owner
    that was just released.
    """

    manager: "GuestMemoryManager"
    hotmem: Optional["HotMemManager"] = None
    event: str = "manual"
    owner: Optional["PageOwner"] = None
    #: The fleet the checked VM belongs to, when provisioned through
    #: :class:`~repro.cluster.provision.Fleet` — enables host-level rules.
    fleet: Optional["Fleet"] = None


@dataclass(frozen=True)
class Failure:
    """One rule violation: which rule, what went wrong, which blocks."""

    rule: str
    message: str
    blocks: Tuple[MemoryBlock, ...] = ()


def describe_block(block: MemoryBlock) -> str:
    """One-line dump of a block's full accounting state (for reports)."""
    zone = block.zone.name if block.zone is not None else "-"
    owners = ", ".join(
        f"{owner.owner_id}={pages}"
        for owner, pages in sorted(
            block.owner_pages.items(), key=lambda item: item[0].owner_id
        )
    )
    return (
        f"block {block.index}: state={block.state.value} zone={zone} "
        f"isolated={'yes' if block.isolated else 'no'} "
        f"free={block.free_pages}/{PAGES_PER_BLOCK} owners={{{owners}}}"
    )


class InvariantViolation(MemoryError_):
    """One or more invariants failed during a sweep.

    Subclasses :class:`~repro.errors.MemoryError_` so callers that treat
    accounting corruption as a memory error keep working.  Carries the
    structured :attr:`failures` plus a rendered diff-style report listing
    every offending block's full state.
    """

    def __init__(self, failures: Iterable[Failure], event: str = "manual"):
        self.failures: List[Failure] = list(failures)
        self.event = event
        super().__init__(self.report())

    @property
    def rules(self) -> List[str]:
        """Sorted distinct rule names that fired."""
        return sorted({f.rule for f in self.failures})

    def report(self) -> str:
        """Human-readable multi-line report of every failure."""
        lines = [
            f"memory-state sanitizer: {len(self.failures)} invariant "
            f"violation(s) at checkpoint '{self.event}'"
        ]
        for failure in self.failures:
            lines.append(f"[{failure.rule}] {failure.message}")
            shown = failure.blocks[:_REPORT_BLOCK_LIMIT]
            for block in shown:
                lines.append(f"    - {describe_block(block)}")
            elided = len(failure.blocks) - len(shown)
            if elided > 0:
                lines.append(f"    - ... and {elided} more block(s)")
        return "\n".join(lines)


@dataclass(frozen=True)
class Invariant:
    """A named rule: description plus its checker function."""

    name: str
    description: str
    check: Callable[[CheckContext], Iterator[Failure]]


#: The rule registry, in registration order (name → rule).
INVARIANTS: Dict[str, Invariant] = {}


def invariant(name: str, description: str):
    """Register ``fn`` as the checker of invariant ``name``."""

    def decorate(fn: Callable[[CheckContext], Iterator[Failure]]):
        if name in INVARIANTS:
            raise ValueError(f"duplicate invariant {name!r}")
        INVARIANTS[name] = Invariant(name, description, fn)
        return fn

    return decorate


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------
@invariant(
    "page-conservation",
    "free + allocated pages equal the block/guest totals; absent blocks "
    "hold nothing",
)
def _check_page_conservation(ctx: CheckContext) -> Iterator[Failure]:
    manager = ctx.manager
    for block in manager.blocks:
        occupied = sum(block.owner_pages.values())
        if block.state is BlockState.ONLINE:
            if occupied + block.free_pages != PAGES_PER_BLOCK:
                yield Failure(
                    "page-conservation",
                    f"block {block.index}: occupied {occupied} + free "
                    f"{block.free_pages} != {PAGES_PER_BLOCK} "
                    f"(delta {occupied + block.free_pages - PAGES_PER_BLOCK:+d})",
                    (block,),
                )
        elif block.free_pages or block.owner_pages:
            yield Failure(
                "page-conservation",
                f"block {block.index} is {block.state.value} but still "
                f"accounts {block.free_pages} free and {occupied} owned pages",
                (block,),
            )
    online = sum(1 for b in manager.blocks if b.state is BlockState.ONLINE)
    visible_free = sum(zone.free_pages for zone in manager.zones.values())
    isolated_free = sum(b.free_pages for b in manager.blocks if b.isolated)
    allocated = sum(sum(b.owner_pages.values()) for b in manager.blocks)
    total = online * PAGES_PER_BLOCK
    if visible_free + isolated_free + allocated != total:
        yield Failure(
            "page-conservation",
            f"global ledger: visible free {visible_free} + isolated free "
            f"{isolated_free} + allocated {allocated} != "
            f"{total} pages of {online} online blocks "
            f"(delta {visible_free + isolated_free + allocated - total:+d})",
        )


@invariant(
    "zone-free-counter",
    "each zone's cached free counter equals the recomputed sum over its "
    "non-isolated blocks",
)
def _check_zone_free_counter(ctx: CheckContext) -> Iterator[Failure]:
    for zone in ctx.manager.zones.values():
        computed = sum(b.free_pages for b in zone.blocks if not b.isolated)
        if computed != zone.free_pages:
            yield Failure(
                "zone-free-counter",
                f"zone {zone.name}: cached free counter {zone.free_pages} != "
                f"{computed} recomputed from blocks "
                f"(delta {zone.free_pages - computed:+d})",
                tuple(zone.blocks),
            )


@invariant(
    "zone-usable-index",
    "each zone's usable-block index lists exactly its non-isolated blocks "
    "with free pages, ascending by block index",
)
def _check_zone_usable_index(ctx: CheckContext) -> Iterator[Failure]:
    for zone in ctx.manager.zones.values():
        expected = [b for b in zone.blocks if b.free_pages and not b.isolated]
        if zone.usable_blocks != expected:
            stale = set(zone.usable_blocks).symmetric_difference(expected)
            yield Failure(
                "zone-usable-index",
                f"zone {zone.name}: usable index holds blocks "
                f"{[b.index for b in zone.usable_blocks]}, recomputed "
                f"{[b.index for b in expected]}",
                tuple(sorted(stale, key=lambda b: b.index)),
            )


@invariant(
    "block-state-legality",
    "zone membership, block state and back-references follow the "
    "hot(un)plug state machine",
)
def _check_block_state_legality(ctx: CheckContext) -> Iterator[Failure]:
    manager = ctx.manager
    member_of: Dict[MemoryBlock, object] = {}
    for zone in manager.zones.values():
        for block in zone.blocks:
            if block in member_of:
                yield Failure(
                    "block-state-legality",
                    f"block {block.index} is a member of two zones "
                    f"({member_of[block].name} and {zone.name})",  # type: ignore[attr-defined]
                    (block,),
                )
            member_of[block] = zone
            if block.state is not BlockState.ONLINE:
                yield Failure(
                    "block-state-legality",
                    f"zone {zone.name} holds block {block.index} in state "
                    f"{block.state.value} (only ONLINE blocks may be zone "
                    f"members)",
                    (block,),
                )
            if block.zone is not zone:
                back = block.zone.name if block.zone is not None else None
                yield Failure(
                    "block-state-legality",
                    f"block {block.index} is a member of zone {zone.name} but "
                    f"its back-reference points at {back}",
                    (block,),
                )
    for block in manager.blocks:
        if block.state is BlockState.ONLINE:
            if block not in member_of:
                yield Failure(
                    "block-state-legality",
                    f"block {block.index} is online but belongs to no zone",
                    (block,),
                )
        else:
            if block.zone is not None:
                yield Failure(
                    "block-state-legality",
                    f"block {block.index} is {block.state.value} but still "
                    f"references zone {block.zone.name}",
                    (block,),
                )
            if block.isolated:
                yield Failure(
                    "block-state-legality",
                    f"block {block.index} is {block.state.value} but still "
                    f"flagged isolated",
                    (block,),
                )
    for block in manager.blocks[: manager.boot_blocks]:
        if block.state is not BlockState.ONLINE:
            yield Failure(
                "block-state-legality",
                f"boot block {block.index} is {block.state.value} "
                f"(boot memory can never be unplugged)",
                (block,),
            )


@invariant(
    "zone-movability",
    "MOVABLE and HOTMEM zones never hold pages of an unmovable owner",
)
def _check_zone_movability(ctx: CheckContext) -> Iterator[Failure]:
    for zone in ctx.manager.zones.values():
        if zone.ztype is ZoneType.NORMAL:
            continue
        for block in zone.blocks:
            for owner, pages in block.owner_pages.items():
                if not owner.movable:
                    yield Failure(
                        "zone-movability",
                        f"unmovable owner {owner.owner_id} holds {pages} "
                        f"pages in {zone.ztype.value} zone {zone.name} "
                        f"(block {block.index}); this would wedge offlining",
                        (block,),
                    )


@invariant(
    "owner-mirror-sync",
    "per-owner block mirrors agree with per-block occupancy in both "
    "directions",
)
def _check_owner_mirror_sync(ctx: CheckContext) -> Iterator[Failure]:
    owners = set()
    for block in ctx.manager.blocks:
        for owner, pages in block.owner_pages.items():
            owners.add(owner)
            if pages <= 0:
                yield Failure(
                    "owner-mirror-sync",
                    f"block {block.index} charges {owner.owner_id} a "
                    f"non-positive page count ({pages})",
                    (block,),
                )
            mirrored = owner.block_pages.get(block, 0)
            if mirrored != pages:
                yield Failure(
                    "owner-mirror-sync",
                    f"block {block.index} charges {owner.owner_id} {pages} "
                    f"pages but the owner mirror records {mirrored} "
                    f"(delta {mirrored - pages:+d})",
                    (block,),
                )
    for owner in owners:
        for block, pages in owner.block_pages.items():
            if block.owner_pages.get(owner, 0) != pages:
                yield Failure(
                    "owner-mirror-sync",
                    f"{owner.owner_id} mirrors {pages} pages in block "
                    f"{block.index} but the block charges "
                    f"{block.owner_pages.get(owner, 0)} (stale mirror entry)",
                    (block,),
                )


@invariant(
    "hotmem-exclusivity",
    "a private HotMem partition only holds pages of the instance it is "
    "assigned to; the shared partition never holds private anonymous pages",
)
def _check_hotmem_exclusivity(ctx: CheckContext) -> Iterator[Failure]:
    from repro.mm.mm_struct import MmStruct  # local: avoid import cycle

    if ctx.hotmem is not None:
        for partition in ctx.hotmem.partitions:
            for block in partition.zone.blocks:
                for owner, pages in block.owner_pages.items():
                    if getattr(owner, "hotmem_partition", None) is not partition:
                        yield Failure(
                            "hotmem-exclusivity",
                            f"partition {partition.partition_id} "
                            f"(zone {partition.zone.name}) holds {pages} "
                            f"pages of foreign owner {owner.owner_id} in "
                            f"block {block.index}",
                            (block,),
                        )
        shared = ctx.hotmem.shared_partition
        if shared is not None:
            for block in shared.zone.blocks:
                for owner, pages in block.owner_pages.items():
                    if isinstance(owner, MmStruct):
                        yield Failure(
                            "hotmem-exclusivity",
                            f"shared partition holds {pages} private "
                            f"anonymous pages of {owner.owner_id} in block "
                            f"{block.index} (only the page cache may "
                            f"allocate there)",
                            (block,),
                        )
        return
    # Vanilla-context fallback: any HOTMEM zone that appears (e.g. a
    # manually registered partition zone) must only hold owners linked to
    # a partition backed by that very zone.
    for zone in ctx.manager.zones.values():
        if zone.ztype is not ZoneType.HOTMEM:
            continue
        for block in zone.blocks:
            for owner, pages in block.owner_pages.items():
                partition = getattr(owner, "hotmem_partition", None)
                if partition is not None and partition.zone is not zone:
                    yield Failure(
                        "hotmem-exclusivity",
                        f"{owner.owner_id} (assigned to partition "
                        f"{partition.partition_id}) holds {pages} pages in "
                        f"unrelated HotMem zone {zone.name} "
                        f"(block {block.index})",
                        (block,),
                    )


@invariant(
    "footprint-confinement",
    "an instance attached to a partition keeps its entire anonymous "
    "footprint inside that partition (no cross-block interleaving outside "
    "the shared partition)",
)
def _check_footprint_confinement(ctx: CheckContext) -> Iterator[Failure]:
    seen = set()
    for block in ctx.manager.blocks:
        for owner in block.owner_pages:
            if owner in seen:
                continue
            seen.add(owner)
            partition = getattr(owner, "hotmem_partition", None)
            if partition is None:
                continue
            for held_block, pages in owner.block_pages.items():
                if held_block.zone is not partition.zone:
                    where = (
                        held_block.zone.name
                        if held_block.zone is not None
                        else "no zone"
                    )
                    yield Failure(
                        "footprint-confinement",
                        f"{owner.owner_id} is confined to partition "
                        f"{partition.partition_id} but holds {pages} pages "
                        f"in block {held_block.index} ({where})",
                        (held_block,),
                    )


@invariant(
    "partition-refcount",
    "partition_users, assignment and population agree; a partition whose "
    "last user exited holds no live data",
)
def _check_partition_refcount(ctx: CheckContext) -> Iterator[Failure]:
    if ctx.hotmem is None:
        return
    for partition in ctx.hotmem.partitions:
        if partition.partition_users < 0:
            yield Failure(
                "partition-refcount",
                f"partition {partition.partition_id} has negative refcount "
                f"{partition.partition_users}",
            )
        if partition.populated_blocks > partition.size_blocks:
            yield Failure(
                "partition-refcount",
                f"partition {partition.partition_id} is over-populated: "
                f"{partition.populated_blocks} blocks for a size of "
                f"{partition.size_blocks}",
                tuple(partition.zone.blocks),
            )
        if (partition.partition_users > 0) != (partition.assigned_to is not None):
            yield Failure(
                "partition-refcount",
                f"partition {partition.partition_id}: refcount "
                f"{partition.partition_users} disagrees with assigned_to="
                f"{partition.assigned_to!r}",
            )
        # True occupancy from the blocks: Zone.occupied_pages counts
        # isolated-but-free pages (hidden from the allocator counter) as
        # occupied, which is exactly the transient state of an empty
        # partition mid-unplug — not a leak.
        occupied = sum(b.occupied_pages for b in partition.zone.blocks)
        if partition.partition_users == 0 and occupied:
            yield Failure(
                "partition-refcount",
                f"partition {partition.partition_id} has no users but "
                f"{occupied} occupied pages (leaked on instance teardown)",
                tuple(partition.zone.blocks),
            )
    shared = ctx.hotmem.shared_partition
    if shared is not None and (
        shared.partition_users != 0 or shared.assigned_to is not None
    ):
        yield Failure(
            "partition-refcount",
            f"shared partition must never be assigned: users="
            f"{shared.partition_users} assigned_to={shared.assigned_to!r}",
        )


@invariant(
    "quarantine-isolation",
    "quarantined blocks stay online but isolated (never allocatable, never "
    "double-counted as free); quarantined partitions are never assigned",
)
def _check_quarantine_isolation(ctx: CheckContext) -> Iterator[Failure]:
    manager = ctx.manager
    quarantined = set(manager.quarantined_blocks)
    for block in quarantined:
        if block.state is not BlockState.ONLINE:
            yield Failure(
                "quarantine-isolation",
                f"quarantined block {block.index} is {block.state.value} "
                f"(quarantine must keep the block online until released)",
                (block,),
            )
            continue
        if not block.isolated:
            yield Failure(
                "quarantine-isolation",
                f"quarantined block {block.index} is not isolated: its "
                f"{block.free_pages} free pages are visible to the allocator "
                f"(allocatable and double-counted as free)",
                (block,),
            )
    if ctx.hotmem is None:
        return
    for partition in ctx.hotmem.partitions:
        if not partition.quarantined:
            # A partition holding a quarantined block must itself be
            # quarantined, or the attach path could hand it out again.
            poisoned = tuple(
                b for b in partition.zone.blocks if b in quarantined
            )
            if poisoned:
                yield Failure(
                    "quarantine-isolation",
                    f"partition {partition.partition_id} holds quarantined "
                    f"block(s) {[b.index for b in poisoned]} but is not "
                    f"quarantined itself",
                    poisoned,
                )
            continue
        if partition.partition_users > 0 or partition.assigned_to is not None:
            yield Failure(
                "quarantine-isolation",
                f"quarantined partition {partition.partition_id} is still "
                f"assigned: users={partition.partition_users} "
                f"assigned_to={partition.assigned_to!r}",
                tuple(partition.zone.blocks),
            )


@invariant(
    "teardown-no-leak",
    "a released owner holds no pages anywhere (double-free and leak "
    "detection on instance teardown)",
)
def _check_teardown_no_leak(ctx: CheckContext) -> Iterator[Failure]:
    owner = ctx.owner
    if owner is None:
        return
    if owner.block_pages:
        total = sum(owner.block_pages.values())
        yield Failure(
            "teardown-no-leak",
            f"released owner {owner.owner_id} still mirrors {total} pages "
            f"across {len(owner.block_pages)} block(s)",
            tuple(owner.block_pages),
        )
    leaked = tuple(
        block for block in ctx.manager.blocks if owner in block.owner_pages
    )
    if leaked:
        yield Failure(
            "teardown-no-leak",
            f"{len(leaked)} block(s) still charge released owner "
            f"{owner.owner_id}",
            leaked,
        )


@invariant(
    "host-conservation",
    "per NUMA node, the resident VMs' attributed backing bytes sum exactly "
    "to the node's used bytes (no leaked or double-counted host memory)",
)
def _check_host_conservation(ctx: CheckContext) -> Iterator[Failure]:
    fleet = ctx.fleet
    if fleet is None:
        return
    for host_index, node, residents in fleet.node_views():
        backed = sum(vm.backed_bytes for vm in residents)
        # Non-VM charges (injected pressure spikes) are attributed to the
        # fleet's external accounts; conservation covers them too.
        backed += fleet.external_bytes(host_index, node.node_id)
        if backed != node.used_bytes:
            names = ", ".join(vm.name for vm in residents) or "<none>"
            yield Failure(
                "host-conservation",
                f"host {host_index} node {node.node_id}: resident VMs "
                f"({names}) back {backed} bytes but the node accounts "
                f"{node.used_bytes} used (delta {backed - node.used_bytes:+d})",
            )


@invariant(
    "ledger-conservation",
    "the density arbiter's per-node committed/resident ledger equals the "
    "ground truth recomputed from alive VMs (zero drift after any fault "
    "storm)",
)
def _check_ledger_conservation(ctx: CheckContext) -> Iterator[Failure]:
    fleet = ctx.fleet
    if fleet is None:
        return
    for (host_index, node_id), delta in sorted(
        fleet.ledger_drift_report().items()
    ):
        yield Failure(
            "ledger-conservation",
            f"host {host_index} node {node_id}: arbiter ledger drifts "
            f"{delta:+d} bytes from the committed sum of alive VMs",
        )


# ----------------------------------------------------------------------
# Sweeping
# ----------------------------------------------------------------------
def run_invariants(
    ctx: CheckContext, rules: Optional[Iterable[str]] = None
) -> List[Failure]:
    """Run ``rules`` (default: all registered) and collect every failure."""
    if rules is None:
        selected = list(INVARIANTS.values())
    else:
        unknown = sorted(set(rules) - set(INVARIANTS))
        if unknown:
            raise ValueError(f"unknown invariant rule(s): {', '.join(unknown)}")
        selected = [INVARIANTS[name] for name in rules]
    failures: List[Failure] = []
    for rule in selected:
        failures.extend(rule.check(ctx))
    return failures


def check_now(
    manager: "GuestMemoryManager",
    hotmem: Optional["HotMemManager"] = None,
    event: str = "manual",
    owner: Optional["PageOwner"] = None,
    rules: Optional[Iterable[str]] = None,
    fleet: Optional["Fleet"] = None,
) -> None:
    """One-shot sweep; raises :class:`InvariantViolation` on any failure.

    ``fleet`` defaults to the manager's ``_fleet_context`` (set by
    :class:`~repro.cluster.provision.Fleet` at provisioning), so callers
    never need to thread it through by hand.
    """
    if fleet is None:
        fleet = getattr(manager, "_fleet_context", None)
    ctx = CheckContext(
        manager=manager, hotmem=hotmem, event=event, owner=owner, fleet=fleet
    )
    failures = run_invariants(ctx, rules)
    if failures:
        raise InvariantViolation(failures, event)
