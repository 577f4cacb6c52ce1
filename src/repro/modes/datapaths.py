"""Per-VM reclamation datapaths for the built-in modes.

Each datapath adapts one mechanism to the agent-facing plug/unplug
contract (:class:`~repro.virtio.device.PlugResult` /
:class:`~repro.virtio.device.UnplugResult`).  The adapters are where
each baseline's pathologies surface through the *same* resilience
machinery the virtio-mem path uses:

* the balloon's unreliable inflation shows up as partial unplugs the
  agent re-queues through deferred reclamation;
* DIMM hotplug's whole-DIMM atomicity shows up as sub-DIMM excess the
  agent can never reclaim and aborted DIMMs it retries later;
* free page reporting never resizes at all — its datapath exists only
  for consistency checking and the background reporting loop.

Host exhaustion is clamped here (mirroring the virtio-mem device's
``host-oom``/``host-partial`` results) so oversubscribed fleets get a
structured refusal instead of a crash deep inside a simulated process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.baselines.balloon import VirtioBalloon
from repro.baselines.dimm import DimmHotplug
from repro.baselines.fpr import FreePageReporting
from repro.errors import HotplugError
from repro.mm.block import BlockState
from repro.modes.base import ReclaimDatapath
from repro.obs.span import NULL_SPAN, SpanLike
from repro.units import (
    PAGE_SIZE,
    format_bytes,
    pages_to_bytes,
)
from repro.virtio.device import PlugResult, UnplugResult, log_plug, log_unplug

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.vmm.vm import VirtualMachine

__all__ = [
    "VirtioMemDatapath",
    "BalloonDatapath",
    "DimmDatapath",
    "FprDatapath",
]


class VirtioMemDatapath(ReclaimDatapath):
    """The default datapath: the VM's own virtio-mem device.

    A pure pass-through — requests go straight to the device, so runs
    through this datapath are byte-identical to the pre-registry code.
    """

    name = "virtio-mem"

    def __init__(self, vm: "VirtualMachine"):
        self.vm = vm

    @property
    def elastic_bytes(self) -> int:
        return self.vm.device.plugged_bytes

    def plug(self, size_bytes: int, parent: SpanLike = NULL_SPAN):
        return self.vm.device.plug(size_bytes, parent=parent)

    def unplug(self, size_bytes: int, parent: SpanLike = NULL_SPAN):
        return self.vm.device.unplug(size_bytes, parent=parent)

    def check_consistency(self) -> None:
        self.vm.device.check_consistency()


class BalloonDatapath(ReclaimDatapath):
    """virtio-balloon adapted to the plug/unplug contract.

    The VM boots with the whole device region plugged and the balloon
    inflated over all of it, so the host initially backs only boot
    memory.  Growing the VM *deflates* (host re-charges pages); shrinking
    *inflates* (host releases pages).  Inflation's unreliability — the
    driver can only take pages the guest allocator has free right now —
    surfaces as partial ``UnplugResult``\\ s.
    """

    name = "balloon"

    def __init__(self, vm: "VirtualMachine", balloon: VirtioBalloon):
        self.vm = vm
        self.balloon = balloon

    @property
    def elastic_bytes(self) -> int:
        return self.vm.device.plugged_bytes - pages_to_bytes(
            self.balloon.inflated_pages
        )

    def inflate_at_boot(self) -> None:
        """Swallow the freshly plugged region into the balloon.

        State-only (no simulated work), mirroring ``plug_all_at_boot``:
        the region's pages move to the balloon owner and the host
        releases their backing, so the VM starts sized to its boot
        memory exactly like an elastic virtio-mem VM.
        """
        manager = self.vm.manager
        take = manager.zone_movable.free_pages
        if take > 0:
            manager.alloc_pages(
                self.balloon.balloon_owner, take, zones=[manager.zone_movable]
            )
            self.vm.node.discharge(pages_to_bytes(take))

    def plug(self, size_bytes: int, parent: SpanLike = NULL_SPAN):
        vm = self.vm
        start = vm.sim.now
        span = vm.obs.span(
            "device.plug",
            parent=parent,
            requested_bytes=size_bytes,
            mechanism=self.name,
        )
        # Clamp to what the host can back right now (deflate charges the
        # node before releasing pages to the guest); there is no yield
        # between this check and the charge, so the clamp cannot race.
        host_free = (vm.node.node.free_bytes // PAGE_SIZE) * PAGE_SIZE
        grant = min(size_bytes, host_free)
        host_limited = grant < size_bytes
        mech = vm.obs.span("phase.mechanism", parent=span, op="deflate")
        result = yield from self.balloon.deflate(grant)
        mech.close()
        plugged = result.reclaimed_bytes
        if plugged >= size_bytes:
            error = ""
        elif plugged == 0:
            error = "host-oom" if host_limited else "nack"
        else:
            error = "host-partial" if host_limited else "partial"
        log_plug(
            vm.tracer, vm.obs, span, start, vm.sim.now, size_bytes, plugged, error
        )
        return PlugResult(
            requested_bytes=size_bytes,
            plugged_bytes=plugged,
            latency_ns=result.latency_ns,
            zeroed_pages=0,
            error=error,
        )

    def unplug(self, size_bytes: int, parent: SpanLike = NULL_SPAN):
        vm = self.vm
        start = vm.sim.now
        span = vm.obs.span(
            "device.unplug",
            parent=parent,
            requested_bytes=size_bytes,
            mechanism=self.name,
        )
        mech = vm.obs.span("phase.mechanism", parent=span, op="inflate")
        result = yield from self.balloon.inflate(size_bytes)
        mech.close()
        log_unplug(
            vm.tracer,
            vm.obs,
            span,
            start,
            vm.sim.now,
            size_bytes,
            result.reclaimed_bytes,
            0,
        )
        return UnplugResult(
            requested_bytes=size_bytes,
            unplugged_bytes=result.reclaimed_bytes,
            latency_ns=result.latency_ns,
            migrated_pages=0,
            scanned_blocks=0,
        )

    def check_consistency(self) -> None:
        self.vm.device.check_consistency()
        inflated = pages_to_bytes(self.balloon.inflated_pages)
        if inflated > self.vm.device.plugged_bytes:
            raise HotplugError(
                f"balloon holds {format_bytes(inflated)} but only "
                f"{format_bytes(self.vm.device.plugged_bytes)} is plugged"
            )


class DimmDatapath(ReclaimDatapath):
    """ACPI DIMM hotplug adapted to the plug/unplug contract.

    Whole-DIMM granularity cuts both ways: plugs round *up* (the agent's
    deficit guard absorbs the overshoot) while unplugs round *down* —
    rounding up would reclaim memory live instances still need, so
    sub-DIMM excess simply stays plugged (the stranding the paper
    attributes to coarse hot(un)plug).
    """

    name = "dimm"

    def __init__(self, vm: "VirtualMachine", dimm: DimmHotplug):
        self.vm = vm
        self.dimm = dimm

    @property
    def elastic_bytes(self) -> int:
        return len(self.dimm.plugged_dimms()) * self.dimm.dimm_bytes

    def plug(self, size_bytes: int, parent: SpanLike = NULL_SPAN):
        vm = self.vm
        start = vm.sim.now
        span = vm.obs.span(
            "device.plug",
            parent=parent,
            requested_bytes=size_bytes,
            mechanism=self.name,
        )
        dimm_bytes = self.dimm.dimm_bytes
        wanted = -(-size_bytes // dimm_bytes)
        free_slots = len(self.dimm.free_dimms())
        host_free_dimms = vm.node.node.free_bytes // dimm_bytes
        grant = min(wanted, free_slots, host_free_dimms)
        host_limited = host_free_dimms < min(wanted, free_slots)
        mech = vm.obs.span(
            "phase.mechanism", parent=span, op="dimm-plug", dimms=grant
        )
        latency = yield from self.dimm.plug(grant)
        mech.close()
        plugged = grant * dimm_bytes
        if grant == wanted:
            error = ""
        elif plugged == 0:
            error = "host-oom" if host_limited else "nack"
        else:
            error = "host-partial" if host_limited else "partial"
        log_plug(
            vm.tracer, vm.obs, span, start, vm.sim.now, size_bytes, plugged, error
        )
        return PlugResult(
            requested_bytes=size_bytes,
            plugged_bytes=plugged,
            latency_ns=latency,
            zeroed_pages=0,
            error=error,
        )

    def unplug(self, size_bytes: int, parent: SpanLike = NULL_SPAN):
        vm = self.vm
        start = vm.sim.now
        span = vm.obs.span(
            "device.unplug",
            parent=parent,
            requested_bytes=size_bytes,
            mechanism=self.name,
        )
        dimm_bytes = self.dimm.dimm_bytes
        wanted = size_bytes // dimm_bytes
        if wanted == 0:
            # Sub-DIMM excess is unreclaimable at this granularity; not
            # a shortfall (a deferred retry could never do better).  The
            # refusal is still a resize request the hypervisor saw, so
            # it is recorded as a zero-completed instant event rather
            # than silently dropped from the tracer.
            log_unplug(vm.tracer, vm.obs, span, start, start, size_bytes, 0, 0)
            return UnplugResult(
                requested_bytes=0,
                unplugged_bytes=0,
                latency_ns=0,
                migrated_pages=0,
                scanned_blocks=0,
            )
        mech = vm.obs.span(
            "phase.mechanism", parent=span, op="dimm-unplug", dimms=wanted
        )
        result = yield from self.dimm.unplug(wanted * dimm_bytes)
        mech.close()
        log_unplug(
            vm.tracer,
            vm.obs,
            span,
            start,
            vm.sim.now,
            result.requested_dimms * dimm_bytes,
            result.unplugged_bytes,
            result.migrated_pages,
        )
        return UnplugResult(
            requested_bytes=result.requested_dimms * dimm_bytes,
            unplugged_bytes=result.unplugged_bytes,
            latency_ns=result.latency_ns,
            migrated_pages=result.migrated_pages,
            scanned_blocks=result.requested_dimms * self.dimm.blocks_per_dimm,
        )

    def check_consistency(self) -> None:
        # The virtio-mem device is bypassed entirely (blocks online
        # through the manager), so the DIMM ledger is the authority:
        # every online hotplug block must belong to a fully-online DIMM.
        manager = self.vm.manager
        online = sum(
            1
            for index in range(
                manager.boot_blocks, manager.boot_blocks + manager.hotplug_blocks
            )
            if manager.blocks[index].state is BlockState.ONLINE
        )
        accounted = len(self.dimm.plugged_dimms()) * self.dimm.blocks_per_dimm
        if online != accounted:
            raise HotplugError(
                f"{online} hotplug blocks online but {accounted} accounted "
                f"to whole DIMMs"
            )


class FprDatapath(VirtioMemDatapath):
    """Free page reporting: a statically sized VM plus a reporting loop.

    The VM never shrinks (the mode is not elastic): plugs inherit the
    virtio-mem pass-through, and unplugs are refused the way DIMM
    hotplug refuses a sub-DIMM request, because the reporting loop has
    already handed free pages of the plugged blocks back to the host.
    The value of this datapath is that background loop and the retire
    hook that stops it before the VM's host account closes.
    """

    name = "fpr"

    def __init__(self, vm: "VirtualMachine", fpr: FreePageReporting):
        super().__init__(vm)
        self.fpr = fpr

    def unplug(self, size_bytes: int, parent: SpanLike = NULL_SPAN):
        """Log a zero-completed instant request; touch no device or host."""
        yield from ()  # a process generator that never waits
        vm = self.vm
        start = vm.sim.now
        span = vm.obs.span(
            "device.unplug",
            parent=parent,
            requested_bytes=size_bytes,
            mechanism=self.name,
        )
        log_unplug(vm.tracer, vm.obs, span, start, start, size_bytes, 0, 0)
        return UnplugResult(
            requested_bytes=0,
            unplugged_bytes=0,
            latency_ns=0,
            migrated_pages=0,
            scanned_blocks=0,
        )

    def start(self) -> None:
        """Start the reporting loop (runs until :meth:`on_retire`)."""
        self.fpr.start()

    def on_retire(self) -> None:
        self.fpr.stop()
