"""The VMM-side virtio-mem device.

Models the Cloud Hypervisor implementation the paper uses (Section 5.2):
a paravirtualized DIMM chunked into 128 MiB blocks that can be plugged
and unplugged independently.  The device

* owns the hotpluggable region (which guest-physical blocks are plugged),
* charges/discharges host memory for plugged blocks,
* forwards requests to the guest driver over a notification round trip,
* ``madvise(MADV_DONTNEED)``-releases unplugged blocks back to the host
  on its own VMM thread (pinned to a host core, Section 5.4),
* and timestamps every request for the hypervisor-side unplug-latency
  metric (Section 5.4: request received → memory marked DONTNEED).

Requests are serialized, as in virtio-mem: one resize at a time.

Fault injection (see ``docs/faults.md``): the device hosts three named
sites — a plug NACK (host refuses the whole request), a partial plug
(host grants only half the blocks), and a stalled response (extra
latency on the notification round trip).  NACK and partial outcomes
travel to the caller via :attr:`PlugResult.error` — **never** as an
exception, since an exception would abort the simulated process tree —
and the agent decides whether to retry or degrade.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, List, Optional, Set

from repro.errors import HotplugError
from repro.faults.injector import NO_FAULTS, FaultInjector, InjectedFault
from repro.faults.sites import (
    DEVICE_PLUG_NACK,
    DEVICE_PLUG_PARTIAL,
    DEVICE_RESPONSE_DELAY,
)
from repro.host.machine import NumaNode
from repro.faults.recovery import RecoveryLog
from repro.mm.block import BlockState
from repro.mm.manager import GuestMemoryManager
from repro.obs.context import NO_SCOPE, ObsScope
from repro.obs.span import NULL_SPAN, SpanLike
from repro.sim.costs import CostModel
from repro.sim.cpu import CpuCore
from repro.sim.engine import Event, Simulator, Timeout
from repro.units import MEMORY_BLOCK_SIZE, bytes_to_blocks, format_bytes
from repro.virtio.driver import VirtioMemDriver

if TYPE_CHECKING:  # pragma: no cover - avoids a package-level import cycle
    from repro.vmm.tracing import HypervisorTracer

__all__ = [
    "VirtioMemDevice",
    "PlugResult",
    "UnplugResult",
    "log_plug",
    "log_unplug",
]

#: Accounting label for VMM-side device work (madvise etc.).
VMM_LABEL = "vmm:virtio-mem"


@dataclass
class PlugResult:
    """Hypervisor-side view of one completed plug request."""

    requested_bytes: int
    plugged_bytes: int
    latency_ns: int
    zeroed_pages: int
    #: ``""`` on success; ``"nack"`` when the host refused the request,
    #: ``"partial"`` when an injected fault granted fewer blocks than
    #: asked, ``"host-oom"`` when the host node had no free blocks at
    #: all, ``"host-partial"`` when it could only back part of the
    #: request (oversubscribed fleets hit the last two naturally), and
    #: ``"region-partial"`` when the device region had fewer free
    #: blocks than asked, possibly none (a plug queued behind an unplug
    #: that ends partial).
    error: str = ""
    #: The injected fault behind a non-empty ``error`` (the caller
    #: resolves it with the recovery path it chose).
    fault: Optional[InjectedFault] = field(default=None, repr=False)

    @property
    def fully_plugged(self) -> bool:
        return self.plugged_bytes == self.requested_bytes


@dataclass
class UnplugResult:
    """Hypervisor-side view of one completed unplug request."""

    requested_bytes: int
    unplugged_bytes: int
    latency_ns: int
    migrated_pages: int
    scanned_blocks: int

    @property
    def fully_unplugged(self) -> bool:
        return self.unplugged_bytes == self.requested_bytes


def log_plug(
    tracer: "HypervisorTracer",
    obs: ObsScope,
    span: SpanLike,
    start: int,
    end: int,
    requested: int,
    completed: int,
    error: str,
) -> None:
    """Log one plug request and close its ``device.plug`` span beside it.

    Every plug mechanism (this device, the balloon, DIMM hotplug) ends
    its request here.  The append to the VM's resize log always runs;
    the span and the metrics only observe, and are no-ops untraced.
    """
    tracer.record_plug(start, end, requested, completed)
    span.close(end_ns=end, completed_bytes=completed, error=error)
    obs.inc("plug_requests_total", error=error or "ok")
    if completed:
        obs.inc("plugged_bytes_total", completed)
    obs.observe("plug_latency_ns", end - start)


def log_unplug(
    tracer: "HypervisorTracer",
    obs: ObsScope,
    span: SpanLike,
    start: int,
    end: int,
    requested: int,
    completed: int,
    migrated_pages: int,
) -> None:
    """Log one unplug request and close its ``device.unplug`` span.

    The unplug twin of :func:`log_plug`.  Zero-completed requests (every
    block quarantined, a refused sub-DIMM or non-elastic unplug, a
    balloon with nothing to inflate) are logged like any other.
    """
    tracer.record_unplug(start, end, requested, completed, migrated_pages)
    span.close(
        end_ns=end, completed_bytes=completed, migrated_pages=migrated_pages
    )
    if completed == requested:
        outcome = "full"
    elif completed:
        outcome = "partial"
    else:
        outcome = "none"
    obs.inc("unplug_requests_total", outcome=outcome)
    if completed:
        obs.inc("unplugged_bytes_total", completed)
    if migrated_pages:
        obs.inc("migrated_pages_total", migrated_pages)
    obs.observe("unplug_latency_ns", end - start)


class VirtioMemDevice:
    """One VM's paravirtualized hot(un)plug device."""

    def __init__(
        self,
        sim: Simulator,
        driver: VirtioMemDriver,
        manager: GuestMemoryManager,
        costs: CostModel,
        vmm_core: CpuCore,
        host_node: NumaNode,
        tracer: "HypervisorTracer",
        faults: FaultInjector = NO_FAULTS,
        recovery: Optional[RecoveryLog] = None,
        obs: ObsScope = NO_SCOPE,
    ):
        self.sim = sim
        self.driver = driver
        self.manager = manager
        self.costs = costs
        self.vmm_core = vmm_core
        self.host_node = host_node
        self.tracer = tracer
        self.faults = faults
        self.recovery = recovery
        self.obs = obs
        self.plugged_indices: Set[int] = set()
        self._busy = False
        self._waiters: Deque[Event] = deque()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def region_blocks(self) -> int:
        """Total blocks in the hotpluggable device region."""
        return self.manager.hotplug_blocks

    @property
    def plugged_bytes(self) -> int:
        """Memory currently plugged through this device."""
        return len(self.plugged_indices) * MEMORY_BLOCK_SIZE

    # ------------------------------------------------------------------
    # Request serialization
    # ------------------------------------------------------------------
    def _acquire(self):
        if self._busy:
            gate = self.sim.event()
            self._waiters.append(gate)
            yield gate
        self._busy = True
        return None

    def _release(self) -> None:
        self._busy = False
        if self._waiters:
            self._waiters.popleft().trigger(None)

    # ------------------------------------------------------------------
    # Plug
    # ------------------------------------------------------------------
    def plug(self, size_bytes: int, parent: SpanLike = NULL_SPAN):
        """Process generator: plug ``size_bytes`` (rounded up to blocks).

        Returns a :class:`PlugResult`.  Raises :class:`HotplugError` when
        the request exceeds the whole device region; a request that only
        exceeds its free blocks gets them and ``"region-partial"``.
        """
        n_blocks = bytes_to_blocks(size_bytes)
        yield from self._acquire()
        try:
            free_indices = [
                i
                for i in self.manager.hotplug_block_indices()
                if i not in self.plugged_indices
            ]
            if n_blocks > self.region_blocks:
                raise HotplugError(
                    f"plug of {format_bytes(size_bytes)} exceeds device region "
                    f"({self.region_blocks} blocks)"
                )
            requested = n_blocks * MEMORY_BLOCK_SIZE
            start = self.sim.now
            span = self.obs.span(
                "device.plug", parent=parent, requested_bytes=requested
            )
            nack = self.faults.fire(
                DEVICE_PLUG_NACK, parent=span, requested_blocks=n_blocks
            )
            if nack is not None:
                # Host refuses the whole request; the round trip still
                # costs a notification and no host memory is charged.
                device_phase = self.obs.span("phase.device", parent=span)
                yield self.vmm_core.submit(
                    self.costs.virtio_request_rtt_ns, VMM_LABEL
                )
                device_phase.close()
                end = self.sim.now
                log_plug(self.tracer, self.obs, span, start, end, requested, 0, "nack")
                return PlugResult(
                    requested_bytes=requested,
                    plugged_bytes=0,
                    latency_ns=end - start,
                    zeroed_pages=0,
                    error="nack",
                    fault=nack,
                )
            effective = n_blocks
            partial = None
            if n_blocks > 1:
                partial = self.faults.fire(
                    DEVICE_PLUG_PARTIAL, parent=span, requested_blocks=n_blocks
                )
                if partial is not None:
                    effective = max(1, n_blocks // 2)
            # The region grants the blocks it has free, like the host
            # below: the requester may have counted an in-flight unplug
            # as gone that then ended partial.
            region_short = effective > len(free_indices)
            if region_short:
                effective = len(free_indices)
            # Host exhaustion is a structured outcome, not an exception:
            # an oversubscribed node grants what it can back (possibly
            # nothing) and the agent's retry/degrade machinery takes over.
            host_free_blocks = self.host_node.free_bytes // MEMORY_BLOCK_SIZE
            host_short = effective > host_free_blocks
            if host_short:
                effective = host_free_blocks
            if effective == 0:
                error = "host-oom" if host_short else "region-partial"
                device_phase = self.obs.span("phase.device", parent=span)
                yield self.vmm_core.submit(
                    self.costs.virtio_request_rtt_ns, VMM_LABEL
                )
                device_phase.close()
                end = self.sim.now
                log_plug(self.tracer, self.obs, span, start, end, requested, 0, error)
                return PlugResult(
                    requested_bytes=requested,
                    plugged_bytes=0,
                    latency_ns=end - start,
                    zeroed_pages=0,
                    error=error,
                    fault=partial,
                )
            chosen = free_indices[:effective]
            # Host backing is charged up front (the hypervisor hands the
            # guest zeroed pages).  ``plugged_indices`` is only updated on
            # completion so that observers see committed state (requests
            # are serialized, so the chosen indices cannot be stolen).
            self.host_node.charge(effective * MEMORY_BLOCK_SIZE)
            device_phase = self.obs.span("phase.device", parent=span)
            yield self.vmm_core.submit(self.costs.virtio_request_rtt_ns, VMM_LABEL)
            yield from self._maybe_stall(parent=span)
            device_phase.close()
            outcome = yield from self.driver.handle_plug(chosen, parent=span)
            self.plugged_indices.update(outcome.plugged_block_indices)
            end = self.sim.now
            plugged_bytes = outcome.plugged_blocks * MEMORY_BLOCK_SIZE
            if partial is not None:
                error = "partial"
            elif host_short:
                error = "host-partial"
            elif region_short:
                error = "region-partial"
            else:
                error = ""
            log_plug(
                self.tracer, self.obs, span, start, end, requested, plugged_bytes, error
            )
            return PlugResult(
                requested_bytes=requested,
                plugged_bytes=plugged_bytes,
                latency_ns=end - start,
                zeroed_pages=outcome.zeroed_pages,
                error=error,
                fault=partial,
            )
        finally:
            self._release()

    def _maybe_stall(self, parent: SpanLike = NULL_SPAN):
        """Process generator: injected extra latency on the device response.

        A stalled response is *absorbed*: the request still completes,
        only slower, so the fault is resolved on the spot and the added
        latency shows up in the recovery log and the plug/unplug traces.
        """
        fault = self.faults.fire(DEVICE_RESPONSE_DELAY, parent=parent)
        if fault is None:
            return None
        delay = self.faults.delay_ns(DEVICE_RESPONSE_DELAY)
        yield Timeout(delay)
        self.faults.resolve(fault, "absorbed")
        if self.recovery is not None:
            self.recovery.record(
                site=DEVICE_RESPONSE_DELAY,
                path="absorbed",
                detect_ns=self.sim.now - delay,
                resolve_ns=self.sim.now,
                parent=parent,
            )
        return None

    def plug_at_boot(self, size_bytes: int, zone) -> List[int]:
        """State-only plug during VM boot (not traced, no latency).

        Used to pre-populate HotMem's shared partition and to build the
        statically over-provisioned configuration of Figure 9.
        """
        n_blocks = bytes_to_blocks(size_bytes)
        free_indices = [
            i
            for i in self.manager.hotplug_block_indices()
            if i not in self.plugged_indices
        ]
        if n_blocks > len(free_indices):
            raise HotplugError(
                f"boot plug of {format_bytes(size_bytes)} exceeds device region"
            )
        chosen = free_indices[:n_blocks]
        self.host_node.charge(n_blocks * MEMORY_BLOCK_SIZE)
        self.plugged_indices.update(chosen)
        self.driver.plug_at_boot(chosen, zone)
        return chosen

    # ------------------------------------------------------------------
    # Unplug
    # ------------------------------------------------------------------
    def unplug(self, size_bytes: int, parent: SpanLike = NULL_SPAN):
        """Process generator: ask the guest to release ``size_bytes``.

        The guest may satisfy the request only partially (virtio-mem
        semantics).  The returned :class:`UnplugResult` latency covers
        request receipt through ``madvise(MADV_DONTNEED)`` of the last
        reclaimed block — the paper's measurement (Section 5.4).

        When tracing, the ``device.unplug`` span is tiled gaplessly by
        ``phase.*`` children (device round-trip + stall here, offline/
        migrate/zero in the driver, madvise back here), so phase sums
        equal the recorded unplug latency to the nanosecond.
        """
        n_blocks = bytes_to_blocks(size_bytes)
        yield from self._acquire()
        try:
            if n_blocks > len(self.plugged_indices):
                n_blocks = len(self.plugged_indices)
            requested = n_blocks * MEMORY_BLOCK_SIZE
            start = self.sim.now
            span = self.obs.span(
                "device.unplug", parent=parent, requested_bytes=requested
            )
            device_phase = self.obs.span("phase.device", parent=span)
            yield self.vmm_core.submit(self.costs.virtio_request_rtt_ns, VMM_LABEL)
            yield from self._maybe_stall(parent=span)
            device_phase.close()
            outcome = yield from self.driver.handle_unplug(n_blocks, parent=span)
            for index in outcome.unplugged_block_indices:
                if index not in self.plugged_indices:
                    raise HotplugError(f"guest unplugged unknown block {index}")
                self.plugged_indices.discard(index)
            if outcome.unplugged_blocks:
                # One madvise per contiguous run, marginal cost per extra
                # block in a run (runs == blocks without batched unplug).
                runs = outcome.contiguous_runs or outcome.unplugged_blocks
                madvise_cost = (
                    runs * self.costs.madvise_block_ns
                    + (outcome.unplugged_blocks - runs)
                    * self.costs.madvise_block_marginal_ns
                )
                madvise_phase = self.obs.span("phase.device", parent=span)
                yield self.vmm_core.submit(madvise_cost, VMM_LABEL)
                madvise_phase.close()
                self.host_node.discharge(
                    outcome.unplugged_blocks * MEMORY_BLOCK_SIZE
                )
            end = self.sim.now
            unplugged_bytes = outcome.unplugged_blocks * MEMORY_BLOCK_SIZE
            log_unplug(
                self.tracer,
                self.obs,
                span,
                start,
                end,
                requested,
                unplugged_bytes,
                outcome.migrated_pages,
            )
            return UnplugResult(
                requested_bytes=requested,
                unplugged_bytes=unplugged_bytes,
                latency_ns=end - start,
                migrated_pages=outcome.migrated_pages,
                scanned_blocks=outcome.scanned_blocks,
            )
        finally:
            self._release()

    # ------------------------------------------------------------------
    # Sanity
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Device and guest agreement on which blocks are plugged."""
        for i in self.manager.hotplug_block_indices():
            guest_online = self.manager.blocks[i].state is BlockState.ONLINE
            device_plugged = i in self.plugged_indices
            if guest_online != device_plugged:
                raise HotplugError(
                    f"block {i}: guest online={guest_online} but "
                    f"device plugged={device_plugged}"
                )
