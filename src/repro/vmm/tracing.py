"""Hypervisor-side tracing of resize requests.

Stand-in for the Cloud Hypervisor tracing framework the paper instruments
(Section 5.4).  Every plug and unplug request is timestamped from receipt
to completion; the metrics layer derives unplug latency (Figures 5/6) and
reclamation throughput (Figure 8) from these events.

Zero-completed unplugs (every block quarantined, a deferred sub-DIMM
request, a balloon with nothing to inflate) are recorded like any other
request: their latency charges the busy-time denominator of
:meth:`HypervisorTracer.reclaim_throughput_mib_per_sec` while adding no
reclaimed bytes — time spent failing to reclaim is still time the unplug
machinery was busy.

Every request is appended here whether or not tracing is on: the
datapath logs it through :func:`repro.virtio.device.log_plug` /
:func:`~repro.virtio.device.log_unplug`, which close the request's
``device.plug``/``device.unplug`` span beside the record.  The span
only observes; nothing reads it back into this log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["ResizeEvent", "HypervisorTracer"]


@dataclass
class ResizeEvent:
    """One completed resize request as the hypervisor saw it."""

    kind: str  # "plug" | "unplug"
    start_ns: int
    end_ns: int
    requested_bytes: int
    completed_bytes: int
    migrated_pages: int = 0
    #: Which VM and deployment mode issued the request (set by the
    #: fleet at provision time; "" for hand-built tracers).
    vm_name: str = ""
    mode: str = ""

    @property
    def latency_ns(self) -> int:
        return self.end_ns - self.start_ns


class HypervisorTracer:
    """Accumulates :class:`ResizeEvent` records for one VM."""

    def __init__(self, vm_name: str = "", mode: str = "") -> None:
        self.events: List[ResizeEvent] = []
        self.vm_name = vm_name
        self.mode = mode

    def record_plug(
        self, start_ns: int, end_ns: int, requested: int, completed: int
    ) -> None:
        """Record a completed plug request."""
        self.events.append(
            ResizeEvent(
                "plug",
                start_ns,
                end_ns,
                requested,
                completed,
                vm_name=self.vm_name,
                mode=self.mode,
            )
        )

    def record_unplug(
        self,
        start_ns: int,
        end_ns: int,
        requested: int,
        completed: int,
        migrated_pages: int,
    ) -> None:
        """Record a completed unplug request (``completed`` may be 0)."""
        self.events.append(
            ResizeEvent(
                "unplug",
                start_ns,
                end_ns,
                requested,
                completed,
                migrated_pages,
                vm_name=self.vm_name,
                mode=self.mode,
            )
        )

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def plug_events(self) -> List[ResizeEvent]:
        """All plug events, oldest first."""
        return [e for e in self.events if e.kind == "plug"]

    def unplug_events(self) -> List[ResizeEvent]:
        """All unplug events, oldest first (zero-completed included)."""
        return [e for e in self.events if e.kind == "unplug"]

    def total_unplugged_bytes(self) -> int:
        """Memory reclaimed across all unplug events."""
        return sum(e.completed_bytes for e in self.unplug_events())

    def total_unplug_busy_ns(self) -> int:
        """Wall time spent inside unplug requests (sum of latencies).

        Zero-completed unplugs count: a request that found every block
        quarantined still occupied the unplug machinery for its full
        latency, and dropping it would overstate throughput.
        """
        return sum(e.latency_ns for e in self.unplug_events())

    def reclaim_throughput_mib_per_sec(self) -> float:
        """Reclamation throughput over the busy unplug time (Figure 8).

        MiB reclaimed divided by the time the unplug machinery was busy
        reclaiming — the rate at which shrinking events release memory.
        """
        busy_ns = self.total_unplug_busy_ns()
        if busy_ns == 0:
            return 0.0
        mib = self.total_unplugged_bytes() / (1024 * 1024)
        return mib / (busy_ns / 1e9)
