"""Recovery-path accounting: what the datapath did when it failed.

Every recovery action taken by the fault-handling machinery — a retried
block offline, a quarantined block, a deferred reclamation, degradation
to static mode — is recorded as a :class:`RecoveryEvent` in the VM's
:class:`RecoveryLog`.  The log is the metrics surface the chaos
experiment reads: recovery *latency* (detection to resolution) and the
distribution of paths taken (recovered vs. degraded) per fault rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.context import NO_SCOPE, ObsScope
from repro.obs.span import NULL_SPAN, SpanLike

__all__ = [
    "RecoveryEvent",
    "RecoveryLog",
    "RECOVERED_PATHS",
    "DEGRADED_PATHS",
    "FAILED_OVER_PATHS",
]

#: Paths where the operation eventually succeeded (the fault was masked).
RECOVERED_PATHS = frozenset(
    {
        "retried",
        "absorbed",
        "serialized",
        "healed",
        "deferred",
        "deferred-done",
        "force-recycled",
    }
)
#: Paths where the system gave up something (graceful degradation).
DEGRADED_PATHS = frozenset(
    {
        "quarantined",
        "partial-unplug",
        "static-fallback",
        "plug-shortfall",
        "dropped",
        "oom-failfast",
        "invocation-failed",
        "deadline",
        "link-down",
        "evacuation-rejected",
    }
)
#: Paths where the work survived by *moving* — to a sibling VM (router
#: failover) or to a surviving host (evacuation/re-provisioning) — and
#: so paid a relocation cost rather than completing in place.
FAILED_OVER_PATHS = frozenset(
    {"failed-over", "rerouted", "evacuated", "reprovisioned"}
)


@dataclass(frozen=True)
class RecoveryEvent:
    """One handled failure: where it happened and how it was resolved."""

    #: Failure site (a :mod:`repro.faults.sites` name or an internal
    #: ``driver.unplug.*`` / ``agent.*`` label for natural failures).
    site: str
    #: Recovery path taken (see :data:`RECOVERED_PATHS` /
    #: :data:`DEGRADED_PATHS`).
    path: str
    #: When the failure was first detected.
    detect_ns: int
    #: When the recovery action completed (success, quarantine, ...).
    resolve_ns: int
    #: Attempts spent (1 = first try, no retries).
    attempts: int = 1
    block_index: Optional[int] = None
    partition_id: Optional[int] = None

    @property
    def latency_ns(self) -> int:
        """Detection-to-resolution latency."""
        return self.resolve_ns - self.detect_ns

    @property
    def latency_ms(self) -> float:
        return self.latency_ns / 1e6

    @property
    def recovered(self) -> bool:
        """Whether the operation ultimately succeeded."""
        return self.path in RECOVERED_PATHS

    @property
    def failed_over(self) -> bool:
        """Whether the work survived by moving elsewhere."""
        return self.path in FAILED_OVER_PATHS


class RecoveryLog:
    """Append-only log of recovery events for one VM.

    :meth:`record` always appends the :class:`RecoveryEvent` itself.
    With tracing enabled (an ``obs`` scope whose context is live) it
    also closes a ``recovery`` span with the same detect/resolve
    timestamps beside the record; the span only observes, and nothing
    reads it back into ``events``.
    """

    def __init__(self, obs: Optional[ObsScope] = None) -> None:
        self.events: List[RecoveryEvent] = []
        self._obs = obs if obs is not None else NO_SCOPE

    def record(
        self,
        site: str,
        path: str,
        detect_ns: int,
        resolve_ns: int,
        attempts: int = 1,
        block_index: Optional[int] = None,
        partition_id: Optional[int] = None,
        parent: SpanLike = NULL_SPAN,
    ) -> RecoveryEvent:
        """Append one event; returns it for convenience."""
        event = RecoveryEvent(
            site=site,
            path=path,
            detect_ns=detect_ns,
            resolve_ns=resolve_ns,
            attempts=attempts,
            block_index=block_index,
            partition_id=partition_id,
        )
        self.events.append(event)
        self._obs.inc("recovery_events_total", site=site, path=path)
        self._obs.span(
            "recovery",
            parent=parent,
            start_ns=detect_ns,
            site=site,
            path=path,
            attempts=attempts,
            block_index=block_index,
            partition_id=partition_id,
        ).close(end_ns=resolve_ns)
        return event

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def count(self, path: Optional[str] = None) -> int:
        """Events recorded (optionally restricted to one path)."""
        if path is None:
            return len(self.events)
        return sum(1 for event in self.events if event.path == path)

    def by_path(self) -> Dict[str, int]:
        """Path → event count, in first-seen order."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.path] = counts.get(event.path, 0) + 1
        return counts

    def recovered_count(self) -> int:
        """Events whose operation ultimately succeeded."""
        return sum(1 for event in self.events if event.recovered)

    def failed_over_count(self) -> int:
        """Events where the work survived by moving elsewhere."""
        return sum(1 for event in self.events if event.failed_over)

    def degraded_count(self) -> int:
        """Events where the system degraded instead of recovering."""
        return sum(
            1
            for event in self.events
            if not event.recovered and not event.failed_over
        )

    def latencies_ms(self, path: Optional[str] = None) -> List[float]:
        """Recovery latencies in ms (optionally for one path)."""
        return [
            event.latency_ms
            for event in self.events
            if path is None or event.path == path
        ]

    def latency_p99_ms(self, path: Optional[str] = None) -> float:
        """P99 recovery latency in ms (0 when no events)."""
        # Imported here: repro.metrics pulls in the faas layer, which
        # sits above this module in the import graph.
        from repro.metrics.latency import percentile

        latencies = self.latencies_ms(path)
        if not latencies:
            return 0.0
        return percentile(latencies, 99.0)

    def mttr_ms(self, site: Optional[str] = None) -> float:
        """Mean time-to-recovery in ms (optionally for one site).

        Detection-to-resolution, averaged over every event at the site
        (0 when no events) — the fleet-availability headline the
        ``cluster-chaos`` sweep reports per fault rate.
        """
        latencies = [
            event.latency_ms
            for event in self.events
            if site is None or event.site == site
        ]
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)

    def mttr_by_site(self) -> Dict[str, float]:
        """Site → mean time-to-recovery in ms, sorted by site name."""
        sites = sorted({event.site for event in self.events})
        return {site: self.mttr_ms(site) for site in sites}

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per-site rollup: counts by outcome category plus MTTR.

        Keys are site names in sorted order; each value carries
        ``events``, ``recovered``, ``degraded``, ``failed_over`` counts
        and ``mttr_ms``.  Rendered by the ``chaos`` and
        ``cluster-chaos`` reports.
        """
        rollup: Dict[str, Dict[str, object]] = {}
        for site in sorted({event.site for event in self.events}):
            at_site = [event for event in self.events if event.site == site]
            rollup[site] = {
                "events": len(at_site),
                "recovered": sum(1 for e in at_site if e.recovered),
                "failed_over": sum(1 for e in at_site if e.failed_over),
                "degraded": sum(
                    1 for e in at_site if not e.recovered and not e.failed_over
                ),
                "mttr_ms": self.mttr_ms(site),
            }
        return rollup

    def __repr__(self) -> str:
        return f"<RecoveryLog events={len(self.events)} paths={self.by_path()}>"
