"""Phase attribution report over an exported trace.

``python -m repro.experiments trace-report`` reads the JSONL written by
``--trace`` and answers the question the fragmented telemetry could
not: *where did the unplug latency go?*  Every ``device.unplug`` span
is tiled by its ``phase.*`` children (offline, migrate, zero, device
round-trip — ``mechanism`` for the balloon/DIMM baselines), so phase
sums match the recorded unplug latency to the nanosecond; the report
verifies that identity for every event and renders a per-mode P50/P99
breakdown plus the phase split of the exact P99 event.

Percentiles use nearest-rank (``metrics.latency.percentile``): a reported
P99 is an actual event from the run, which is what makes the "P99
phases" row well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "EvictionAttribution",
    "ModeBreakdown",
    "TraceReport",
    "UnplugAttribution",
    "build_report",
    "load_report",
]

#: Canonical phase order; unknown phases render after these.
PHASE_ORDER = ("offline", "migrate", "zero", "device", "mechanism")


@dataclass
class UnplugAttribution:
    """One ``device.unplug`` span tiled by its phase children."""

    context: int
    span_id: int
    mode: str
    vm: str
    start_ns: int
    end_ns: int
    phase_ns: Dict[str, int] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def phase_sum_ns(self) -> int:
        return sum(self.phase_ns.values())

    @property
    def exact(self) -> bool:
        """Do the phases tile the span with nanosecond-exact sums?"""
        return self.phase_sum_ns == self.duration_ns


@dataclass
class EvictionAttribution:
    """Cold starts attributed to one lifecycle policy's evictions.

    ``agent.evict`` events carry the policy name and rank that chose
    each victim; a later ``faas.spawn`` of the same function is a cold
    start that eviction re-imposed.  ``recolds`` counts evictions whose
    function cold-started again afterwards (matched earliest-first),
    and ``median_recold_ns`` is the median eviction→respawn gap — the
    warmth the policy actually gave up.
    """

    policy: str
    evictions: int
    pressure_evictions: int
    recolds: int
    median_recold_ns: int

    @property
    def recold_frac(self) -> float:
        """Fraction of evictions later paid back as a cold start."""
        return self.recolds / self.evictions if self.evictions else 0.0


@dataclass
class ModeBreakdown:
    """Per-mode unplug latency attribution."""

    mode: str
    unplugs: List[UnplugAttribution]
    p50_ns: int
    p99_ns: int
    p99_event: Optional[UnplugAttribution]
    phase_ns: Dict[str, int]

    @property
    def count(self) -> int:
        return len(self.unplugs)

    @property
    def exact_matches(self) -> int:
        return sum(1 for u in self.unplugs if u.exact)


@dataclass
class TraceReport:
    """Everything ``trace-report`` renders."""

    modes: List[ModeBreakdown]
    metric_modes: List[str]
    total_spans: int
    open_spans: int
    #: Per-policy eviction → cold-start attribution (empty when the
    #: trace holds no ``agent.evict`` events).
    eviction_policies: List[EvictionAttribution] = field(default_factory=list)

    @property
    def total_unplugs(self) -> int:
        return sum(m.count for m in self.modes)

    @property
    def exact_matches(self) -> int:
        return sum(m.exact_matches for m in self.modes)

    def render(self) -> str:
        lines = ["trace-report: unplug latency attribution by phase"]
        if not self.modes:
            lines.append("  (no device.unplug spans in this trace)")
        phases = _phase_columns(self.modes)
        if self.modes:
            header = (
                f"  {'mode':<16} {'unplugs':>7} {'p50_ms':>9} {'p99_ms':>9}"
                + "".join(f" {p + '%':>9}" for p in phases)
            )
            lines.append(header)
        for mode in self.modes:
            total = sum(mode.phase_ns.get(p, 0) for p in phases)
            shares = [
                (100.0 * mode.phase_ns.get(p, 0) / total) if total else 0.0
                for p in phases
            ]
            lines.append(
                f"  {mode.mode:<16} {mode.count:>7} "
                f"{mode.p50_ns / 1e6:>9.3f} {mode.p99_ns / 1e6:>9.3f}"
                + "".join(f" {s:>8.1f}%" for s in shares)
            )
            if mode.p99_event is not None:
                event = mode.p99_event
                parts = " ".join(
                    f"{p}={event.phase_ns.get(p, 0)}"
                    for p in phases
                    if event.phase_ns.get(p, 0)
                )
                lines.append(
                    f"    p99 event phases (ns): {parts or 'none'} "
                    f"total={event.phase_sum_ns} span={event.duration_ns}"
                )
        exact = self.exact_matches
        total = self.total_unplugs
        verdict = "nanosecond-exact" if exact == total else "MISMATCH"
        lines.append(
            f"  phase sums match unplug latencies: {exact}/{total}"
            f" ({verdict})"
        )
        if self.eviction_policies:
            lines.append("  eviction -> cold-start attribution by policy:")
            lines.append(
                f"    {'policy':<12} {'evicted':>7} {'pressure':>8} "
                f"{'recold':>6} {'recold%':>7} {'p50_gap_ms':>10}"
            )
            for policy in self.eviction_policies:
                lines.append(
                    f"    {policy.policy:<12} {policy.evictions:>7} "
                    f"{policy.pressure_evictions:>8} {policy.recolds:>6} "
                    f"{policy.recold_frac:>6.1%} "
                    f"{policy.median_recold_ns / 1e6:>10.3f}"
                )
        if self.metric_modes:
            lines.append(
                "  modes with labeled metrics: "
                + ", ".join(self.metric_modes)
            )
        lines.append(
            f"  spans={self.total_spans} open={self.open_spans}"
        )
        return "\n".join(lines)


def _phase_columns(modes: List[ModeBreakdown]) -> List[str]:
    seen = {p for m in modes for p in m.phase_ns}
    ordered = [p for p in PHASE_ORDER if p in seen]
    ordered += sorted(seen - set(PHASE_ORDER))
    return ordered


def build_report(records: List[Dict[str, object]]) -> TraceReport:
    """Attribute every exported ``device.unplug`` span to its phases."""
    # Imported here: repro.metrics pulls in the faas layer, which must
    # stay importable before repro.obs finishes loading.
    from repro.metrics.latency import percentile

    spans: Dict[Tuple[int, int], Dict[str, object]] = {}
    metric_modes = set()
    for record in records:
        if record.get("type") == "span":
            spans[(int(record["context"]), int(record["id"]))] = record
        elif record.get("type") == "metric":
            labels = record.get("labels") or {}
            if isinstance(labels, dict) and "mode" in labels:
                metric_modes.add(str(labels["mode"]))

    unplugs: Dict[Tuple[int, int], UnplugAttribution] = {}
    for key, record in spans.items():
        if record["name"] != "device.unplug":
            continue
        attrs = record.get("attrs") or {}
        unplugs[key] = UnplugAttribution(
            context=key[0],
            span_id=key[1],
            mode=str(attrs.get("mode", "?")),
            vm=str(attrs.get("vm", "?")),
            start_ns=int(record["start_ns"]),
            end_ns=int(record["end_ns"]),
        )

    for key, record in spans.items():
        name = str(record["name"])
        if not name.startswith("phase."):
            continue
        owner = _enclosing_unplug(spans, key)
        if owner is None:
            continue
        phase = name[len("phase."):]
        duration = int(record["end_ns"]) - int(record["start_ns"])
        attribution = unplugs[owner]
        attribution.phase_ns[phase] = (
            attribution.phase_ns.get(phase, 0) + duration
        )

    by_mode: Dict[str, List[UnplugAttribution]] = {}
    for attribution in unplugs.values():
        by_mode.setdefault(attribution.mode, []).append(attribution)

    modes: List[ModeBreakdown] = []
    for mode_name in sorted(by_mode):
        events = sorted(
            by_mode[mode_name],
            key=lambda u: (u.end_ns, u.context, u.span_id),
        )
        latencies = [u.duration_ns for u in events]
        p50 = percentile(latencies, 50.0)
        p99 = percentile(latencies, 99.0)
        p99_event = next(
            (u for u in events if u.duration_ns == p99), None
        )
        phase_totals: Dict[str, int] = {}
        for event in events:
            for phase, duration in event.phase_ns.items():
                phase_totals[phase] = phase_totals.get(phase, 0) + duration
        modes.append(
            ModeBreakdown(
                mode=mode_name,
                unplugs=events,
                p50_ns=p50,
                p99_ns=p99,
                p99_event=p99_event,
                phase_ns=phase_totals,
            )
        )

    open_spans = sum(
        1 for r in records if r.get("type") == "span" and r["end_ns"] is None
    )
    return TraceReport(
        modes=modes,
        metric_modes=sorted(metric_modes),
        total_spans=len(spans),
        open_spans=open_spans,
        eviction_policies=_attribute_evictions(spans),
    )


def _attribute_evictions(
    spans: Dict[Tuple[int, int], Dict[str, object]],
) -> List[EvictionAttribution]:
    """Join ``agent.evict`` events against later same-function spawns.

    Each eviction carries the policy and rank that chose it; the first
    ``faas.spawn`` of the same function *after* the eviction (within
    the same trace context, matched earliest-first, each spawn consumed
    once) is the cold start that eviction re-imposed.
    """
    evicts: List[Tuple[int, int, str, str, bool]] = []
    spawns: Dict[Tuple[int, str], List[int]] = {}
    for (context, _), record in spans.items():
        name = record["name"]
        attrs = record.get("attrs") or {}
        if name == "agent.evict":
            evicts.append(
                (
                    int(record["start_ns"]),
                    context,
                    str(attrs.get("policy", "?")),
                    str(attrs.get("function", "?")),
                    bool(attrs.get("pressure", False)),
                )
            )
        elif name == "faas.spawn":
            key = (context, str(attrs.get("function", "?")))
            spawns.setdefault(key, []).append(int(record["start_ns"]))
    for times in spawns.values():
        times.sort()
    evicts.sort()

    gaps: Dict[str, List[int]] = {}
    totals: Dict[str, int] = {}
    pressures: Dict[str, int] = {}
    for time_ns, context, policy, function, pressure in evicts:
        totals[policy] = totals.get(policy, 0) + 1
        if pressure:
            pressures[policy] = pressures.get(policy, 0) + 1
        pending = spawns.get((context, function), [])
        for position, spawn_ns in enumerate(pending):
            if spawn_ns > time_ns:
                gaps.setdefault(policy, []).append(spawn_ns - time_ns)
                del pending[position]
                break

    out: List[EvictionAttribution] = []
    for policy in sorted(totals):
        matched = sorted(gaps.get(policy, []))
        median = matched[len(matched) // 2] if matched else 0
        out.append(
            EvictionAttribution(
                policy=policy,
                evictions=totals[policy],
                pressure_evictions=pressures.get(policy, 0),
                recolds=len(matched),
                median_recold_ns=median,
            )
        )
    return out


def _enclosing_unplug(
    spans: Dict[Tuple[int, int], Dict[str, object]],
    key: Tuple[int, int],
) -> Optional[Tuple[int, int]]:
    """Walk parent links to the nearest ``device.unplug`` ancestor."""
    context, _ = key
    current = spans[key]
    while current is not None:
        parent_id = current.get("parent")
        if parent_id is None:
            return None
        parent_key = (context, int(parent_id))
        parent = spans.get(parent_key)
        if parent is None:
            return None
        if parent["name"] == "device.unplug":
            return parent_key
        if parent["name"] == "device.plug":
            return None
        current = parent
    return None


def load_report(path: str) -> TraceReport:
    """Read an exported JSONL trace and build its report."""
    from repro.obs.export import read_trace

    return build_report(read_trace(path))
