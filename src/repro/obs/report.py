"""One report over an exported trace.

``python -m repro.experiments report`` reads the JSONL written by
``--trace`` in one pass and renders, in order:

- **unplug latency attribution by phase.**  Every ``device.unplug``
  span is tiled by its ``phase.*`` children (offline, migrate, zero,
  device round-trip — ``mechanism`` for the balloon/DIMM baselines), so
  phase sums match the recorded unplug latency to the nanosecond; the
  report verifies that identity for every event and renders a per-mode
  P50/P99 breakdown plus the phase split of the exact P99 event;
- **host memory timelines** from the per-host ``rollup`` rows, with
  ASCII sparklines;
- **sketch percentiles** from the ``sketch`` rows, merged across
  contexts by name and mode with :meth:`QuantileSketch.merge`;
- **SLO breach windows** from the ``slo.breach`` spans;
- **eviction → cold-start attribution** per lifecycle policy;
- the modes that carry labeled metrics, and one footer of counts.

Percentiles use nearest-rank (``metrics.latency.percentile``): a reported
P99 is an actual event from the run, which is what makes the "P99
phases" row well-defined.  Rendering is deterministic — rows sort on
their keys and every number formats through fixed-width format specs —
so the report's SHA-256 digest is byte-stable across reruns and sweep
worker counts; CI gates on exactly that.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.obs.rollup import RollupSeries
from repro.obs.sketch import QuantileSketch
from repro.units import GIB, SEC

__all__ = [
    "BreachWindow",
    "EvictionAttribution",
    "ModeBreakdown",
    "TraceReport",
    "UnplugAttribution",
    "build_report",
    "load_report",
]

#: Canonical phase order; unknown phases render after these.
PHASE_ORDER = ("offline", "migrate", "zero", "device", "mechanism")
#: Sparkline glyphs, low to high (ASCII so CI logs stay clean).
SPARK_LEVELS = ".:-=+*#%@"
#: Sparkline width cap (buckets re-chunk into at most this many cells).
SPARK_WIDTH = 40

#: ``(time_ns, context, policy, function, pressure)`` of one eviction.
_Evict = Tuple[int, int, str, str, bool]


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
    and ``median_recold_ns`` is the nearest-rank P50 eviction→respawn
    gap — the warmth the policy actually gave up.
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
class BreachWindow:
    """One ``slo.breach`` span from the trace."""

    context: int
    slo: str
    kind: str
    start_ns: int
    end_ns: int
    bad: int
    total: int
    pressure: int
    burn_x1000: int


@dataclass
class TraceReport:
    """Everything ``report`` renders."""

    modes: List[ModeBreakdown]
    metric_modes: List[str]
    total_spans: int
    open_spans: int
    #: Per-policy eviction → cold-start attribution (empty when the
    #: trace holds no ``agent.evict`` events).
    eviction_policies: List[EvictionAttribution]
    #: ``(context, series)`` per non-empty host-level rollup row.
    rollups: List[Tuple[int, RollupSeries]]
    #: Every rollup row in the trace (host-level + per-node).
    rollup_rows: int
    #: ``(merged sketch, contexts merged)`` per non-empty (name, mode).
    sketches: List[Tuple[QuantileSketch, int]]
    breaches: List[BreachWindow]
    contexts: int

    @property
    def total_unplugs(self) -> int:
        return sum(m.count for m in self.modes)

    @property
    def exact_matches(self) -> int:
        return sum(m.exact_matches for m in self.modes)

    def render(self) -> str:
        lines = ["report: unplug attribution and fleet telemetry"]
        lines.extend(self._render_unplugs())
        lines.extend(self._render_rollups())
        lines.extend(self._render_sketches())
        lines.extend(self._render_breaches())
        lines.extend(self._render_evictions())
        if self.metric_modes:
            lines.append(
                "  modes with labeled metrics: "
                + ", ".join(self.metric_modes)
            )
        lines.append(
            f"  spans={self.total_spans} open={self.open_spans} "
            f"contexts={self.contexts} rollups={self.rollup_rows} "
            f"sketches={len(self.sketches)} breaches={len(self.breaches)}"
        )
        return "\n".join(lines)

    @property
    def digest(self) -> str:
        """SHA-256 of the rendered report (the CI rerun gate)."""
        return hashlib.sha256(self.render().encode()).hexdigest()

    def summary_line(self, path: str) -> str:
        return (
            f"[report: sha256={self.digest} spans={self.total_spans} "
            f"open={self.open_spans} rollups={self.rollup_rows} "
            f"sketches={len(self.sketches)} breaches={len(self.breaches)} "
            f"file={path}]"
        )

    # -- sections ------------------------------------------------------
    def _render_unplugs(self) -> List[str]:
        lines = ["  unplug latency attribution by phase:"]
        phases = _phase_columns(self.modes)
        if not self.modes:
            lines.append("    (no device.unplug spans in this trace)")
        else:
            lines.append(
                f"    {'mode':<16} {'unplugs':>7} {'p50_ms':>9} {'p99_ms':>9}"
                + "".join(f" {p + '%':>9}" for p in phases)
            )
        for mode in self.modes:
            total = sum(mode.phase_ns.get(p, 0) for p in phases)
            shares = [
                (100.0 * mode.phase_ns.get(p, 0) / total) if total else 0.0
                for p in phases
            ]
            lines.append(
                f"    {mode.mode:<16} {mode.count:>7} "
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
                    f"      p99 event phases (ns): {parts or 'none'} "
                    f"total={event.phase_sum_ns} span={event.duration_ns}"
                )
        exact = self.exact_matches
        total = self.total_unplugs
        verdict = "nanosecond-exact" if exact == total else "MISMATCH"
        lines.append(
            f"    phase sums match unplug latencies: {exact}/{total}"
            f" ({verdict})"
        )
        return lines

    def _render_rollups(self) -> List[str]:
        lines = ["  host memory timelines (per-host rollups):"]
        if not self.rollups:
            lines.append("    (no rollup rows in this trace)")
            return lines
        lines.append(
            f"    {'series':<14} {'ctx':>3} {'mode':<16} {'samples':>7} "
            f"{'bkts':>4} {'min_gib':>8} {'mean_gib':>9} {'max_gib':>8} "
            f"{'last_gib':>9}  timeline"
        )
        for context, series in self.rollups:
            mode = str(series.labels.get("mode", "-"))
            lines.append(
                f"    {series.name:<14} {context:>3} {mode:<16} "
                f"{series.count:>7} {series.bucket_count():>4} "
                f"{series.min_value() / GIB:>8.3f} "
                f"{series.mean() / GIB:>9.3f} "
                f"{series.max_value() / GIB:>8.3f} "
                f"{series.last()[1] / GIB:>9.3f}  |{_spark(series)}|"
            )
        hidden = self.rollup_rows - len(self.rollups)
        if hidden > 0:
            lines.append(
                f"    (+{hidden} per-node rollup series"
                f" summarised into the host rows above)"
            )
        return lines

    def _render_sketches(self) -> List[str]:
        lines = ["  sketch percentiles (merged across contexts):"]
        if not self.sketches:
            lines.append("    (no sketch rows in this trace)")
            return lines
        lines.append(
            f"    {'sketch':<28} {'mode':<16} {'ctxs':>4} {'count':>7} "
            f"{'p50_ms':>8} {'p90_ms':>8} {'p99_ms':>8} {'p99.9_ms':>9} "
            f"{'max_ms':>8}"
        )
        for sketch, contexts in self.sketches:
            mode = str(sketch.labels.get("mode", "all"))
            p50, p90, p99, p999 = (
                sketch.quantile(q) / 1e6 for q in (50, 90, 99, 99.9)
            )
            lines.append(
                f"    {sketch.name:<28} {mode:<16} {contexts:>4} "
                f"{sketch.count:>7} {p50:>8.3f} {p90:>8.3f} "
                f"{p99:>8.3f} {p999:>9.3f} {sketch.vmax / 1e6:>8.3f}"
            )
        return lines

    def _render_breaches(self) -> List[str]:
        lines = ["  slo breach windows:"]
        if not self.breaches:
            lines.append("    (none)")
            return lines
        lines.append(
            f"    {'ctx':>3} {'slo':<14} {'kind':<10} {'window_s':>17} "
            f"{'bad/total':>10} {'burn':>6} {'pressure':>8}"
        )
        for b in self.breaches:
            window = f"{b.start_ns / SEC:.1f}-{b.end_ns / SEC:.1f}"
            lines.append(
                f"    {b.context:>3} {b.slo:<14} {b.kind:<10} {window:>17} "
                f"{f'{b.bad}/{b.total}':>10} {b.burn_x1000 / 1000:>6.2f} "
                f"{b.pressure:>8}"
            )
        return lines

    def _render_evictions(self) -> List[str]:
        if not self.eviction_policies:
            return []
        lines = ["  eviction -> cold-start attribution by policy:"]
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
        return lines


def _phase_columns(modes: List[ModeBreakdown]) -> List[str]:
    seen = {p for m in modes for p in m.phase_ns}
    ordered = [p for p in PHASE_ORDER if p in seen]
    ordered += sorted(seen - set(PHASE_ORDER))
    return ordered


def _spark(series: RollupSeries) -> str:
    """A fixed-width ASCII sparkline of the per-bucket means."""
    timeline = series.timeline()
    if not timeline:
        return ""
    means = [mean for _, _, _, mean, _ in timeline]
    if len(means) > SPARK_WIDTH:
        chunked: List[float] = []
        for cell in range(SPARK_WIDTH):
            lo = cell * len(means) // SPARK_WIDTH
            hi = max(lo + 1, (cell + 1) * len(means) // SPARK_WIDTH)
            chunk = means[lo:hi]
            chunked.append(sum(chunk) / len(chunk))
        means = chunked
    lo = min(means)
    hi = max(means)
    if hi <= lo:
        return SPARK_LEVELS[0] * len(means)
    scale = len(SPARK_LEVELS) - 1
    return "".join(
        SPARK_LEVELS[int((value - lo) / (hi - lo) * scale)]
        for value in means
    )


def _labels_key(labels: Dict[str, object]) -> str:
    return json.dumps(labels, sort_keys=True, separators=(",", ":"))


def build_report(records: List[Dict[str, object]]) -> TraceReport:
    """Build every section of the report in one pass over the records."""
    spans: Dict[Tuple[int, int], Dict[str, object]] = {}
    open_spans = 0
    contexts: Set[int] = set()
    metric_modes: Set[str] = set()
    unplugs: Dict[Tuple[int, int], UnplugAttribution] = {}
    phases: List[Tuple[int, int]] = []
    evicts: List[_Evict] = []
    spawns: Dict[Tuple[int, str], List[int]] = {}
    breaches: List[BreachWindow] = []
    rollup_rows: List[Dict[str, object]] = []
    merged: Dict[Tuple[str, str], Tuple[QuantileSketch, Set[int]]] = {}
    for record in records:
        kind = record.get("type")
        context = int(record.get("context", 0))
        if "context" in record:
            contexts.add(context)
        if kind == "span":
            key = (context, int(record["id"]))
            spans[key] = record
            if record["end_ns"] is None:
                open_spans += 1
            name = str(record["name"])
            attrs = record.get("attrs") or {}
            if name == "device.unplug":
                unplugs[key] = UnplugAttribution(
                    context=context,
                    span_id=key[1],
                    mode=str(attrs.get("mode", "?")),
                    vm=str(attrs.get("vm", "?")),
                    start_ns=int(record["start_ns"]),
                    end_ns=int(record["end_ns"]),
                )
            elif name.startswith("phase."):
                phases.append(key)
            elif name == "agent.evict":
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
                spawns.setdefault(
                    (context, str(attrs.get("function", "?"))), []
                ).append(int(record["start_ns"]))
            elif name == "slo.breach":
                breaches.append(_breach_window(context, record, attrs))
        elif kind == "metric":
            labels = record.get("labels") or {}
            if isinstance(labels, dict) and "mode" in labels:
                metric_modes.add(str(labels["mode"]))
        elif kind == "rollup":
            rollup_rows.append(record)
        elif kind == "sketch":
            sketch = QuantileSketch.from_row(record)
            group = (sketch.name, str(sketch.labels.get("mode", "all")))
            if group in merged:
                merged[group][0].merge(sketch)
            else:
                merged[group] = (sketch, set())
            merged[group][1].add(context)

    for key in phases:
        owner = _enclosing_unplug(spans, key)
        if owner is None:
            continue
        record = spans[key]
        phase = str(record["name"])[len("phase."):]
        duration = int(record["end_ns"]) - int(record["start_ns"])
        attribution = unplugs[owner]
        attribution.phase_ns[phase] = (
            attribution.phase_ns.get(phase, 0) + duration
        )

    breaches.sort(key=lambda b: (b.context, b.slo, b.start_ns, b.end_ns))
    return TraceReport(
        modes=_mode_breakdowns(unplugs.values()),
        metric_modes=sorted(metric_modes),
        total_spans=len(spans),
        open_spans=open_spans,
        eviction_policies=_attribute_evictions(evicts, spawns),
        rollups=_host_rollups(rollup_rows),
        rollup_rows=len(rollup_rows),
        sketches=[
            (merged[group][0], len(merged[group][1]))
            for group in sorted(merged)
            if merged[group][0].count
        ],
        breaches=breaches,
        contexts=len(contexts),
    )


def _breach_window(
    context: int, record: Dict[str, object], attrs: Dict[str, object]
) -> BreachWindow:
    start_ns = int(record["start_ns"])
    return BreachWindow(
        context=context,
        slo=str(attrs.get("slo", "?")),
        kind=str(attrs.get("kind", "?")),
        start_ns=start_ns,
        end_ns=int(record["end_ns"] or start_ns),
        bad=int(attrs.get("bad", 0)),
        total=int(attrs.get("total", 0)),
        pressure=int(attrs.get("pressure", 0)),
        burn_x1000=int(attrs.get("burn_x1000", 0)),
    )


def _mode_breakdowns(
    unplugs: Iterable[UnplugAttribution],
) -> List[ModeBreakdown]:
    """Group attributed unplugs by mode with nearest-rank P50/P99."""
    # Imported here: repro.metrics pulls in the faas layer, which must
    # stay importable before repro.obs finishes loading.
    from repro.metrics.latency import percentile

    by_mode: Dict[str, List[UnplugAttribution]] = {}
    for attribution in unplugs:
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
    return modes


def _host_rollups(
    rows: List[Dict[str, object]],
) -> List[Tuple[int, RollupSeries]]:
    """The non-empty host-level rollups, by (name, labels, context)."""
    out: List[Tuple[int, RollupSeries]] = []
    for row in sorted(
        rows,
        key=lambda r: (
            str(r.get("name", "")),
            _labels_key(r.get("labels") or {}),  # type: ignore[arg-type]
            int(r.get("context", 0)),
        ),
    ):
        if "node" in (row.get("labels") or {}):
            continue  # host-level rows carry the per-node sums already
        series = RollupSeries.from_row(row)
        if series.buckets:
            out.append((int(row.get("context", 0)), series))
    return out


def _attribute_evictions(
    evicts: List[_Evict],
    spawns: Dict[Tuple[int, str], List[int]],
) -> List[EvictionAttribution]:
    """Join ``agent.evict`` events against later same-function spawns.

    Each eviction carries the policy and rank that chose it; the first
    ``faas.spawn`` of the same function *after* the eviction (within
    the same trace context, matched earliest-first, each spawn consumed
    once) is the cold start that eviction re-imposed.
    """
    from repro.metrics.latency import percentile

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
        matched = gaps.get(policy, [])
        out.append(
            EvictionAttribution(
                policy=policy,
                evictions=totals[policy],
                pressure_evictions=pressures.get(policy, 0),
                recolds=len(matched),
                median_recold_ns=percentile(matched, 50) if matched else 0,
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
