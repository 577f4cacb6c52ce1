"""``repro.obs`` — deterministic tracing and telemetry for the datapath.

End-to-end observability on the simulated clock: causal spans with
parent links (:mod:`repro.obs.span`), a unified labeled metrics
registry (:mod:`repro.obs.metrics`), the per-fleet context and the
label-stamping scopes threaded through faas/virtio/mm/modes/cluster/
faults (:mod:`repro.obs.context`), the global ``--trace`` session
(:mod:`repro.obs.session`) and deterministic JSONL export
(:mod:`repro.obs.export`).

The streaming layer rides on top: bounded-memory rollup series
(:mod:`repro.obs.rollup`), mergeable quantile sketches
(:mod:`repro.obs.sketch`) and windowed SLO burn-rate monitors
(:mod:`repro.obs.slo`).  One ``report`` (:mod:`repro.obs.report`) reads
an export back: unplug phase attribution, host memory timelines,
sketch percentiles, SLO breach windows and eviction → cold-start
attribution, under one digest.

Everything is opt-in: with no session installed the datapath threads
the inert ``NO_OBS``/``NO_SCOPE``/``NULL_SPAN`` singletons and runs
byte-identical to an unobserved tree.  Even when tracing is on, spans
never schedule simulation events, so the event stream — and therefore
every latency — is unchanged.
"""

from repro.obs.context import NO_OBS, NO_SCOPE, ObsContext, ObsScope
from repro.obs.export import (
    TraceExportSummary,
    context_rows,
    encode_rows,
    export_session,
    read_trace,
    session_rows,
    span_row,
    write_rows,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import TraceReport, build_report, load_report
from repro.obs.rollup import RollupSeries
from repro.obs.sketch import SKETCH_RELATIVE_ERROR, QuantileSketch
from repro.obs.slo import SloMonitor, SloSpec, SloWindow
from repro.obs.session import (
    ObsSession,
    context_for,
    current_session,
    install,
    is_installed,
    scoped_session,
    traced,
    uninstall,
)
from repro.obs.span import NULL_SPAN, Span, Tracer

__all__ = [
    # spans
    "Span",
    "Tracer",
    "NULL_SPAN",
    # metrics
    "MetricsRegistry",
    # context threading
    "ObsContext",
    "ObsScope",
    "NO_OBS",
    "NO_SCOPE",
    # global --trace session
    "ObsSession",
    "install",
    "uninstall",
    "is_installed",
    "current_session",
    "context_for",
    "traced",
    "scoped_session",
    # streaming telemetry
    "RollupSeries",
    "QuantileSketch",
    "SKETCH_RELATIVE_ERROR",
    "SloMonitor",
    "SloSpec",
    "SloWindow",
    # export + report
    "TraceExportSummary",
    "export_session",
    "read_trace",
    "span_row",
    "context_rows",
    "session_rows",
    "encode_rows",
    "write_rows",
    "TraceReport",
    "build_report",
    "load_report",
]
