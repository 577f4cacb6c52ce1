"""The report's streaming-telemetry sections: assembly, rendering,
digest stability."""

import re

import pytest

from repro.obs.export import encode_rows
from repro.obs.report import build_report, load_report
from repro.obs.rollup import RollupSeries
from repro.obs.sketch import QuantileSketch
from repro.units import GIB, SEC


def _rollup_row(context, name, kind, labels, values):
    series = RollupSeries(name, kind=kind, labels=labels, width_ns=SEC)
    for i, value in enumerate(values):
        series.record(i * SEC, value)
    row = series.to_row()
    row["context"] = context
    return row


def _sketch_row(context, name, values, labels=None):
    sketch = QuantileSketch(name, labels=labels or {})
    sketch.observe_many(values)
    row = sketch.to_row()
    row["context"] = context
    return row


def _breach_row(context, span_id, start_s, end_s, bad=5, total=20):
    return {
        "type": "span",
        "context": context,
        "id": span_id,
        "trace": 1,
        "parent": 1,
        "name": "slo.breach",
        "start_ns": start_s * SEC,
        "end_ns": end_s * SEC,
        "attrs": {
            "slo": "latency",
            "kind": "latency",
            "bad": bad,
            "total": total,
            "pressure": 2,
            "burn_x1000": 2500,
        },
    }


def _records():
    host_labels = {"host": 0, "mode": "hotmem"}
    node_labels = {"host": 0, "mode": "hotmem", "node": 0}
    return [
        {"type": "meta", "context": 0, "spans": 1, "metrics": 0},
        _breach_row(0, 2, 8, 16),
        _rollup_row(
            0, "used-h0", "used", host_labels, [1.0 * GIB, 3.0 * GIB]
        ),
        _rollup_row(
            0, "used-h0n0", "used", node_labels, [1.0 * GIB, 3.0 * GIB]
        ),
        _sketch_row(0, "fleet.invocation_latency_ns", [10_000, 20_000]),
        {"type": "meta", "context": 1, "spans": 0, "metrics": 0},
        _sketch_row(1, "fleet.invocation_latency_ns", [40_000]),
    ]


class TestBuild:
    def test_host_rows_render_and_node_rows_are_summarised(self):
        report = build_report(_records())
        assert [s.name for _, s in report.rollups] == ["used-h0"]
        assert report.rollup_rows == 2
        context, series = report.rollups[0]
        assert context == 0
        assert series.max_value() == 3.0 * GIB

    def test_sketches_merge_across_contexts(self):
        report = build_report(_records())
        assert len(report.sketches) == 1
        merged, contexts = report.sketches[0]
        assert contexts == 2
        assert merged.count == 3
        assert merged.vmax == 40_000

    def test_breach_windows_come_from_slo_breach_spans(self):
        report = build_report(_records())
        assert len(report.breaches) == 1
        breach = report.breaches[0]
        assert breach.slo == "latency"
        assert (breach.bad, breach.total) == (5, 20)
        assert breach.burn_x1000 == 2500

    def test_context_count_spans_all_row_types(self):
        report = build_report(_records())
        assert report.contexts == 2

    def test_empty_trace_builds_an_empty_report(self):
        report = build_report([])
        assert report.modes == []
        assert report.rollups == []
        assert report.sketches == []
        assert report.breaches == []
        rendered = report.render()
        assert "(no device.unplug spans in this trace)" in rendered
        assert "phase sums match unplug latencies: 0/0" in rendered
        assert "(no rollup rows in this trace)" in rendered
        assert "(none)" in rendered


class TestRender:
    def test_sections_and_footer(self):
        rendered = build_report(_records()).render()
        assert rendered.startswith("report: unplug attribution")
        assert "host memory timelines (per-host rollups):" in rendered
        assert "sketch percentiles (merged across contexts):" in rendered
        assert "slo breach windows:" in rendered
        assert "(+1 per-node rollup series" in rendered
        assert rendered.splitlines()[-1] == (
            "  spans=1 open=0 contexts=2 rollups=2 sketches=1 breaches=1"
        )

    def test_digest_is_stable_and_tracks_content(self):
        a = build_report(_records())
        b = build_report(_records())
        assert a.digest == b.digest
        shifted = build_report(_records() + [_breach_row(1, 3, 0, 8)])
        assert shifted.digest != a.digest

    def test_record_order_does_not_change_the_digest(self):
        records = _records()
        report = build_report(records)
        assert build_report(records[::-1]).digest == report.digest

    def test_summary_line_shape(self):
        line = build_report(_records()).summary_line("trace.jsonl")
        assert re.fullmatch(
            r"\[report: sha256=[0-9a-f]{64} spans=1 open=0 rollups=2 "
            r"sketches=1 breaches=1 file=trace\.jsonl\]",
            line,
        )


class TestLoad:
    def test_load_round_trips_through_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(encode_rows(_records()))
        report = load_report(str(path))
        assert report.digest == build_report(_records()).digest

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_report(str(tmp_path / "absent.jsonl"))
