"""The one trace report: unplug attribution, the eviction join, sketch
grouping, sparklines, section order, and the ``report`` CLI."""

import re

import pytest

from repro.experiments.__main__ import main
from repro.obs.report import SPARK_WIDTH, _spark, build_report
from repro.obs.rollup import RollupSeries
from repro.obs.sketch import QuantileSketch
from repro.units import SEC


def _span(context, span_id, name, start_ns, end_ns, parent=None, **attrs):
    return {
        "type": "span",
        "context": context,
        "id": span_id,
        "trace": 1,
        "parent": parent,
        "name": name,
        "start_ns": start_ns,
        "end_ns": end_ns,
        "attrs": attrs,
    }


def _evict(context, span_id, time_ns, function, policy="ttl", pressure=False):
    return _span(
        context, span_id, "agent.evict", time_ns, time_ns,
        policy=policy, function=function, pressure=pressure, rank=0,
    )


def _spawn(context, span_id, time_ns, function):
    return _span(
        context, span_id, "faas.spawn", time_ns, time_ns + 10,
        function=function,
    )


def _unplug(context, span_id, start_ns, end_ns, mode="hotmem", parent=None):
    return _span(
        context, span_id, "device.unplug", start_ns, end_ns, parent,
        mode=mode, vm="vm0",
    )


def _phase(context, span_id, phase, start_ns, end_ns, parent):
    return _span(context, span_id, f"phase.{phase}", start_ns, end_ns, parent)


def _sketch_row(context, name, values, labels):
    sketch = QuantileSketch(name, labels=labels)
    sketch.observe_many(values)
    row = sketch.to_row()
    row["context"] = context
    return row


def _rollup_row(context, name, values):
    series = RollupSeries(name, kind="used", labels={"host": 0}, width_ns=SEC)
    for i, value in enumerate(values):
        series.record(i * SEC, value)
    row = series.to_row()
    row["context"] = context
    return row


#: The two per-section report commands that ``report`` replaced.
RETIRED_COMMANDS = [f"{prefix}-report" for prefix in ("trace", "obs")]


def _policy(records, policy="ttl"):
    (row,) = [
        p for p in build_report(records).eviction_policies
        if p.policy == policy
    ]
    return row


class TestEvictionJoin:
    def test_spawn_matches_the_earliest_eviction_of_its_function(self):
        row = _policy([
            _evict(0, 1, 100, "f"),
            _evict(0, 2, 200, "f"),
            _spawn(0, 3, 250, "f"),
        ])
        assert row.median_recold_ns == 150

    def test_each_spawn_is_used_once(self):
        row = _policy([
            _evict(0, 1, 100, "f"),
            _evict(0, 2, 200, "f"),
            _spawn(0, 3, 250, "f"),
        ])
        assert (row.evictions, row.recolds) == (2, 1)

    def test_spawn_before_the_eviction_never_matches(self):
        row = _policy([
            _spawn(0, 1, 50, "f"),
            _spawn(0, 2, 100, "f"),
            _evict(0, 3, 100, "f"),
        ])
        assert (row.evictions, row.recolds) == (1, 0)
        assert row.median_recold_ns == 0

    def test_spawn_in_another_context_never_matches(self):
        row = _policy([_evict(0, 1, 100, "f"), _spawn(1, 1, 200, "f")])
        assert row.recolds == 0

    def test_spawn_of_another_function_never_matches(self):
        row = _policy([_evict(0, 1, 100, "f"), _spawn(0, 2, 200, "g")])
        assert row.recolds == 0

    def test_pressure_evictions_are_counted(self):
        row = _policy([
            _evict(0, 1, 100, "f", pressure=True),
            _evict(0, 2, 200, "g"),
        ])
        assert (row.evictions, row.pressure_evictions) == (2, 1)

    def test_policies_are_attributed_separately_and_sorted(self):
        report = build_report([
            _evict(0, 1, 100, "f", policy="ttl"),
            _evict(0, 2, 100, "g", policy="lru"),
            _spawn(0, 3, 300, "g"),
        ])
        assert [p.policy for p in report.eviction_policies] == ["lru", "ttl"]
        assert [p.recolds for p in report.eviction_policies] == [1, 0]

    def test_p50_gap_is_the_nearest_rank_percentile(self):
        # Gaps of 5 ns and 10 ns: the nearest-rank P50 is the lower one.
        row = _policy([
            _evict(0, 1, 0, "f"),
            _evict(0, 2, 0, "g"),
            _spawn(0, 3, 5, "f"),
            _spawn(0, 4, 10, "g"),
        ])
        assert row.recolds == 2
        assert row.median_recold_ns == 5


class TestSketchRows:
    def test_rows_key_on_name_and_mode_only(self):
        # Labels the table does not show (here ``policy``) must not
        # split one (name, mode) row into look-alike rows.
        name = "fleet.invocation_latency_ns"
        report = build_report([
            _sketch_row(0, name, [10_000], {"mode": "hotmem", "policy": "ttl"}),
            _sketch_row(
                1, name, [20_000, 30_000], {"mode": "hotmem", "policy": "rand"}
            ),
            _sketch_row(2, name, [40_000], {"mode": "vanilla"}),
        ])
        rows = [
            (s.labels["mode"], contexts, s.count)
            for s, contexts in report.sketches
        ]
        assert rows == [("hotmem", 2, 3), ("vanilla", 1, 1)]

    def test_sketches_without_a_mode_group_as_all(self):
        report = build_report([
            _sketch_row(0, "x", [10], {}),
            _sketch_row(1, "x", [20], {"policy": "ttl"}),
        ])
        ((sketch, contexts),) = report.sketches
        assert (contexts, sketch.count) == (2, 2)
        assert re.search(r"^\s+x\s+all\s+2\s+2 ", report.render(), re.M)


def _series(values):
    series = RollupSeries("used-h0", kind="used", width_ns=SEC)
    for i, value in enumerate(values):
        series.record(i * SEC, value)
    return series


class TestSpark:
    def test_more_than_the_width_chunks_into_width_cells(self):
        spark = _spark(_series(range(100)))
        assert SPARK_WIDTH == 40
        assert len(spark) == 40
        assert (spark[0], spark[-1]) == (".", "@")

    def test_flat_series_is_all_dots(self):
        assert _spark(_series([5.0] * 7)) == "......."

    def test_ramp_runs_from_lowest_to_highest_glyph(self):
        assert _spark(_series(range(9))) == ".:-=+*#%@"

    def test_empty_series_is_empty(self):
        assert _spark(RollupSeries("empty")) == ""


def _header_phases(rendered):
    (header,) = [line for line in rendered.splitlines() if "p50_ms" in line]
    tokens = header.split()
    return tokens[tokens.index("p99_ms") + 1:]


class TestPhaseColumns:
    def test_canonical_order_then_unknown_phases_sorted(self):
        records = [
            _unplug(0, 1, 0, 100),
            _phase(0, 2, "zeta", 0, 10, 1),
            _phase(0, 3, "zero", 10, 30, 1),
            _phase(0, 4, "alpha", 30, 40, 1),
            _phase(0, 5, "offline", 40, 100, 1),
        ]
        rendered = build_report(records).render()
        assert _header_phases(rendered) == [
            "offline%", "zero%", "alpha%", "zeta%",
        ]
        assert (
            "phase sums match unplug latencies: 1/1 (nanosecond-exact)"
            in rendered
        )


class TestTiling:
    def test_phases_that_do_not_tile_render_mismatch(self):
        records = [
            _unplug(0, 1, 0, 100),
            _phase(0, 2, "offline", 0, 60, 1),
        ]
        rendered = build_report(records).render()
        assert (
            "phase sums match unplug latencies: 0/1 (MISMATCH)" in rendered
        )
        assert "nanosecond-exact" not in rendered

    def test_phase_under_device_plug_is_not_attributed(self):
        records = [
            _unplug(0, 1, 0, 100),
            _phase(0, 2, "device", 0, 100, 1),
            _span(0, 3, "device.plug", 10, 20, 1),
            _phase(0, 4, "zero", 10, 20, 3),
        ]
        report = build_report(records)
        (mode,) = report.modes
        assert mode.unplugs[0].phase_ns == {"device": 100}
        assert "1/1 (nanosecond-exact)" in report.render()

    def test_deeper_phase_descendants_are_attributed(self):
        records = [
            _unplug(0, 1, 0, 100),
            _span(0, 2, "mm.offline", 0, 100, 1),
            _phase(0, 3, "offline", 0, 100, 2),
        ]
        (mode,) = build_report(records).modes
        assert mode.unplugs[0].phase_ns == {"offline": 100}
        assert mode.exact_matches == 1


def _every_section():
    return [
        _unplug(0, 1, 0, 100),
        _phase(0, 2, "device", 0, 100, 1),
        _evict(0, 3, 100, "f"),
        _spawn(0, 4, 200, "f"),
        _span(
            0, 5, "slo.breach", 0, SEC, slo="latency", kind="latency",
            bad=1, total=2, pressure=0, burn_x1000=1500,
        ),
        {"type": "metric", "context": 0, "name": "m",
         "labels": {"mode": "hotmem"}, "value": 1},
        _rollup_row(0, "used-h0", [1.0, 2.0]),
        _sketch_row(0, "fleet.invocation_latency_ns", [10], {"mode": "hotmem"}),
    ]


class TestSections:
    def test_sections_render_in_order_with_one_eviction_table(self):
        lines = build_report(_every_section()).render().splitlines()
        headings = [
            "report: unplug attribution and fleet telemetry",
            "  unplug latency attribution by phase:",
            "    phase sums match unplug latencies: 1/1 (nanosecond-exact)",
            "  host memory timelines (per-host rollups):",
            "  sketch percentiles (merged across contexts):",
            "  slo breach windows:",
            "  eviction -> cold-start attribution by policy:",
            "  modes with labeled metrics: hotmem",
            "  spans=5 open=0 contexts=1 rollups=1 sketches=1 breaches=1",
        ]
        positions = [lines.index(h) for h in headings]
        assert positions == sorted(positions)
        assert positions[-1] == len(lines) - 1
        assert sum("eviction -> cold-start" in line for line in lines) == 1

    def test_record_order_does_not_change_the_digest(self):
        records = _every_section()
        report = build_report(records)
        assert build_report(records[::-1]).digest == report.digest


class TestCli:
    def test_missing_export_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.jsonl"
        assert main(["report", "--trace-file", str(path)]) == 2
        assert "no trace export" in capsys.readouterr().err

    def test_report_on_a_real_export_prints_the_summary_line(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "fig7.jsonl")
        assert main(["fig7", "--trace", "--trace-file", path]) == 0
        capsys.readouterr()
        assert main(["report", "--trace-file", path]) == 0
        out = capsys.readouterr().out
        assert "(nanosecond-exact)" in out
        assert re.search(
            r"^\[report: sha256=[0-9a-f]{64} spans=[1-9][0-9]* open=0 "
            r"rollups=0 sketches=0 breaches=0 file=.*fig7\.jsonl\]$",
            out,
            re.MULTILINE,
        )

    def test_list_shows_report_and_neither_old_name(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^report ", out, re.MULTILINE)
        for name in RETIRED_COMMANDS:
            assert name not in out

    @pytest.mark.parametrize("name", RETIRED_COMMANDS)
    def test_old_names_are_unknown(self, name, capsys):
        assert main([name]) == 2
        assert "unknown experiment" in capsys.readouterr().err
