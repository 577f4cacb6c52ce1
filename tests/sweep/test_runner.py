"""Runner semantics: grid-order merge, ambient context, cell hygiene."""

import pytest

from repro.analysis import sanitizer as san
from repro.sweep import (
    RunContext,
    SweepGrid,
    ambient_context,
    ambient_report,
    collecting,
    execute_cell,
    payload_digest,
    run_sweep,
)


def _square(config, cell):
    return config * cell["n"] * cell["n"]


GRID = SweepGrid("squares").axis("n", (1, 2, 3, 4))


class TestSerial:
    def test_results_come_back_in_grid_order(self):
        results = run_sweep(GRID, _square, 10)
        assert [r.index for r in results] == [0, 1, 2, 3]
        assert [r.payload for r in results] == [10, 40, 90, 160]

    def test_results_carry_cell_identity(self):
        results = run_sweep(GRID, _square, 1)
        assert results[2].cell_id == "n=3"
        assert results[2]["n"] == 3

    def test_exceptions_propagate(self):
        def boom(config, cell):
            raise RuntimeError("cell failed")

        with pytest.raises(RuntimeError, match="cell failed"):
            run_sweep(GRID, boom, None)


class TestSharded:
    def test_sharded_payloads_match_serial(self):
        serial = run_sweep(GRID, _square, 10, context=RunContext(workers=1))
        sharded = run_sweep(GRID, _square, 10, context=RunContext(workers=2))
        assert payload_digest([r.payload for r in serial]) == payload_digest(
            [r.payload for r in sharded]
        )
        assert [r.index for r in sharded] == [r.index for r in serial]

    def test_single_cell_grid_runs_with_any_worker_count(self):
        grid = SweepGrid("one").axis("n", (5,))
        results = run_sweep(grid, _square, 1, context=RunContext(workers=8))
        assert [r.payload for r in results] == [25]


class TestCellHygiene:
    def test_every_cell_sees_fresh_id_counters(self):
        def first_pid(config, cell):
            from repro.mm.mm_struct import MmStruct

            return MmStruct(f"proc-{cell['n']}").pid

        pids = [r.payload for r in run_sweep(GRID, first_pid, None)]
        assert pids == [1, 1, 1, 1]

    def test_execute_cell_returns_plain_outcome(self):
        cell = GRID.cells()[1]
        outcome = execute_cell(_square, 10, cell, RunContext())
        assert (outcome.index, outcome.cell_id) == (1, "n=2")
        assert outcome.payload == 40
        assert outcome.trace_rows == []


class TestSanitize:
    @pytest.mark.no_autosanitize  # asserts no sanitizer outside the cell
    def test_sanitizer_installed_only_inside_the_cell(self):
        def probe(config, cell):
            return san.is_installed()

        context = RunContext(sanitize=True, sanitize_every=64)
        results = run_sweep(GRID, probe, None, context=context)
        assert all(r.payload for r in results)
        assert not san.is_installed()


class TestAmbient:
    def test_defaults_outside_a_collecting_block(self):
        assert ambient_context() == RunContext()
        assert ambient_report() is None

    def test_collecting_installs_and_restores(self):
        context = RunContext(workers=2)
        with collecting(context) as report:
            assert ambient_context() is context
            assert ambient_report() is report
        assert ambient_report() is None

    def test_report_absorbs_every_cell(self):
        with collecting(RunContext()) as report:
            run_sweep(GRID, _square, 1)
            run_sweep(GRID, _square, 2)
        assert report.cells_run == 2 * len(GRID)

    def test_sanitizer_line_format_is_stable(self):
        with collecting(RunContext(sanitize=True)) as report:
            run_sweep(GRID, _square, 1)
        line = report.sanitizer_line()
        assert line.startswith("[sanitizer: ")
        assert line.endswith("guest memory manager(s), no violations]")
