"""Unit tests for the AST lint rules, suppression syntax, output modes,
and the tools/lint.py command-line gate."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import (
    RULES,
    LintError,
    lint_file,
    lint_paths,
    lint_source,
    module_name_for,
    render_json,
    render_text,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def findings(source, module, rule=None):
    errors = lint_source(source, path="snippet.py", module=module)
    if rule is None:
        return errors
    return [e for e in errors if e.rule == rule]


class TestNoDirectRandom:
    def test_random_call_in_sim_scope_flagged(self):
        src = "import random\nx = random.random()\n"
        errors = findings(src, "repro.sim.workload", "no-direct-random")
        assert len(errors) == 1
        assert errors[0].line == 2
        assert "make_rng" in errors[0].message

    def test_from_random_import_flagged(self):
        src = "from random import choice\n"
        assert findings(src, "repro.experiments.foo", "no-direct-random")

    def test_import_random_for_typing_allowed(self):
        src = "import random\n\ndef f(rng: random.Random) -> None:\n    pass\n"
        assert not findings(src, "repro.mm.placement", "no-direct-random")

    def test_rng_entrypoint_exempt(self):
        src = "import random\nrng = random.Random(42)\n"
        assert not findings(src, "repro.sim.rng", "no-direct-random")

    def test_out_of_scope_module_unflagged(self):
        src = "import random\nx = random.random()\n"
        assert not findings(src, "repro.metrics.report", "no-direct-random")


class TestNoWallclock:
    @pytest.mark.parametrize(
        "call",
        ["time.time()", "time.monotonic()", "time.perf_counter_ns()"],
    )
    def test_time_module_calls_flagged(self, call):
        src = f"import time\nt = {call}\n"
        assert findings(src, "repro.sim.engine2", "no-wallclock")

    def test_datetime_now_flagged_via_tail_match(self):
        src = "import datetime\nt = datetime.datetime.now()\n"
        assert findings(src, "repro.workloads.azure2", "no-wallclock")

    def test_aliased_datetime_module_flagged_once(self):
        src = "import datetime as dt\nt = dt.datetime.now()\n"
        errors = findings(src, "repro.sim.engine2", "no-wallclock")
        assert [e.line for e in errors] == [2]

    def test_engine_clock_unflagged(self):
        src = "def f(sim):\n    return sim.now\n"
        assert not findings(src, "repro.sim.engine2", "no-wallclock")

    def test_out_of_scope_module_unflagged(self):
        src = "import time\nt = time.time()\n"
        assert not findings(src, "repro.host.machine2", "no-wallclock")


class TestNoFloatPageEq:
    def test_float_eq_on_pages_flagged(self):
        src = "def f(free_pages):\n    return free_pages == 1.0\n"
        errors = findings(src, "repro.mm.foo", "no-float-page-eq")
        assert len(errors) == 1

    def test_float_neq_on_bytes_attr_flagged(self):
        src = "def f(vm):\n    return vm.plugged_bytes != 0.5\n"
        assert findings(src, "repro.vmm.foo", "no-float-page-eq")

    def test_int_eq_on_pages_unflagged(self):
        src = "def f(free_pages):\n    return free_pages == 1\n"
        assert not findings(src, "repro.mm.foo", "no-float-page-eq")

    def test_float_eq_on_non_quantity_unflagged(self):
        src = "def f(ratio):\n    return ratio == 1.0\n"
        assert not findings(src, "repro.mm.foo", "no-float-page-eq")

    def test_ordering_comparison_unflagged(self):
        src = "def f(latency_ms):\n    return latency_ms > 1.5\n"
        assert not findings(src, "repro.metrics.foo", "no-float-page-eq")


class TestMmEncapsulation:
    def test_attribute_write_outside_mm_flagged(self):
        src = "def f(zone):\n    zone.free_pages = 0\n"
        errors = findings(src, "repro.experiments.foo", "mm-encapsulation")
        assert len(errors) == 1
        assert ".free_pages" in errors[0].message

    def test_augassign_flagged(self):
        src = "def f(block):\n    block.free_pages += 7\n"
        assert findings(src, "repro.virtio.foo", "mm-encapsulation")

    def test_chained_assignment_flags_every_target(self):
        src = "def f(a, b):\n    a.free_pages = b.owner_pages = 0\n"
        errors = findings(src, "repro.experiments.foo", "mm-encapsulation")
        assert len(errors) == 2
        assert ".free_pages" in errors[0].message
        assert ".owner_pages" in errors[1].message

    def test_subscript_write_flagged(self):
        src = "def f(block, owner):\n    block.owner_pages[owner] = 3\n"
        assert findings(src, "repro.core.foo", "mm-encapsulation")

    def test_del_subscript_flagged(self):
        src = "def f(block, owner):\n    del block.owner_pages[owner]\n"
        assert findings(src, "repro.core.foo", "mm-encapsulation")

    def test_container_mutator_flagged(self):
        src = "def f(zone, block):\n    zone.blocks.append(block)\n"
        assert findings(src, "repro.baselines.foo", "mm-encapsulation")

    def test_owning_module_exempt(self):
        src = "def f(zone):\n    zone._free_pages -= 5\n"
        assert not findings(src, "repro.mm.zone", "mm-encapsulation")

    @pytest.mark.parametrize(
        "module", ["repro.mm.manager", "repro.mm.block", "repro.virtio.foo"]
    )
    def test_usable_index_mutated_only_by_its_zone(self, module):
        src = (
            "def f(zone, block):\n"
            "    zone.usable_blocks.remove(block)\n"
            "    zone.usable_blocks = []\n"
        )
        errors = findings(src, module, "mm-encapsulation")
        assert [e.line for e in errors] == [2, 3]
        assert ".usable_blocks" in errors[0].message
        assert not findings(src, "repro.mm.zone", "mm-encapsulation")

    def test_unguarded_attribute_unflagged(self):
        src = "def f(container):\n    container.state = 'warm'\n"
        assert not findings(src, "repro.faas.container2", "mm-encapsulation")

    def test_manager_api_call_unflagged(self):
        src = "def f(manager, mm):\n    manager.free_all(mm)\n"
        assert not findings(src, "repro.faas.runtime2", "mm-encapsulation")


class TestModuleAllRequired:
    def test_missing_all_flagged(self):
        src = "def f():\n    pass\n"
        errors = findings(src, "repro.newpkg.helper", "module-all-required")
        assert len(errors) == 1
        assert errors[0].line == 1

    def test_declared_all_unflagged(self):
        src = "__all__ = ['f']\n\ndef f():\n    pass\n"
        assert not findings(src, "repro.newpkg.helper", "module-all-required")

    def test_empty_module_unflagged(self):
        assert not findings("", "repro.newpkg", "module-all-required")

    def test_non_repro_module_unflagged(self):
        src = "def f():\n    pass\n"
        assert not findings(src, "tools.lint", "module-all-required")


class TestNoBareExcept:
    def test_bare_except_flagged(self):
        src = "try:\n    f()\nexcept:\n    pass\n"
        errors = findings(src, "repro.faas.foo", "no-bare-except")
        assert len(errors) == 1
        assert errors[0].line == 3

    def test_typed_except_unflagged(self):
        src = "try:\n    f()\nexcept ValueError:\n    pass\n"
        assert not findings(src, "repro.faas.foo", "no-bare-except")

    def test_broad_but_named_exception_unflagged(self):
        # The rule targets bare handlers that swallow fault signals the
        # recovery machinery needs, not `except Exception` per se.
        src = "try:\n    f()\nexcept Exception as e:\n    raise e\n"
        assert not findings(src, "repro.virtio.foo", "no-bare-except")

    def test_out_of_scope_module_unflagged(self):
        src = "try:\n    f()\nexcept:\n    pass\n"
        assert not findings(src, "tools.lint", "no-bare-except")

    def test_allow_comment_silences(self):
        src = (
            "try:\n"
            "    f()\n"
            "except:  # lint: allow[no-bare-except] last-ditch cleanup\n"
            "    pass\n"
        )
        assert not findings(src, "repro.faas.foo", "no-bare-except")


class TestNoPrintInSrc:
    def test_print_in_library_module_flagged(self):
        src = "def f():\n    print('debug')\n"
        errors = findings(src, "repro.virtio.device", "no-print-in-src")
        assert len(errors) == 1
        assert errors[0].line == 2
        assert "repro.obs" in errors[0].message

    def test_print_in_experiments_allowed(self):
        src = "def report():\n    print('fig5 done')\n"
        assert not findings(
            src, "repro.experiments.fig5_unplug_latency", "no-print-in-src"
        )
        assert not findings(src, "repro.experiments", "no-print-in-src")

    def test_out_of_package_module_unflagged(self):
        src = "print('cli output')\n"
        assert not findings(src, "tools.lint", "no-print-in-src")

    def test_shadowed_print_method_unflagged(self):
        # Only the builtin: a method or local named print is not stdout.
        src = "def f(report):\n    report.print()\n"
        assert not findings(src, "repro.metrics.report", "no-print-in-src")

    def test_allow_comment_silences(self):
        src = (
            "def f():\n"
            "    print('x')  # lint: allow[no-print-in-src] debug hook\n"
        )
        assert not findings(src, "repro.mm.manager", "no-print-in-src")


class TestNoAdhocSweep:
    def test_scenario_loop_in_experiment_flagged(self):
        src = (
            "def run(config):\n"
            "    for mode in ('vanilla', 'hotmem'):\n"
            "        result = run_scenario(make(mode))\n"
        )
        errors = findings(
            src, "repro.experiments.fig8_reclaim_throughput", "no-adhoc-sweep"
        )
        assert len(errors) == 1
        assert errors[0].line == 3
        assert "run_sweep" in errors[0].message

    def test_rig_construction_in_while_flagged(self):
        src = (
            "def probe():\n"
            "    while budget:\n"
            "        rig = MicrobenchRig(setup)\n"
        )
        assert findings(
            src, "repro.experiments.density", "no-adhoc-sweep"
        )

    def test_dotted_entrypoint_flagged(self):
        src = (
            "def run():\n"
            "    for n in counts:\n"
            "        out = rig.run_single_reclaim(n)\n"
        )
        assert findings(src, "repro.experiments.fig5", "no-adhoc-sweep")

    def test_run_sweep_iteration_unflagged(self):
        src = (
            "def run(config):\n"
            "    for cell_result in run_sweep(grid(config), _cell, config):\n"
            "        collect(cell_result.payload)\n"
        )
        assert not findings(
            src, "repro.experiments.chaos", "no-adhoc-sweep"
        )

    def test_loop_without_scenario_calls_unflagged(self):
        src = (
            "def reduce(samples):\n"
            "    for size in sizes:\n"
            "        totals[size] = sum(samples[size])\n"
        )
        assert not findings(
            src, "repro.experiments.fig6_usage_sweep", "no-adhoc-sweep"
        )

    def test_scenario_engine_modules_exempt(self):
        src = (
            "def drive():\n"
            "    for load in loads:\n"
            "        run_scenario(load)\n"
        )
        assert not findings(
            src, "repro.experiments.serverless", "no-adhoc-sweep"
        )
        assert not findings(
            src, "repro.experiments.microbench", "no-adhoc-sweep"
        )
        assert not findings(src, "repro.sim.engine", "no-adhoc-sweep")

    def test_allow_comment_silences(self):
        src = (
            "def run():\n"
            "    for seed in seeds:\n"
            "        sim = Simulator()"
            "  # lint: allow[no-adhoc-sweep] calibration probe\n"
        )
        assert not findings(
            src, "repro.experiments.calibrate", "no-adhoc-sweep"
        )


class TestSuppression:
    def test_allow_comment_silences_rule_on_line(self):
        src = "import time\nt = time.time()  # lint: allow[no-wallclock] display\n"
        assert not findings(src, "repro.sim.foo", "no-wallclock")

    def test_allow_only_covers_named_rule(self):
        src = (
            "import random\n"
            "x = random.random()  # lint: allow[no-wallclock]\n"
        )
        assert findings(src, "repro.sim.foo", "no-direct-random")

    def test_comma_separated_rules(self):
        src = (
            "import time, random\n"
            "t = time.time() + random.random()"
            "  # lint: allow[no-wallclock, no-direct-random]\n"
        )
        errors = findings(src, "repro.sim.foo")
        assert not [e for e in errors if e.line == 2]


class TestDriversAndOutput:
    def test_syntax_error_reported_as_finding(self):
        errors = findings("def f(:\n", "repro.sim.broken")
        assert [e.rule for e in errors] == ["syntax-error"]

    def test_module_name_for_src_layout(self):
        assert (
            module_name_for(Path("src/repro/mm/zone.py")) == "repro.mm.zone"
        )
        assert module_name_for(Path("src/repro/mm/__init__.py")) == "repro.mm"

    def test_lint_file_and_paths_on_tree(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "__all__ = []\nimport random\nx = random.random()\n",
            encoding="utf-8",
        )
        (tmp_path / "src" / "repro" / "sim" / "good.py").write_text(
            "__all__ = []\n", encoding="utf-8"
        )
        errors = lint_paths([tmp_path / "src"])
        assert len(errors) == 1
        assert errors[0].rule == "no-direct-random"
        assert errors[0].line == 3
        assert lint_file(bad) == errors

    def test_render_text_format(self):
        error = LintError("a.py", 3, 7, "no-wallclock", "msg")
        assert render_text([error]) == "a.py:3:7: [no-wallclock] msg"

    def test_render_json_roundtrip(self):
        error = LintError("a.py", 3, 7, "no-wallclock", "msg")
        decoded = json.loads(render_json([error]))
        assert decoded == [
            {
                "path": "a.py",
                "line": 3,
                "col": 7,
                "rule": "no-wallclock",
                "message": "msg",
            }
        ]

    def test_repo_source_tree_is_clean(self):
        assert lint_paths([REPO_ROOT / "src"]) == []

    def test_every_rule_documented(self):
        # The original syntactic rules stay enforced alongside the
        # CFG/dataflow families from repro.analysis.flow.
        assert set(RULES) == {
            "no-direct-random",
            "no-wallclock",
            "no-float-page-eq",
            "mm-encapsulation",
            "module-all-required",
            "no-bare-except",
            "no-print-in-src",
            "no-adhoc-sweep",
            "no-direct-evict",
            "stale-guard-across-yield",
            "unchecked-result",
            "span-hygiene",
            "no-sim-sleep-side-effect",
            "no-unbounded-retry",
            "no-unbounded-series",
        }
        assert all(RULES.values())

    def test_rule_kinds_partition_the_registry(self):
        from repro.analysis.rules import DEFAULT_REGISTRY

        ast_rules = {r.name for r in DEFAULT_REGISTRY.by_kind("ast")}
        flow_rules = {r.name for r in DEFAULT_REGISTRY.by_kind("flow")}
        assert flow_rules == {
            "stale-guard-across-yield",
            "unchecked-result",
            "span-hygiene",
        }
        assert "no-sim-sleep-side-effect" in ast_rules
        assert len(ast_rules) + len(flow_rules) == len(DEFAULT_REGISTRY)

    def test_json_output_byte_identical_across_runs(self, tmp_path):
        # The CI gate requires deterministic ordering: two runs over the
        # same tree render byte-identical JSON.
        bad = tmp_path / "src" / "repro" / "sim" / "multi.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import random, time\n"
            "a = random.random()\n"
            "b = time.time()\n",
            encoding="utf-8",
        )
        first = render_json(lint_paths([tmp_path / "src"]))
        second = render_json(lint_paths([tmp_path / "src"]))
        assert first == second
        rules = [e["rule"] for e in json.loads(first)]
        assert rules == [
            "module-all-required",
            "no-direct-random",
            "no-wallclock",
        ]


class TestCli:
    def run_cli(self, *args, cwd=REPO_ROOT):
        return subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "lint.py"), *args],
            capture_output=True,
            text=True,
            cwd=cwd,
        )

    def test_exit_zero_on_repo_src(self):
        result = self.run_cli("src")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "lint clean" in result.stdout

    def test_exit_nonzero_with_location_on_violation(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "experiments" / "oops.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "__all__ = []\nimport time\nstarted = time.time()\n",
            encoding="utf-8",
        )
        result = self.run_cli(str(bad))
        assert result.returncode == 1
        assert f"{bad}:3:10: [no-wallclock]" in result.stdout

    def test_json_mode(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "sim" / "oops.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nrandom.seed(1)\n", encoding="utf-8")
        result = self.run_cli("--json", str(bad))
        assert result.returncode == 1
        decoded = json.loads(result.stdout)
        assert {e["rule"] for e in decoded} == {
            "no-direct-random",
            "module-all-required",
        }

    def test_list_rules(self):
        result = self.run_cli("--list-rules")
        assert result.returncode == 0
        for rule in RULES:
            assert rule in result.stdout

    def test_missing_path_is_usage_error(self):
        result = self.run_cli("no/such/dir")
        assert result.returncode == 2
        assert "no such path" in result.stderr


class TestNoUnboundedSeries:
    def test_timeseries_construction_in_scope_flagged(self):
        src = "def f():\n    return TimeSeries('used-h0')\n"
        for module in ("repro.cluster.provision", "repro.metrics.collector"):
            errors = findings(src, module, "no-unbounded-series")
            assert len(errors) == 1
            assert "RollupSeries" in errors[0].message

    def test_dotted_timeseries_construction_flagged(self):
        src = (
            "import repro.metrics.collector as collector\n"
            "def f():\n"
            "    return collector.TimeSeries('t')\n"
        )
        assert findings(
            src, "repro.cluster.routing", "no-unbounded-series"
        )

    def test_series_record_in_simulator_loop_flagged(self):
        src = (
            "def loop(self):\n"
            "    while True:\n"
            "        self.series.record(self.sim.now, probe())\n"
            "        yield Timeout(self.period_ns)\n"
        )
        errors = findings(
            src, "repro.metrics.sampler2", "no-unbounded-series"
        )
        assert len(errors) == 1
        assert ".record()" in errors[0].message

    def test_subscripted_series_record_in_loop_flagged(self):
        src = (
            "def loop(self):\n"
            "    while True:\n"
            "        for key in self.used:\n"
            "            self.used[key].record(self.sim.now, 1.0)\n"
            "        yield Timeout(self.period_ns)\n"
        )
        assert findings(
            src, "repro.metrics.collector2", "no-unbounded-series"
        )

    def test_event_append_in_simulator_loop_flagged(self):
        src = (
            "def pressure_loop(self):\n"
            "    while True:\n"
            "        self.pressure_events.append((self.sim.now, 1))\n"
            "        yield Timeout(self.period_ns)\n"
        )
        errors = findings(
            src, "repro.cluster.provision2", "no-unbounded-series"
        )
        assert len(errors) == 1
        assert ".append()" in errors[0].message

    def test_record_outside_a_generator_unflagged(self):
        # Non-coroutine code does not tick on the simulated clock, so a
        # loop there is bounded by its own inputs.
        src = (
            "def replay(self, samples):\n"
            "    for time_ns, value in samples:\n"
            "        self.series.record(time_ns, value)\n"
        )
        assert not findings(
            src, "repro.metrics.replay", "no-unbounded-series"
        )

    def test_rollup_series_construction_unflagged(self):
        src = "def f():\n    return RollupSeries('used-h0', kind='used')\n"
        assert not findings(
            src, "repro.metrics.collector2", "no-unbounded-series"
        )

    def test_plain_list_append_in_loop_unflagged(self):
        # Router records are the experiment's primary output, not
        # telemetry; only telemetry-named receivers are flagged.
        src = (
            "def loop(self):\n"
            "    while True:\n"
            "        self.records.append(make_record())\n"
            "        yield Timeout(1)\n"
        )
        assert not findings(
            src, "repro.cluster.routing2", "no-unbounded-series"
        )

    def test_out_of_scope_module_unflagged(self):
        src = "def f():\n    return TimeSeries('t')\n"
        assert not findings(src, "repro.faas.agent", "no-unbounded-series")
        assert not findings(src, "tools.lint", "no-unbounded-series")

    def test_allow_comment_silences(self):
        src = (
            "def f():\n"
            "    return TimeSeries('t')"
            "  # lint: allow[no-unbounded-series] exact-mode rig\n"
        )
        assert not findings(
            src, "repro.metrics.collector2", "no-unbounded-series"
        )

    def test_committed_tree_carries_only_annotated_uses(self):
        # The baseline stays empty: every in-repo exact-mode path is
        # explicitly annotated, so the rule reports nothing.
        errors = [
            e
            for e in lint_paths([REPO_ROOT / "src"])
            if e.rule == "no-unbounded-series"
        ]
        assert errors == []


class TestNoDirectEvict:
    def test_idle_pool_assignment_flagged(self):
        src = "def f(state):\n    state.idle = []\n"
        errors = findings(src, "repro.cluster.provision", "no-direct-evict")
        assert len(errors) == 1
        assert "recycle_pass" in errors[0].message

    def test_idle_pool_mutator_flagged(self):
        src = "def f(state, c):\n    state.idle.append(c)\n"
        assert findings(src, "repro.experiments.foo", "no-direct-evict")

    def test_subscripted_idle_pool_mutator_flagged(self):
        src = "def f(state, fn, c):\n    state.idle[fn].append(c)\n"
        errors = findings(src, "repro.cluster.provision", "no-direct-evict")
        assert len(errors) == 1

    def test_idle_subscript_delete_flagged(self):
        src = "def f(state):\n    del state.idle[0]\n"
        assert findings(src, "repro.cluster.routing", "no-direct-evict")

    def test_teardown_call_flagged(self):
        src = "def f(container):\n    container.teardown()\n"
        assert findings(src, "repro.metrics.collector", "no-direct-evict")

    def test_destroy_after_oom_flagged(self):
        src = "def f(c):\n    c.destroy_after_oom()\n"
        assert findings(src, "repro.cluster.failover", "no-direct-evict")

    def test_owning_modules_exempt(self):
        src = "def f(state, c):\n    state.idle.remove(c)\n    c.teardown()\n"
        for module in (
            "repro.faas.agent",
            "repro.faas.lifecycle",
            "repro.faas.container",
        ):
            assert not findings(src, module, "no-direct-evict")

    def test_non_repro_module_unflagged(self):
        src = "def f(c):\n    c.teardown()\n"
        assert not findings(src, "tests.faas.test_container", "no-direct-evict")

    def test_allow_escape(self):
        src = (
            "def f(c):\n"
            "    c.teardown()  # lint: allow[no-direct-evict] test helper\n"
        )
        assert not findings(src, "repro.faults.injector", "no-direct-evict")

    def test_unrelated_idle_read_unflagged(self):
        src = "def f(state):\n    return len(state.idle)\n"
        assert not findings(src, "repro.cluster.provision", "no-direct-evict")
