"""Tests for the chaos experiment: determinism, fault accounting
completeness, and control-row byte-identity with the fault-free harness."""

import pytest

from repro.experiments import chaos
from repro.experiments.serverless import (
    FunctionLoad,
    ServerlessScenario,
    run_scenario,
)
from repro.modes import HOTMEM


CONFIG = chaos.ChaosConfig(
    fault_rates=(0.0, 0.2),
    modes=(HOTMEM,),
    duration_s=10,
    keep_alive_s=4,
    recycle_interval_s=2,
)


@pytest.fixture(scope="module")
def result():
    return chaos.run(CONFIG)


def test_two_runs_are_bit_identical(result):
    again = chaos.run(CONFIG)
    assert again.cells == result.cells


def test_every_injected_fault_is_accounted_for(result):
    assert result.total_unresolved() == 0
    faulted = result.cell("hotmem", 0.2)
    assert faulted.injected > 0
    assert faulted.recovered + faulted.degraded > 0


def test_control_row_matches_fault_free_harness(result):
    control = result.cell("hotmem", 0.0)
    assert control.injected == 0 and control.unresolved == 0
    assert not control.static_fallback
    plain = run_scenario(
        ServerlessScenario(
            mode=HOTMEM,
            loads=(FunctionLoad.for_function(CONFIG.function),),
            duration_s=CONFIG.duration_s,
            keep_alive_s=CONFIG.keep_alive_s,
            recycle_interval_s=CONFIG.recycle_interval_s,
            seed=CONFIG.seed,
        )
    )
    assert control.reclaim_mib_s == plain.reclaim_mib_per_s
    assert control.invocations == len(plain.records_for(CONFIG.function))
    assert plain.injected_faults == 0 and plain.recovery_events == []


def test_render_includes_accounting_columns(result):
    table = result.render()
    for column in ("reclaim_mib_s", "p99_ms", "unresolved", "static"):
        assert column in table


def test_cell_lookup_raises_on_missing(result):
    with pytest.raises(KeyError):
        result.cell("vanilla", 0.5)


def test_p99_degradation_uses_control(result):
    value = result.p99_degradation("hotmem", 0.2)
    assert value >= 0.0


def test_paper_scale_widens_the_sweep():
    config = chaos.ChaosConfig.paper_scale()
    assert len(config.fault_rates) > len(chaos.ChaosConfig().fault_rates)
    assert config.duration_s > chaos.ChaosConfig().duration_s


def test_plan_disabled_at_control_rate():
    config = chaos.ChaosConfig()
    assert config.plan(0.0) is None
    plan = config.plan(0.1)
    assert plan is not None
    assert all(spec.probability == 0.1 for spec in plan.specs)
