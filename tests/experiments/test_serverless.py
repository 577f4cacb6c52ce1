"""Unit tests for the serverless experiment harness."""

import pytest

from repro.experiments.serverless import (
    FunctionLoad,
    ServerlessScenario,
    run_scenario,
)
from repro.modes import HOTMEM, OVERPROVISIONED, VANILLA
from repro.units import MEMORY_BLOCK_SIZE, MIB


def small_scenario(mode, **overrides):
    defaults = dict(
        mode=mode,
        loads=(FunctionLoad.for_function("html", max_instances=6),),
        duration_s=40,
        keep_alive_s=10,
        recycle_interval_s=5,
        drain_s=10,
    )
    defaults.update(overrides)
    return ServerlessScenario(**defaults)


class TestScenarioDerivation:
    def test_partition_bytes_is_max_limit_rounded(self):
        scenario = ServerlessScenario(
            mode=HOTMEM,
            loads=(
                FunctionLoad.for_function("cnn", max_instances=2),
                FunctionLoad.for_function("bert", max_instances=2),
            ),
        )
        assert scenario.partition_bytes == 640 * MIB

    def test_concurrency_sums_loads(self):
        scenario = ServerlessScenario(
            mode=HOTMEM,
            loads=(
                FunctionLoad.for_function("cnn", max_instances=4),
                FunctionLoad.for_function("html", max_instances=40),
            ),
        )
        assert scenario.concurrency == 44

    def test_shared_bytes_block_aligned(self):
        scenario = small_scenario(HOTMEM)
        assert scenario.shared_bytes % MEMORY_BLOCK_SIZE == 0

    def test_table1_defaults_applied(self):
        load = FunctionLoad.for_function("html")
        assert load.max_instances == 50  # 10 vcpus / 0.2


@pytest.mark.parametrize(
    "mode",
    [HOTMEM, VANILLA, OVERPROVISIONED],
)
class TestRunScenario:
    def test_all_requests_served(self, mode):
        run = run_scenario(small_scenario(mode))
        assert run.oom_failures == 0
        assert len(run.records) > 0
        assert all(r.ok for r in run.records)

    def test_scaling_behaviour_per_mode(self, mode):
        run = run_scenario(small_scenario(mode))
        plugs = [e for e in run.resize_events if e.kind == "plug"]
        if mode is OVERPROVISIONED:
            assert plugs == []
            assert run.shrink_events == [] or all(
                e.unplug_requested_bytes == 0 for e in run.shrink_events
            )
        else:
            assert len(plugs) > 0
            assert len(run.shrink_events) > 0


class TestCrossModeComparability:
    def test_same_trace_same_arrival_count(self):
        runs = {
            mode: run_scenario(small_scenario(mode))
            for mode in (HOTMEM, VANILLA)
        }
        counts = {mode: len(run.records) for mode, run in runs.items()}
        assert len(set(counts.values())) == 1

    def test_hotmem_unplugs_without_migrations(self):
        run = run_scenario(small_scenario(HOTMEM))
        unplugs = [e for e in run.resize_events if e.kind == "unplug"]
        assert unplugs
        assert all(e.migrated_pages == 0 for e in unplugs)
