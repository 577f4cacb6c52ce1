"""D1 density sweep: admission caps, SLO gating, determinism."""

import pytest

from repro.experiments.density import (
    DensityConfig,
    _probe_admission,
    _run_cell,
    run,
)
from repro.modes import HOTMEM, OVERPROVISIONED, VANILLA

#: Scaled-down sweep: one burst window per function, short drain.
FAST = DensityConfig(
    hosts=2,
    max_vms_per_host=3,
    duration_s=20,
    drain_s=10,
    stagger_s=10.0,
    keep_alive_s=5,
)


class TestAdmissionProbe:
    def test_mode_caps_are_ordered(self):
        caps = {
            mode: _probe_admission(FAST, mode)[0]
            for mode in (HOTMEM, VANILLA, OVERPROVISIONED)
        }
        assert (
            caps[HOTMEM]
            >= caps[VANILLA]
            >= caps[OVERPROVISIONED]
            >= 1
        )

    def test_cap_comes_with_structured_rejection(self):
        from dataclasses import replace

        roomy = replace(FAST, max_vms_per_host=8)
        cap, rejection = _probe_admission(roomy, OVERPROVISIONED)
        assert cap < roomy.max_vms_per_host
        assert rejection is not None and rejection.reason == "saturated"


class TestCell:
    def test_cell_is_deterministic(self):
        runs = [
            _run_cell(FAST, HOTMEM, 2) for _ in range(2)
        ]
        first, second = runs
        assert first.invocations == second.invocations
        assert first.p99_ms == second.p99_ms
        assert first.failures == second.failures
        assert first.peak_used_bytes == second.peak_used_bytes

    def test_cell_collects_per_vm_records(self):
        cell = _run_cell(FAST, VANILLA, 1)
        assert len(cell.per_vm_records) == FAST.hosts
        assert cell.invocations > 0
        assert cell.peak_used_bytes > 0


@pytest.mark.slow
class TestSweep:
    def test_density_ordering_holds(self):
        result = run(FAST)
        assert result.ordering_holds()
        assert result.density(HOTMEM) >= 1
        rendered = result.render()
        assert "hotmem" in rendered and "VIOLATED" not in rendered
