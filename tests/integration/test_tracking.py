"""Integration tests for the diurnal tracking experiment (E1)."""

import pytest

from repro.experiments import tracking


@pytest.fixture(scope="module")
def result():
    return tracking.run(
        tracking.TrackingConfig(duration_s=300, period_s=100.0)
    )


def test_elastic_modes_track_demand(result):
    for mode in ("hotmem", "vanilla"):
        assert result.tracking_ratio[mode] == pytest.approx(1.0, abs=0.35)
        assert result.avg_overhead_gib[mode] < 1.0
    assert result.tracking_ratio["hotmem"] < 1.3


def test_overprovisioned_holds_maximum(result):
    series = result.plugged["overprovisioned"]
    values = {v for _, v in series}
    assert len(values) == 1  # never resized
    assert result.tracking_ratio["overprovisioned"] > 3.0


def test_plugged_memory_actually_cycles(result):
    for mode in ("hotmem", "vanilla"):
        values = [v for _, v in result.plugged[mode]]
        assert max(values) > 2 * min(values)


def test_required_series_cycles_with_load(result):
    values = [v for _, v in result.required["hotmem"]]
    assert max(values) > 2 * min(values)
