"""Integration tests for the host-stranding motivation experiment."""

import pytest

from repro.experiments import stranding


@pytest.fixture(scope="module")
def result():
    return stranding.run(
        stranding.StrandingConfig(
            functions=("cnn", "html"), duration_s=80, keep_alive_s=15
        )
    )


def test_overprovisioned_memory_is_constant(result):
    values = [v for _, v in result.series["overprovisioned"]]
    assert max(values) == min(values)
    # Static provisioning never lets go of anything.
    assert result.tail_gib["overprovisioned"] == result.peak_gib["overprovisioned"]


def test_elastic_modes_release_memory(result):
    for mode in ("vanilla", "hotmem"):
        # Average commitment under half of static provisioning's.
        assert result.savings_vs_overprovisioned(mode) > 0.5
        # After the bursts die down, commitment falls well below the peak.
        assert result.tail_gib[mode] < 0.7 * result.peak_gib[mode]


def test_elastic_modes_track_each_other(result):
    assert result.avg_gib["hotmem"] == pytest.approx(
        result.avg_gib["vanilla"], rel=0.25
    )


def test_samples_cover_the_run(result):
    config = result.config
    for mode in ("overprovisioned", "vanilla", "hotmem"):
        assert len(result.series[mode]) >= config.duration_s - 1
