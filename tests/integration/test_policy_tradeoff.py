"""Integration tests for the spare-slot policy experiment (P1)."""

import pytest

from repro.experiments import policy_tradeoff as pt


@pytest.fixture(scope="module")
def result():
    return pt.run(pt.PolicyConfig(duration_s=120, spare_slots=(0, 2)))


def test_memory_held_rises_with_spares(result):
    assert (
        result.avg_plugged_gib["spare=2"] > result.avg_plugged_gib["spare=0"]
    )


def test_overprovisioned_holds_the_most(result):
    for label in ("spare=0", "spare=2"):
        assert (
            result.avg_plugged_gib["overprovisioned"]
            > result.avg_plugged_gib[label]
        )


def test_spares_barely_matter_with_fast_plugs(result):
    # The HotMem finding: cheap plugs make buffers pointless (<5% effect).
    assert abs(result.fast_plug_benefit()) < 0.05 * result.cold_mean_ms["spare=0"]


def test_spares_matter_with_slow_plugs(result):
    assert result.slow_plug_benefit() > 3 * abs(result.fast_plug_benefit())
    assert result.slow_plug_benefit() > 5 * max(result.fast_plug_benefit(), 1.0)


def test_every_variant_served_the_same_load_shape(result):
    counts = [result.cold_count[v] for v in result.variants()]
    assert max(counts) - min(counts) <= 8
