"""Integration tests for the A1-A4 and A6 ablations."""

import pytest

from repro.experiments import ablations
from repro.units import GIB, MIB


class TestPlacementAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_placement_ablation(
            total_bytes=2304 * MIB, reclaim_bytes=768 * MIB
        )

    def test_sequential_is_cheapest(self, result):
        assert result.values["sequential"] < result.values["scatter"]
        assert result.values["sequential"] < result.values["random"]

    def test_scatter_and_random_comparable(self, result):
        ratio = result.values["scatter"] / result.values["random"]
        assert 0.5 < ratio < 2.0


class TestZeroingAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_zeroing_ablation(
            total_bytes=1536 * MIB, reclaim_bytes=384 * MIB
        )

    def test_init_on_free_penalizes_vanilla_plug(self, result):
        assert (
            result.values["init_on_free/vanilla/plug"]
            > 1.5 * result.values["none/vanilla/plug"]
        )

    def test_hotmem_plug_immune_to_zeroing_mode(self, result):
        for mode in ("init_on_alloc", "init_on_free", "none"):
            assert result.values[f"{mode}/hotmem/plug"] == pytest.approx(
                result.values["none/hotmem/plug"], rel=0.01
            )

    def test_init_on_alloc_penalizes_vanilla_unplug(self, result):
        assert (
            result.values["init_on_alloc/vanilla/unplug"]
            > result.values["none/vanilla/unplug"]
        )

    def test_hotmem_unplug_fast_in_every_mode(self, result):
        for mode in ("init_on_alloc", "init_on_free", "none"):
            assert (
                result.values[f"{mode}/hotmem/unplug"] * 5
                < result.values[f"{mode}/vanilla/unplug"]
            )


class TestSelectionAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_selection_ablation(
            total_bytes=2304 * MIB, reclaim_bytes=768 * MIB
        )

    def test_selection_cannot_fix_scatter_interleaving(self, result):
        """The A3 takeaway: with uniform interleaving no selection policy
        helps — the fix must be allocation-side (HotMem's thesis)."""
        linear = result.values["scatter/linear"]
        emptiest = result.values["scatter/emptiest_first"]
        assert emptiest == pytest.approx(linear, rel=0.25)

    def test_emptiest_first_wins_under_sequential_placement(self, result):
        linear = result.values["sequential/linear"]
        emptiest = result.values["sequential/emptiest_first"]
        assert emptiest <= linear


class TestConcurrencyAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_concurrency_ablation(
            concurrencies=(4, 8), duration_s=60
        )

    def test_throughput_stays_high_across_n(self, result):
        values = [result.values[str(n)] for n in (4, 8)]
        assert min(values) > 0
        assert max(values) / min(values) < 3.0

    def test_no_failures_at_any_n(self, result):
        for row in result.rows():
            assert row[3] == 0  # oom_failures column


class TestBatchingAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablations.run_batching_ablation()

    def test_batching_beats_per_block_unplug(self, result):
        assert result.values["1/batched"] < result.values["1/per_block"]

    def test_gain_grows_with_request_size(self, result):
        """Per-block costs scale with the request; a batch pays them once."""
        gain_small = result.values["1/per_block"] / result.values["1/batched"]
        gain_large = result.values["8/per_block"] / result.values["8/batched"]
        assert gain_large > gain_small
