"""Integration tests: every figure's qualitative shape must hold.

These run scaled-down versions of the paper's experiments and assert the
*claims*, not the absolute numbers (see EXPERIMENTS.md):

* Fig 5 — HotMem reclaims an order of magnitude faster at every size,
  and latency grows with the request size for both mechanisms;
* Fig 6 — vanilla latency rises with guest memory usage, HotMem is flat;
* Fig 7 — vanilla burns far more unplug-path CPU and takes longer;
* Fig 8 — HotMem's trace-driven reclaim throughput is a multiple of
  vanilla's;
* Fig 9 — elastic P99 is comparable to the over-provisioned baseline and
  HotMem ≈ vanilla;
* Fig 10 — vanilla shows a shrink-window latency spike, HotMem doesn't.
"""

import pytest

from repro.experiments import fig5_unplug_latency as fig5
from repro.experiments import fig6_usage_sweep as fig6
from repro.experiments import fig7_cpu_usage as fig7
from repro.experiments import fig8_reclaim_throughput as fig8
from repro.experiments import fig9_p99_latency as fig9
from repro.experiments import fig10_interference as fig10
from repro.experiments import table1
from repro.units import GIB, MIB


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5.run(
            fig5.Fig5Config(
                reclaim_sizes=(384 * MIB, 768 * MIB, 1536 * MIB),
                total_bytes=3 * GIB,
                trials=1,
            )
        )

    def test_hotmem_order_of_magnitude_faster_at_every_size(self, result):
        for size in result.config.reclaim_sizes:
            assert result.speedup(size) >= 10.0

    def test_latency_grows_with_size(self, result):
        sizes = sorted(result.config.reclaim_sizes)
        for mode in ("vanilla", "hotmem"):
            values = [result.latency_ms[size][mode] for size in sizes]
            assert values == sorted(values)

    def test_hotmem_never_migrates(self, result):
        for size in result.config.reclaim_sizes:
            assert result.migrated_pages[size]["hotmem"] == 0
            assert result.migrated_pages[size]["vanilla"] > 0


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6.run(
            fig6.Fig6Config(
                total_bytes=8 * GIB,
                reclaim_bytes=1 * GIB,
                partition_bytes=1 * GIB,
                usage_fractions=(0.2, 0.5, 0.8),
            )
        )

    def test_vanilla_latency_rises_with_usage(self, result):
        assert result.vanilla_trend_ratio() > 2.0

    def test_hotmem_latency_flat(self, result):
        assert result.hotmem_spread_ratio() < 1.2

    def test_hotmem_beats_vanilla_at_every_usage(self, result):
        for fraction in result.config.usage_fractions:
            point = result.latency_ms[fraction]
            assert point["hotmem"] * 5 < point["vanilla"]


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7.run(
            fig7.Fig7Config(total_bytes=4 * GIB, step_bytes=512 * MIB, steps=6)
        )

    def test_vanilla_burns_more_cpu(self, result):
        assert result.cpu_ratio() > 10.0

    def test_vanilla_takes_longer_overall(self, result):
        assert result.duration_s["vanilla"] > result.duration_s["hotmem"]

    def test_cumulative_series_monotone(self, result):
        for mode in ("vanilla", "hotmem"):
            cpu = [v for _, v in result.cpu_series[mode]]
            assert cpu == sorted(cpu)
            assert len(cpu) == result.config.steps


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8.run(
            fig8.Fig8Config(
                functions=("cnn", "html"), duration_s=60, keep_alive_s=15,
                recycle_interval_s=5,
            )
        )

    def test_hotmem_throughput_multiple_of_vanilla(self, result):
        for fn in result.config.functions:
            assert result.speedup(fn) >= 3.0

    def test_both_reclaim_same_amount(self, result):
        for fn in result.config.functions:
            vanilla = result.reclaimed_mib[fn]["vanilla"]
            hotmem = result.reclaimed_mib[fn]["hotmem"]
            assert vanilla > 0
            assert hotmem == pytest.approx(vanilla, rel=0.3)


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return fig9.run(
            fig9.Fig9Config(
                functions=("cnn", "bert"), duration_s=80, keep_alive_s=20,
                recycle_interval_s=10,
            )
        )

    def test_hotmem_matches_vanilla(self, result):
        for fn in result.config.functions:
            hotmem = result.p99[fn]["hotmem"]
            vanilla = result.p99[fn]["vanilla"]
            assert hotmem == pytest.approx(vanilla, rel=0.15)

    def test_elasticity_overhead_small(self, result):
        for fn in result.config.functions:
            for mode in ("hotmem", "vanilla"):
                assert result.elasticity_overhead(fn, mode) < 1.5

    def test_plug_latency_tens_of_ms(self, result):
        # The paper reports ≈30 ms plugs for Bert (640 MiB).
        assert 5 < result.plug_ms["bert"]["hotmem"] < 150


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10.run(fig10.Fig10Config())

    def test_shrink_events_happen(self, result):
        for mode in ("vanilla", "hotmem"):
            assert result.shrink_times_s[mode]

    def test_vanilla_spikes_hotmem_does_not(self, result):
        assert result.spike["vanilla"] > 1.5
        assert result.window_mean["vanilla"] > 1.3
        assert result.window_mean["hotmem"] < 1.2
        assert result.interference_gap() > 1.2

    def test_baselines_comparable(self, result):
        vanilla = result.baseline_ms["vanilla"]
        hotmem = result.baseline_ms["hotmem"]
        assert hotmem == pytest.approx(vanilla, rel=0.1)


class TestTable1:
    def test_rows_match_paper(self):
        rows = table1.rows()
        assert [row[0] for row in rows] == ["Cnn", "Bert", "Bfs", "HTML"]
        assert [row[2] for row in rows] == [0.5, 1.0, 0.5, 0.2]
        assert [row[3] for row in rows] == [384, 640, 384, 384]

    def test_render_mentions_every_function(self):
        text = table1.render()
        for name in ("Cnn", "Bert", "HTML"):
            assert name in text
