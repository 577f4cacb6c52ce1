"""Figure 10: unplug interference on co-located function instances.

Paper setup (Section 6.2.2): Cnn and HTML share one VM (equal 384 MiB
limits, so equal partition sizes).  Cnn instances are pinned to two
vCPUs, one of which also serves virtio-mem interrupts; HTML gets the
other eight.  When the runtime shrinks the VM after evicting a wave of
idle HTML instances (keep-alive 120 s → ≈125 s and ≈225 s), vanilla's
page migrations hog the shared vCPU and Cnn's per-second latency spikes
by more than 100 %; HotMem shows no spike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.serverless import (
    FunctionLoad,
    ServerlessScenario,
    ServerlessRun,
    run_scenario,
)
from repro.metrics.latency import (
    per_second_average_ms,
    spike_factor,
    window_mean_factor,
)
from repro.metrics.report import render_table
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sweep import Cell, SweepGrid, register_experiment, run_sweep
from repro.units import SEC

__all__ = ["Fig10Config", "Fig10Result", "run"]


@dataclass(frozen=True)
class Fig10Config:
    """Co-location configuration (defaults scaled down for speed)."""

    duration_s: int = 200
    keep_alive_s: int = 90
    recycle_interval_s: int = 15
    cnn_instances: int = 4
    html_instances: int = 30
    cnn_rps: float = 3.0
    html_base_rps: float = 4.0
    html_burst_rps: float = 60.0
    html_bursts: Tuple[Tuple[float, float], ...] = ((0.0, 8.0),)
    #: Seconds after the first shrink event that count as "the spike
    #: window" (unplug plus its queueing aftermath).
    spike_window_s: int = 5
    seed: int = 0
    costs: CostModel = DEFAULT_COSTS

    @classmethod
    def paper_scale(cls) -> "Fig10Config":
        """The paper's 300 s / keep-alive 120 s / 40 HTML instances, with
        a second HTML burst so two shrink waves appear.

        Cnn load is denser than the scaled default so that per-second
        buckets around the shrink events always contain arrivals, and the
        HTML background keeps enough residual occupancy for the vanilla
        unplug to migrate heavily (as on the paper's testbed).
        """
        return cls(
            duration_s=300,
            keep_alive_s=120,
            recycle_interval_s=15,
            html_instances=40,
            html_burst_rps=120.0,
            html_base_rps=8.0,
            cnn_rps=4.0,
            html_bursts=((0.0, 4.0), (95.0, 99.0)),
            spike_window_s=6,
        )


@dataclass
class Fig10Result:
    """Per-second Cnn latency series and spike quantification."""

    config: Fig10Config
    #: mode value → [(second, avg latency ms)] for Cnn.
    cnn_series: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)
    #: mode value → shrink event times (s).
    shrink_times_s: Dict[str, List[float]] = field(default_factory=dict)
    #: mode value → peak-based spike factor around the first shrink event.
    spike: Dict[str, float] = field(default_factory=dict)
    #: mode value → mean-based factor over the shrink window (noise-robust).
    window_mean: Dict[str, float] = field(default_factory=dict)
    #: mode value → baseline (median) per-second latency (ms).
    baseline_ms: Dict[str, float] = field(default_factory=dict)

    def interference_gap(self) -> float:
        """Vanilla window-mean factor over HotMem's (>1 = paper's story)."""
        return self.window_mean["vanilla"] / self.window_mean["hotmem"]

    def rows(self) -> List[List[object]]:
        out: List[List[object]] = []
        for mode in ("vanilla", "hotmem"):
            out.append(
                [
                    mode,
                    self.baseline_ms[mode],
                    self.spike[mode],
                    self.window_mean[mode],
                    ", ".join(f"{t:.0f}" for t in self.shrink_times_s[mode]),
                ]
            )
        return out

    def render(self) -> str:
        return render_table(
            "Figure 10: Cnn per-second latency under HTML scale-down "
            "(factors = peak and mean vs baseline around the first shrink)",
            ["mode", "baseline_ms", "spike_factor", "window_mean", "shrink_times_s"],
            self.rows(),
        )

    def series_rows(self, mode: str, every: int = 10) -> List[List[object]]:
        """A thinned view of the per-second series for printing."""
        rows = []
        for second, value in self.cnn_series[mode]:
            if second % every == 0 and not math.isnan(value):
                rows.append([second, value])
        return rows


def _scenario(config: Fig10Config, mode: str) -> ServerlessScenario:
    # Cnn keeps a fixed warm pool (its instances see steady load and are
    # never recycled), so the only thing that can perturb it mid-run is
    # CPU interference on its pinned vCPUs — the effect under test.
    cnn = FunctionLoad.for_function(
        "cnn",
        max_instances=config.cnn_instances,
        base_rps=config.cnn_rps,
        burst_rps=config.cnn_rps * 4,
        bursts=((0.0, 1.0),),
        vcpu_indices=(0, 1),  # vCPU 0 also serves virtio-mem interrupts
        reuse="fifo",  # rotate the pool so no Cnn instance is ever recycled
    )
    html = FunctionLoad.for_function(
        "html",
        max_instances=config.html_instances,
        base_rps=config.html_base_rps,
        burst_rps=config.html_burst_rps,
        bursts=config.html_bursts,
        vcpu_indices=tuple(range(2, 10)),
    )
    return ServerlessScenario(
        mode=mode,
        loads=(cnn, html),
        duration_s=config.duration_s,
        keep_alive_s=config.keep_alive_s,
        recycle_interval_s=config.recycle_interval_s,
        drain_s=10,
        virtio_irq_vcpu=0,
        seed=config.seed,
        costs=config.costs,
    )


def _cell(config: Fig10Config, cell: Cell) -> Dict[str, object]:
    """One mode's co-location run, with spike factors computed in-cell."""
    run_result: ServerlessRun = run_scenario(
        _scenario(config, cell["mode"])
    )
    series = per_second_average_ms(
        run_result.records_for("cnn"), config.duration_s
    )
    shrink_times = [e.time_ns / SEC for e in run_result.shrink_events]
    if shrink_times:
        first = int(shrink_times[0])
        window = (
            max(0, first),
            min(config.duration_s, first + config.spike_window_s),
        )
    else:
        window = (0, 1)
    finite = sorted(v for _, v in series if not math.isnan(v))
    return {
        "series": series,
        "shrink_times": shrink_times,
        "spike": spike_factor(series, window),
        "window_mean": window_mean_factor(series, window),
        "baseline": finite[len(finite) // 2] if finite else float("nan"),
    }


def _grid(config: Fig10Config) -> SweepGrid:
    del config
    return SweepGrid("fig10").axis("mode", ("vanilla", "hotmem"))


def run(config: Fig10Config = Fig10Config()) -> Fig10Result:
    """Run the co-location experiment for both mechanisms."""
    result = Fig10Result(config)
    for cell_result in run_sweep(_grid(config), _cell, config):
        mode = cell_result["mode"]
        payload = cell_result.payload
        result.cnn_series[mode] = payload["series"]
        result.shrink_times_s[mode] = payload["shrink_times"]
        result.spike[mode] = payload["spike"]
        result.window_mean[mode] = payload["window_mean"]
        result.baseline_ms[mode] = payload["baseline"]
    return result


register_experiment(
    "fig10",
    "Co-location interference during shrink",
    config=Fig10Config,
    run=run,
)
