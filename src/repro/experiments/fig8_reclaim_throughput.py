"""Figure 8: memory reclamation throughput under trace-driven scaling.

Paper result: while scaling instances up and down with a bursty Azure
trace, HotMem reclaims memory at roughly 7× the throughput of vanilla
virtio-mem, for every one of the four functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.serverless import (
    FunctionLoad,
    ServerlessScenario,
    run_scenario,
)
from repro.metrics.report import format_ratio, render_table
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sweep import Cell, SweepGrid, register_experiment, run_sweep

__all__ = ["Fig8Config", "Fig8Result", "run"]


@dataclass(frozen=True)
class Fig8Config:
    """Per-function trace replay configuration."""

    functions: Tuple[str, ...] = ("cnn", "bert", "bfs", "html")
    duration_s: int = 150
    keep_alive_s: int = 30
    recycle_interval_s: int = 10
    seed: int = 0
    costs: CostModel = DEFAULT_COSTS

    @classmethod
    def paper_scale(cls) -> "Fig8Config":
        """Longer traces with the paper's 120 s keep-alive."""
        return cls(duration_s=400, keep_alive_s=120, recycle_interval_s=15)


@dataclass
class Fig8Result:
    """Reclaim throughput per function per mechanism."""

    config: Fig8Config
    #: function → mode → MiB/s.
    throughput: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: function → mode → total MiB reclaimed.
    reclaimed_mib: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def speedup(self, function: str) -> float:
        """HotMem over vanilla reclaim throughput."""
        return (
            self.throughput[function]["hotmem"]
            / self.throughput[function]["vanilla"]
        )

    def rows(self) -> List[List[object]]:
        out: List[List[object]] = []
        for fn in self.config.functions:
            out.append(
                [
                    fn,
                    self.throughput[fn]["vanilla"],
                    self.throughput[fn]["hotmem"],
                    format_ratio(
                        self.throughput[fn]["hotmem"],
                        self.throughput[fn]["vanilla"],
                    ),
                    self.reclaimed_mib[fn]["vanilla"],
                    self.reclaimed_mib[fn]["hotmem"],
                ]
            )
        return out

    def render(self) -> str:
        return render_table(
            "Figure 8: reclamation throughput (MiB/s) while scaling with a "
            "bursty trace",
            [
                "function",
                "vanilla_mib_s",
                "hotmem_mib_s",
                "speedup",
                "vanilla_mib",
                "hotmem_mib",
            ],
            self.rows(),
        )


def _cell(config: Fig8Config, cell: Cell) -> Tuple[float, float]:
    """One (function, mode) trace replay in a fresh scenario."""
    scenario = ServerlessScenario(
        mode=cell["mode"],
        loads=(FunctionLoad.for_function(cell["function"]),),
        duration_s=config.duration_s,
        keep_alive_s=config.keep_alive_s,
        recycle_interval_s=config.recycle_interval_s,
        seed=config.seed,
        costs=config.costs,
    )
    run_result = run_scenario(scenario)
    unplugged = sum(
        e.completed_bytes
        for e in run_result.resize_events
        if e.kind == "unplug"
    )
    return run_result.reclaim_mib_per_s, unplugged / (1024 * 1024)


def _grid(config: Fig8Config) -> SweepGrid:
    return (
        SweepGrid("fig8")
        .axis("function", config.functions)
        .axis("mode", ("vanilla", "hotmem"))
    )


def run(config: Fig8Config = Fig8Config()) -> Fig8Result:
    """Replay each function's trace under both elastic mechanisms."""
    result = Fig8Result(config)
    for cell_result in run_sweep(_grid(config), _cell, config):
        fn, mode = cell_result["function"], cell_result["mode"]
        throughput, reclaimed = cell_result.payload
        result.throughput.setdefault(fn, {})[mode] = throughput
        result.reclaimed_mib.setdefault(fn, {})[mode] = reclaimed
    return result


register_experiment(
    "fig8",
    "Trace-driven reclamation throughput",
    config=Fig8Config,
    run=run,
)
