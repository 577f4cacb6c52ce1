"""Figure 9: P99 invocation latency across the three configurations.

Paper result: HotMem and vanilla achieve comparable P99 to each other
*and* to statically over-provisioned VMs — elasticity does not penalize
tail latency.  Only Bert is slightly affected because its plug requests
(640 MiB) take ≈30 ms on the cold path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.serverless import (
    FunctionLoad,
    ServerlessScenario,
    run_scenario,
)
from repro.metrics.latency import p99_ms
from repro.metrics.report import render_table
from repro.modes import HOTMEM, OVERPROVISIONED, VANILLA
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sweep import Cell, SweepGrid, register_experiment, run_sweep

__all__ = ["Fig9Config", "Fig9Result", "run", "MODES"]

MODES = (HOTMEM, VANILLA, OVERPROVISIONED)


@dataclass(frozen=True)
class Fig9Config:
    """Same trace replay as Figure 8, plus the over-provisioned baseline."""

    functions: Tuple[str, ...] = ("cnn", "bert", "bfs", "html")
    duration_s: int = 150
    keep_alive_s: int = 30
    recycle_interval_s: int = 10
    seed: int = 0
    costs: CostModel = DEFAULT_COSTS

    @classmethod
    def paper_scale(cls) -> "Fig9Config":
        return cls(duration_s=400, keep_alive_s=120, recycle_interval_s=15)


@dataclass
class Fig9Result:
    """P99 per function per configuration, plus plug-latency context."""

    config: Fig9Config
    #: function → mode value → P99 (ms).
    p99: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: function → mode value → mean plug latency (ms), 0 when not elastic.
    plug_ms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: function → mode value → successful invocation count.
    invocations: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def elasticity_overhead(self, function: str, mode: str) -> float:
        """P99(mode) / P99(overprovisioned): ≈1 means elasticity is free."""
        return (
            self.p99[function][mode]
            / self.p99[function][OVERPROVISIONED.name]
        )

    def rows(self) -> List[List[object]]:
        out: List[List[object]] = []
        for fn in self.config.functions:
            out.append(
                [
                    fn,
                    self.p99[fn]["hotmem"],
                    self.p99[fn]["vanilla"],
                    self.p99[fn]["overprovisioned"],
                    self.plug_ms[fn]["hotmem"],
                    self.plug_ms[fn]["vanilla"],
                ]
            )
        return out

    def render(self) -> str:
        return render_table(
            "Figure 9: P99 invocation latency (ms) per configuration",
            [
                "function",
                "hotmem_p99",
                "vanilla_p99",
                "overprov_p99",
                "hotmem_plug_ms",
                "vanilla_plug_ms",
            ],
            self.rows(),
        )


def _cell(config: Fig9Config, cell: Cell) -> Tuple[float, float, int]:
    """One (function, mode) trace replay in a fresh scenario."""
    fn = cell["function"]
    scenario = ServerlessScenario(
        mode=cell["mode"],
        loads=(FunctionLoad.for_function(fn),),
        duration_s=config.duration_s,
        keep_alive_s=config.keep_alive_s,
        recycle_interval_s=config.recycle_interval_s,
        seed=config.seed,
        costs=config.costs,
    )
    run_result = run_scenario(scenario)
    records = run_result.records_for(fn)
    plugs = run_result.plug_latencies_ms()
    return (
        p99_ms(records),
        sum(plugs) / len(plugs) if plugs else 0.0,
        len(records),
    )


def _grid(config: Fig9Config) -> SweepGrid:
    return (
        SweepGrid("fig9")
        .axis("function", config.functions)
        .axis("mode", tuple(m.name for m in MODES))
    )


def run(config: Fig9Config = Fig9Config()) -> Fig9Result:
    """Replay each function's trace under all three configurations."""
    result = Fig9Result(config)
    for cell_result in run_sweep(_grid(config), _cell, config):
        fn, mode = cell_result["function"], cell_result["mode"]
        p99, plug_ms, invocations = cell_result.payload
        result.p99.setdefault(fn, {})[mode] = p99
        result.plug_ms.setdefault(fn, {})[mode] = plug_ms
        result.invocations.setdefault(fn, {})[mode] = invocations
    return result


register_experiment(
    "fig9",
    "P99 latency across deployment modes",
    config=Fig9Config,
    run=run,
)
