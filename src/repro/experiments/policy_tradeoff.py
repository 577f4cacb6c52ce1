"""P1: spare-slot policy — cold-start latency vs memory held.

The memory-harvesting line of work the paper cites ([28]) masks slow
reclamation by keeping buffers of idle memory around.  HotMem makes
reclamation cheap enough that such buffers become a *policy knob* rather
than a necessity; this experiment quantifies the knob: with
``spare_slots = k`` the recycler leaves ``k`` instance-slots of memory
plugged after scale-down, so the next burst's first cold starts skip
their plug (and attach straight to a populated partition).

A repeated burst/quiet-cycle trace drives the measurement.  The headline
finding mirrors the paper's Figure 9 argument: **under HotMem, spare
buffers buy almost nothing** — plugs are cheap and barely on the cold
path, so holding memory back only raises the footprint.  The experiment
also re-runs the sweep with an artificially slow plug path
(``slow_plug_factor``): there the spare slots visibly cut cold-start
latency — demonstrating that idle-memory buffers are a workaround for
slow (un)plug, which HotMem obviates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.experiments.serverless import (
    FunctionLoad,
    ServerlessScenario,
    run_scenario,
)
from repro.metrics.latency import percentile
from repro.metrics.report import render_table
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sweep import Cell, SweepGrid, register_experiment, run_sweep
from repro.units import GIB

__all__ = ["PolicyConfig", "PolicyResult", "run"]


@dataclass(frozen=True)
class PolicyConfig:
    """Repeated burst cycles against one HotMem VM."""

    function: str = "bert"
    spare_slots: Tuple[int, ...] = (0, 1, 2)
    include_overprovisioned: bool = True
    duration_s: int = 160
    cycle_s: float = 40.0
    burst_len_s: float = 5.0
    keep_alive_s: int = 12
    recycle_interval_s: int = 4
    #: Plug-cost multiplier for the slow-plug regime (0 disables it).
    slow_plug_factor: int = 8
    seed: int = 0
    costs: CostModel = DEFAULT_COSTS

    def slow_costs(self) -> CostModel:
        """The cost model of the artificially slow plug path."""
        return self.costs.replace(
            hot_add_block_ns=self.costs.hot_add_block_ns * self.slow_plug_factor,
            online_block_ns=self.costs.online_block_ns * self.slow_plug_factor,
        )

    def bursts(self) -> Tuple[Tuple[float, float], ...]:
        """One burst per cycle."""
        out = []
        start = 0.0
        while start + self.burst_len_s < self.duration_s:
            out.append((start, start + self.burst_len_s))
            start += self.cycle_s
        return tuple(out)


@dataclass
class PolicyResult:
    """Cold-start latency vs memory held, per policy variant."""

    config: PolicyConfig
    #: variant label → mean cold-start latency (ms).
    cold_mean_ms: Dict[str, float] = field(default_factory=dict)
    #: variant label → p95 cold-start latency (ms).
    cold_p95_ms: Dict[str, float] = field(default_factory=dict)
    #: variant label → cold starts observed.
    cold_count: Dict[str, int] = field(default_factory=dict)
    #: variant label → time-averaged plugged memory (GiB).
    avg_plugged_gib: Dict[str, float] = field(default_factory=dict)

    def variants(self) -> List[str]:
        labels = [f"spare={k}" for k in self.config.spare_slots]
        if self.config.slow_plug_factor:
            labels.extend(
                f"slow-plug spare={k}" for k in self.config.spare_slots
            )
        if self.config.include_overprovisioned:
            labels.append("overprovisioned")
        return labels

    def slow_plug_benefit(self) -> float:
        """Cold-latency saved by the max spare count under slow plugs."""
        spares = self.config.spare_slots
        return (
            self.cold_mean_ms[f"slow-plug spare={spares[0]}"]
            - self.cold_mean_ms[f"slow-plug spare={spares[-1]}"]
        )

    def fast_plug_benefit(self) -> float:
        """Cold-latency saved by the max spare count under normal plugs."""
        spares = self.config.spare_slots
        return (
            self.cold_mean_ms[f"spare={spares[0]}"]
            - self.cold_mean_ms[f"spare={spares[-1]}"]
        )

    def rows(self) -> List[List[object]]:
        return [
            [
                label,
                self.cold_count[label],
                self.cold_mean_ms[label],
                self.cold_p95_ms[label],
                self.avg_plugged_gib[label],
            ]
            for label in self.variants()
        ]

    def render(self) -> str:
        return render_table(
            f"P1: spare-slot policy for {self.config.function!r} "
            f"(cold-start latency vs memory held)",
            ["variant", "colds", "cold_mean_ms", "cold_p95_ms", "avg_plugged_gib"],
            self.rows(),
        )


def _cell(config: PolicyConfig, cell: Cell) -> Tuple[int, float, float, float]:
    """One policy variant: (colds, mean ms, p95 ms, avg plugged GiB)."""
    # Modest bursts (≈3 concurrent instances): most of each burst's cold
    # starts can then be absorbed by the spare slots under test.
    load = FunctionLoad.for_function(
        config.function,
        bursts=config.bursts(),
        burst_rps=6.0,
        base_rps=0.2,
    )
    run = run_scenario(
        ServerlessScenario(
            mode=cell["mode"],
            loads=(load,),
            duration_s=config.duration_s,
            keep_alive_s=config.keep_alive_s,
            recycle_interval_s=config.recycle_interval_s,
            spare_slots=cell["spare"],
            sample_plugged_s=1,
            drain_s=15,
            seed=config.seed,
            costs=config.slow_costs() if cell["slow"] else config.costs,
        )
    )
    colds = [r for r in run.records if r.ok and r.cold]
    latencies = [r.latency_ns / 1e6 for r in colds]
    values = [v for _, v in run.plugged_series]
    return (
        len(colds),
        sum(latencies) / len(latencies),
        percentile(latencies, 95),
        sum(values) / len(values) / GIB,
    )


def _variant_rows(config: PolicyConfig) -> List[Dict[str, object]]:
    """Explicit (ragged) rows: the variant labels drive the grid."""
    rows: List[Dict[str, object]] = [
        {"mode": "hotmem", "spare": k, "slow": False,
         "label": f"spare={k}"}
        for k in config.spare_slots
    ]
    if config.slow_plug_factor:
        rows.extend(
            {"mode": "hotmem", "spare": k, "slow": True,
             "label": f"slow-plug spare={k}"}
            for k in config.spare_slots
        )
    if config.include_overprovisioned:
        rows.append(
            {"mode": "overprovisioned", "spare": 0,
             "slow": False, "label": "overprovisioned"}
        )
    return rows


def _grid(config: PolicyConfig) -> SweepGrid:
    return SweepGrid.explicit(
        ("mode", "spare", "slow", "label"),
        _variant_rows(config),
        name="policy",
    )


def run(config: PolicyConfig = PolicyConfig()) -> PolicyResult:
    """Measure every spare-slot variant (plus the static limit case)."""
    result = PolicyResult(config)
    for cell_result in run_sweep(_grid(config), _cell, config):
        label = cell_result["label"]
        count, mean_ms, p95_ms, plugged_gib = cell_result.payload
        result.cold_count[label] = count
        result.cold_mean_ms[label] = mean_ms
        result.cold_p95_ms[label] = p95_ms
        result.avg_plugged_gib[label] = plugged_gib
    return result


register_experiment(
    "policy",
    "P1 spare-slot policy: cold-start latency vs memory held",
    config=PolicyConfig,
    run=run,
)
