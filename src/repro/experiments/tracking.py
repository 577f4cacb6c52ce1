"""E1: elasticity tracking under a diurnal load cycle.

How closely does each deployment mode's *plugged* memory follow the
*required* memory (live instances × limit) as load swings through
day/night cycles?  The paper's claim is that HotMem's fast, reliable
reclamation lets VM memory track the instance count; this experiment
measures the tracking error over a long horizon:

* **overhead** — plugged minus required (memory held beyond need);
* **tracking ratio** — time-averaged plugged over time-averaged required
  (1.0 = perfect tracking; the over-provisioned mode is the worst case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cluster.provision import Fleet, VmSpec
from repro.faas.agent import FunctionDeployment
from repro.faas.policy import KeepAlivePolicy
from repro.faas.runtime import FaasRuntime
from repro.metrics.collector import PeriodicSampler
from repro.metrics.report import render_table
from repro.modes import HOTMEM, OVERPROVISIONED, VANILLA, DeploymentBackend, get_mode
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.engine import Simulator
from repro.sweep import Cell, SweepGrid, register_experiment, run_sweep
from repro.units import GIB, SEC
from repro.workloads.azure import AzureTraceGenerator
from repro.workloads.functions import get_function

__all__ = ["TrackingConfig", "TrackingResult", "run"]

MODES = (HOTMEM, VANILLA, OVERPROVISIONED)


@dataclass(frozen=True)
class TrackingConfig:
    """A long diurnal run for one function."""

    function: str = "html"
    duration_s: int = 600
    period_s: float = 200.0
    peak_rps: float = 60.0
    trough_rps: float = 1.0
    keep_alive_s: int = 30
    recycle_interval_s: int = 10
    sample_period_s: int = 2
    seed: int = 0
    costs: CostModel = DEFAULT_COSTS

    @classmethod
    def paper_scale(cls) -> "TrackingConfig":
        """An hour of simulated time with 20-minute cycles."""
        return cls(duration_s=3600, period_s=1200.0)


@dataclass
class TrackingResult:
    """Tracking statistics per deployment mode."""

    config: TrackingConfig
    #: mode → [(t_ns, plugged_bytes)].
    plugged: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)
    #: mode → [(t_ns, required_bytes)] (live instances × limit + shared).
    required: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)
    avg_plugged_gib: Dict[str, float] = field(default_factory=dict)
    avg_required_gib: Dict[str, float] = field(default_factory=dict)
    avg_overhead_gib: Dict[str, float] = field(default_factory=dict)
    tracking_ratio: Dict[str, float] = field(default_factory=dict)

    def rows(self) -> List[List[object]]:
        out: List[List[object]] = []
        for mode in MODES:
            key = mode.name
            out.append(
                [
                    key,
                    self.avg_required_gib[key],
                    self.avg_plugged_gib[key],
                    self.avg_overhead_gib[key],
                    self.tracking_ratio[key],
                ]
            )
        return out

    def render(self) -> str:
        return render_table(
            f"E1: memory tracking under a diurnal cycle "
            f"({self.config.duration_s}s, period {self.config.period_s:.0f}s)",
            ["mode", "avg_required_gib", "avg_plugged_gib", "avg_overhead_gib",
             "tracking_ratio"],
            self.rows(),
        )


def _run_mode(config: TrackingConfig, mode: DeploymentBackend):
    sim = Simulator()
    fleet = Fleet(sim)
    spec = get_function(config.function)
    instances = spec.max_instances_for(10)
    handle = fleet.provision(
        VmSpec.for_function(
            f"track-{mode.name}",
            mode,
            spec.memory_limit_bytes,
            concurrency=instances,
            shared_bytes=spec.shared_deps_bytes,
            costs=config.costs,
            seed=config.seed,
        )
    )
    vm = handle.vm
    agent = handle.deploy(
        [FunctionDeployment(spec, max_instances=instances)],
        KeepAlivePolicy(
            keep_alive_ns=config.keep_alive_s * SEC,
            recycle_interval_ns=config.recycle_interval_s * SEC,
        ),
    )
    runtime = FaasRuntime(sim)
    runtime.register_agent(agent)
    trace = AzureTraceGenerator(config.seed).diurnal(
        config.function,
        duration_s=float(config.duration_s),
        period_s=config.period_s,
        peak_rps=config.peak_rps,
        trough_rps=config.trough_rps,
    )
    runtime.drive(agent, trace)
    horizon = config.duration_s * SEC
    agent.start_recycler(until_ns=horizon)
    plugged = PeriodicSampler(
        sim, lambda: vm.device.plugged_bytes,
        period_ns=config.sample_period_s * SEC, name="plugged",
    )
    required = PeriodicSampler(
        sim, agent.target_plugged_bytes,
        period_ns=config.sample_period_s * SEC, name="required",
    )
    plugged.start(until_ns=horizon)
    required.start(until_ns=horizon)
    runtime.run(until_ns=horizon)
    vm.check_consistency()
    return plugged.series.samples, required.series.samples


def _cell(config: TrackingConfig, cell: Cell):
    return _run_mode(config, get_mode(cell["mode"]))


def _grid(config: TrackingConfig) -> SweepGrid:
    del config
    return SweepGrid("tracking").axis(
        "mode", tuple(m.name for m in MODES)
    )


def run(config: TrackingConfig = TrackingConfig()) -> TrackingResult:
    """Measure tracking for every deployment mode."""
    result = TrackingResult(config)
    for cell_result in run_sweep(_grid(config), _cell, config):
        plugged, required = cell_result.payload
        key = cell_result["mode"]
        result.plugged[key] = plugged
        result.required[key] = required
        plugged_values = [v for _, v in plugged]
        required_values = [v for _, v in required]
        overhead = [
            max(0.0, p - r) for p, r in zip(plugged_values, required_values)
        ]
        result.avg_plugged_gib[key] = sum(plugged_values) / len(plugged_values) / GIB
        result.avg_required_gib[key] = (
            sum(required_values) / len(required_values) / GIB
        )
        result.avg_overhead_gib[key] = sum(overhead) / len(overhead) / GIB
        result.tracking_ratio[key] = (
            result.avg_plugged_gib[key] / result.avg_required_gib[key]
            if result.avg_required_gib[key]
            else float("inf")
        )
    return result


register_experiment(
    "tracking",
    "E1 memory tracking under a diurnal load cycle",
    config=TrackingConfig,
    run=run,
)
