"""M1: host memory stranding across deployment modes (Figure 1's motivation).

The paper motivates HotMem with the N:1 model's rigid resource
allocation: over-provisioned VMs tie down their maximum memory even when
the load is low, exacerbating memory stranding on the host.  This
experiment packs several trace-driven VMs onto one host node, staggers
their load bursts, and samples the node's committed memory over time:

* **overprovisioned** — every VM holds its maximum forever (the Figure 1
  pathology);
* **vanilla** — elastic, but slow/partial reclamation keeps memory
  committed for longer after each scale-down;
* **hotmem** — memory returns to the host within milliseconds of the
  recycler's shrink events.
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

__all__ = ["StrandingConfig", "StrandingResult", "run"]

MODES = (OVERPROVISIONED, VANILLA, HOTMEM)


@dataclass(frozen=True)
class StrandingConfig:
    """Multi-VM packing scenario."""

    functions: Tuple[str, ...] = ("cnn", "bert", "bfs", "html")
    duration_s: int = 120
    keep_alive_s: int = 20
    recycle_interval_s: int = 5
    #: Burst window offset between consecutive VMs (staggered load).
    stagger_s: float = 10.0
    burst_len_s: float = 6.0
    base_rps: float = 1.0
    sample_period_s: int = 1
    seed: int = 0
    costs: CostModel = DEFAULT_COSTS


@dataclass
class StrandingResult:
    """Host-memory commitment per mode."""

    config: StrandingConfig
    #: mode value → [(t_ns, used_bytes)] samples of the host node.
    series: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)
    #: mode value → time-averaged committed GiB.
    avg_gib: Dict[str, float] = field(default_factory=dict)
    #: mode value → peak committed GiB.
    peak_gib: Dict[str, float] = field(default_factory=dict)
    #: mode value → committed GiB averaged over the final quiet quarter.
    tail_gib: Dict[str, float] = field(default_factory=dict)

    def savings_vs_overprovisioned(self, mode: str) -> float:
        """Fraction of host memory freed relative to static provisioning."""
        over = self.avg_gib[OVERPROVISIONED.name]
        return 1.0 - self.avg_gib[mode] / over

    def rows(self) -> List[List[object]]:
        out: List[List[object]] = []
        for mode in MODES:
            key = mode.name
            out.append(
                [
                    key,
                    self.avg_gib[key],
                    self.peak_gib[key],
                    self.tail_gib[key],
                    f"{self.savings_vs_overprovisioned(key):.0%}",
                ]
            )
        return out

    def render(self) -> str:
        return render_table(
            "M1: host memory committed by 4 trace-driven VMs (GiB)",
            ["mode", "avg_gib", "peak_gib", "tail_gib", "avg_savings"],
            self.rows(),
        )


def _run_mode(
    config: StrandingConfig, mode: DeploymentBackend
) -> List[Tuple[int, float]]:
    sim = Simulator()
    fleet = Fleet(sim)
    node = fleet.hosts[0].node(0)
    runtime = FaasRuntime(sim)
    generator = AzureTraceGenerator(config.seed)
    horizon_ns = config.duration_s * SEC

    for index, name in enumerate(config.functions):
        spec = get_function(name)
        instances = spec.max_instances_for(10)
        handle = fleet.provision(
            VmSpec.for_function(
                f"{name}-vm",
                mode,
                spec.memory_limit_bytes,
                concurrency=instances,
                shared_bytes=spec.shared_deps_bytes,
                costs=config.costs,
                seed=config.seed + index,
            )
        )
        agent = handle.deploy(
            [FunctionDeployment(spec, max_instances=instances)],
            KeepAlivePolicy(
                keep_alive_ns=config.keep_alive_s * SEC,
                recycle_interval_ns=config.recycle_interval_s * SEC,
            ),
        )
        runtime.register_agent(agent)
        burst_start = index * config.stagger_s
        trace = generator.bursty(
            name,
            duration_s=float(config.duration_s),
            burst_rps=instances * 2.0,
            base_rps=config.base_rps,
            bursts=((burst_start, burst_start + config.burst_len_s),),
        )
        runtime.drive(agent, trace)
        agent.start_recycler(until_ns=horizon_ns)

    sampler = PeriodicSampler(
        sim,
        lambda: node.used_bytes,
        period_ns=config.sample_period_s * SEC,
        name=f"host-used-{mode.name}",
    )
    sampler.start(until_ns=horizon_ns)
    runtime.run(until_ns=horizon_ns)
    return sampler.series.samples


def _cell(config: StrandingConfig, cell: Cell) -> List[Tuple[int, float]]:
    return _run_mode(config, get_mode(cell["mode"]))


def _grid(config: StrandingConfig) -> SweepGrid:
    del config
    return SweepGrid("stranding").axis(
        "mode", tuple(m.name for m in MODES)
    )


def run(config: StrandingConfig = StrandingConfig()) -> StrandingResult:
    """Sample host memory commitment for all three deployment modes."""
    result = StrandingResult(config)
    for cell_result in run_sweep(_grid(config), _cell, config):
        samples = cell_result.payload
        values = [v for _, v in samples]
        key = cell_result["mode"]
        result.series[key] = samples
        result.avg_gib[key] = sum(values) / len(values) / GIB
        result.peak_gib[key] = max(values) / GIB
        tail = values[-max(1, len(values) // 4):]
        result.tail_gib[key] = sum(tail) / len(tail) / GIB
    return result


register_experiment(
    "stranding",
    "M1 host memory stranding (Figure 1 motivation)",
    config=StrandingConfig,
    run=run,
)
