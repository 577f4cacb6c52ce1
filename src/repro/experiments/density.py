"""D1: VM density per host at a fixed P99 latency SLO.

The cluster-level payoff of fast reclamation (Section 2's stranding
argument turned around): if a mode reliably returns memory between
bursts, the admission controller can credit that *expected reclaimable*
memory and pack more VMs per host without violating latency SLOs.

For each deployment mode the sweep asks: what is the largest number of
VMs per host that

1. the density arbiter admits (committed-memory accounting per mode,
   :mod:`repro.cluster.admission`), and
2. still meets the end-to-end P99 latency SLO under a staggered bursty
   multi-function workload routed across the fleet?

Expected ordering: ``hotmem >= vanilla >= overprovisioned`` — the
over-provisioned mode commits every VM's maximum forever, vanilla's
slow/partial reclamation earns a small credit, and HotMem's fast
reliable reclamation earns a large one.  The sweep takes any set of
registered modes (``DensityConfig.modes`` / ``--modes`` on the CLI), so
the related-work baselines (balloon, dimm, fpr) slot straight into the
same comparison; hotmem is expected to pack at least as densely as
every other swept mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.admission import AdmissionResult, ArbitrationPolicy
from repro.cluster.provision import Fleet, VmSpec
from repro.cluster.routing import TraceRouter
from repro.faas.agent import FunctionDeployment
from repro.faas.policy import KeepAlivePolicy
from repro.faas.records import InvocationRecord
from repro.faults.policy import ResiliencePolicy, RetryPolicy
from repro.metrics.collector import FleetCollector
from repro.metrics.latency import merged_percentile_ms
from repro.metrics.report import render_fleet_latency, render_table
from repro.modes import (
    HOTMEM,
    OVERPROVISIONED,
    VANILLA,
    DeploymentBackend,
    get_mode,
    resolve_modes,
)
from repro.obs.slo import SloMonitor, fleet_slo_specs
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.engine import Simulator
from repro.sweep import Cell, SweepGrid, register_experiment, run_sweep
from repro.units import GIB, MIB, SEC
from repro.workloads.azure import AzureTraceGenerator
from repro.workloads.functions import get_function

__all__ = ["DensityConfig", "DensityCell", "DensityModeResult", "DensityResult", "run"]

#: The paper's original three-way comparison (kept as the default sweep).
MODES = (OVERPROVISIONED, VANILLA, HOTMEM)


@dataclass(frozen=True)
class DensityConfig:
    """Fleet geometry and workload for the density sweep."""

    hosts: int = 3
    nodes_per_host: int = 1
    memory_per_node: int = 8 * GIB
    cores_per_node: int = 16
    #: Functions cycled across the fleet's VMs (one function per VM).
    functions: Tuple[str, ...] = ("html", "bfs")
    vm_vcpus: int = 2
    instances_per_vm: int = 4
    #: Small microVM boot size (the density fleet runs lean kernels; the
    #: default formula's 512 MiB floor would dominate the footprint).
    boot_memory_bytes: int = 256 * MIB
    max_vms_per_host: int = 6
    duration_s: int = 48
    drain_s: int = 24
    keep_alive_s: int = 10
    recycle_interval_s: int = 2
    #: One burst window per function, staggered so cohorts do not peak
    #: together (admission credits *expected* reclamation, which assumes
    #: bursts are not perfectly correlated).
    stagger_s: float = 24.0
    burst_len_s: float = 6.0
    base_rps_per_replica: float = 1.0
    #: Burst arrival rate targets this utilisation of the cohort's vCPUs.
    burst_cpu_rho: float = 0.8
    slo_p99_ms: float = 1500.0
    max_failure_frac: float = 0.02
    routing: str = "least-loaded"
    placement: str = "numa-spread"
    max_queue_per_vm_factor: int = 16
    arbitration: ArbitrationPolicy = ArbitrationPolicy(limit_fraction=0.95)
    pressure_period_s: int = 2
    sample_period_s: int = 2
    #: Error-budget window width for the SLO burn-rate monitors.
    slo_window_s: int = 8
    seed: int = 0
    costs: CostModel = DEFAULT_COSTS
    #: Registry names of the deployment modes to sweep, in report order.
    modes: Tuple[str, ...] = ("overprovisioned", "vanilla", "hotmem")

    def mode_objects(self) -> Tuple[DeploymentBackend, ...]:
        """The swept modes resolved through the registry."""
        return resolve_modes(self.modes)

    @classmethod
    def paper_scale(cls) -> "DensityConfig":
        """A larger fleet with a longer trace."""
        return cls(hosts=4, max_vms_per_host=8, duration_s=96, drain_s=30)


@dataclass
class DensityCell:
    """One (mode, VMs-per-host) fleet run."""

    mode: DeploymentBackend
    vms_per_host: int
    total_vms: int
    p50_ms: float
    p99_ms: float
    invocations: int
    failures: int
    rejections: int
    pressure_reclaims: int
    #: Peak *real* host memory across hosts (bytes).
    peak_used_bytes: int
    #: Committed bytes on the fullest node at admission time (bytes).
    committed_bytes: int
    per_vm_records: Dict[str, List[InvocationRecord]] = field(default_factory=dict)
    #: Streaming-sketch percentiles over successful latencies (the
    #: bounded-memory estimate; ``p50_ms``/``p99_ms`` stay exact and
    #: remain the SLO decision inputs).
    sketch_p50_ms: float = float("nan")
    sketch_p99_ms: float = float("nan")
    #: Closed burn-rate windows that breached (latency + cold-start).
    slo_breaches: int = 0

    @property
    def failure_frac(self) -> float:
        return self.failures / self.invocations if self.invocations else 1.0

    def meets_slo(self, config: DensityConfig) -> bool:
        return (
            self.p99_ms <= config.slo_p99_ms
            and self.failure_frac <= config.max_failure_frac
        )


@dataclass
class DensityModeResult:
    """The sweep outcome for one deployment mode."""

    mode: DeploymentBackend
    #: Densest admission-feasible VMs-per-host (before the SLO check).
    admitted_vms_per_host: int
    #: Structured rejection that capped admission (None if the sweep's
    #: ``max_vms_per_host`` ceiling bound first).
    rejection: Optional[AdmissionResult]
    #: The densest cell that met the SLO (None if even 1 VM/host missed).
    best: Optional[DensityCell]
    #: Every cell run while searching downward, densest first.
    cells: List[DensityCell] = field(default_factory=list)

    @property
    def vms_per_host(self) -> int:
        return self.best.vms_per_host if self.best else 0


@dataclass
class DensityResult:
    """VMs-per-host at the P99 SLO, per deployment mode."""

    config: DensityConfig
    modes: Dict[str, DensityModeResult] = field(default_factory=dict)

    def density(self, mode) -> int:
        return self.modes[get_mode(mode).name].vms_per_host

    def ordering_holds(self) -> bool:
        """hotmem packs at least as densely as every other swept mode
        (and vanilla still beats overprovisioned when both ran)."""
        densities = {name: r.vms_per_host for name, r in self.modes.items()}
        hot = densities.get("hotmem")
        if hot is not None:
            if any(hot < d for n, d in densities.items() if n != "hotmem"):
                return False
        if "vanilla" in densities and "overprovisioned" in densities:
            if densities["vanilla"] < densities["overprovisioned"]:
                return False
        return True

    def rows(self) -> List[List[object]]:
        out: List[List[object]] = []
        for result in self.modes.values():
            mode = result.mode
            best = result.best
            out.append(
                [
                    mode.name,
                    result.admitted_vms_per_host,
                    result.vms_per_host,
                    best.total_vms if best else 0,
                    best.p50_ms if best else float("nan"),
                    best.p99_ms if best else float("nan"),
                    best.sketch_p99_ms if best else float("nan"),
                    best.slo_breaches if best else 0,
                    f"{best.failure_frac:.1%}" if best else "-",
                    best.rejections if best else 0,
                    round(best.peak_used_bytes / GIB, 2) if best else 0.0,
                    round(best.committed_bytes / GIB, 2) if best else 0.0,
                ]
            )
        return out

    def render(self) -> str:
        config = self.config
        table = render_table(
            f"D1: VMs per host at P99 <= {config.slo_p99_ms:.0f} ms "
            f"({config.hosts} hosts x {config.memory_per_node // GIB} GiB)",
            [
                "mode",
                "admitted/host",
                "slo/host",
                "vms",
                "p50 ms",
                "p99 ms",
                "sk_p99 ms",
                "breach",
                "fail",
                "rejected",
                "peak_used_gib",
                "committed_gib",
            ],
            self.rows(),
        )
        parts = [table]
        hot = self.modes.get("hotmem")
        if hot is not None and hot.best is not None:
            parts.append(
                render_fleet_latency(
                    f"hotmem fleet at {hot.best.vms_per_host} VMs/host",
                    hot.best.per_vm_records,
                )
            )
        ordering = "holds" if self.ordering_holds() else "VIOLATED"
        others = ", ".join(n for n in self.modes if n != "hotmem")
        parts.append(f"density ordering hotmem >= {others}: {ordering}")
        return "\n\n".join(parts)


def _vm_spec(
    config: DensityConfig, mode: DeploymentBackend, index: int
) -> VmSpec:
    function = config.functions[index % len(config.functions)]
    spec = get_function(function)
    return VmSpec.for_function(
        f"{mode.name}-vm{index}",
        mode,
        spec.memory_limit_bytes,
        concurrency=config.instances_per_vm,
        shared_bytes=spec.shared_deps_bytes,
        vcpus=config.vm_vcpus,
        boot_memory_bytes=config.boot_memory_bytes,
        placement="scatter",
        seed=config.seed + index,
        costs=config.costs,
    )


def _build_fleet(config: DensityConfig, sim: Simulator) -> Fleet:
    return Fleet(
        sim,
        hosts=config.hosts,
        nodes_per_host=config.nodes_per_host,
        cores_per_node=config.cores_per_node,
        memory_per_node=config.memory_per_node,
        placement=config.placement,
        arbitration=config.arbitration,
    )


def _probe_admission(
    config: DensityConfig, mode: DeploymentBackend
) -> Tuple[int, Optional[AdmissionResult]]:
    """How many VMs per host does the arbiter admit for this mode?

    Provisions a throwaway fleet (no workload runs) until the first
    structured rejection or the sweep ceiling.
    """
    fleet = _build_fleet(config, Simulator())
    ceiling = config.max_vms_per_host * config.hosts
    admitted = 0
    rejection: Optional[AdmissionResult] = None
    for index in range(ceiling + 1):
        handle, result = fleet.try_provision(_vm_spec(config, mode, index))
        if handle is None:
            rejection = result
            break
        admitted += 1
    return min(admitted // config.hosts, config.max_vms_per_host), rejection


def _run_cell(
    config: DensityConfig, mode: DeploymentBackend, vms_per_host: int
) -> DensityCell:
    sim = Simulator()
    fleet = _build_fleet(config, sim)
    total = vms_per_host * config.hosts
    horizon_ns = (config.duration_s + config.drain_s) * SEC
    keep_alive = KeepAlivePolicy(
        keep_alive_ns=config.keep_alive_s * SEC,
        recycle_interval_ns=config.recycle_interval_s * SEC,
    )
    resilience = ResiliencePolicy(
        retry=RetryPolicy(max_retries=1),
        plug_retries=4,
        deferred_attempts=2,
    )
    router = TraceRouter(
        sim,
        policy=config.routing,
        max_queue_per_vm=config.max_queue_per_vm_factor * config.instances_per_vm,
    )
    replicas: Dict[str, int] = {}
    for index in range(total):
        function = config.functions[index % len(config.functions)]
        replicas[function] = replicas.get(function, 0) + 1
        handle = fleet.provision(_vm_spec(config, mode, index))
        spec = get_function(function)
        agent = handle.deploy(
            [FunctionDeployment(spec, max_instances=config.instances_per_vm)],
            keep_alive,
            resilience=resilience,
        )
        router.register(agent)
        agent.start_recycler(until_ns=horizon_ns)

    generator = AzureTraceGenerator(config.seed)
    for position, function in enumerate(config.functions):
        spec = get_function(function)
        cohort_vcpus = replicas[function] * config.vm_vcpus
        exec_s = spec.exec_cpu_ns / SEC
        burst_rps = config.burst_cpu_rho * cohort_vcpus / exec_s
        burst_start = position * config.stagger_s
        trace = generator.bursty(
            function,
            duration_s=float(config.duration_s),
            burst_rps=burst_rps,
            base_rps=config.base_rps_per_replica * replicas[function],
            bursts=((burst_start, burst_start + config.burst_len_s),),
            stream=f"density/{mode.name}/{vms_per_host}",
        )
        router.drive(trace)

    labels = {"mode": mode.name, "vms_per_host": vms_per_host}
    monitor = SloMonitor(
        sim,
        router,
        specs=fleet_slo_specs(
            latency_objective_ns=int(config.slo_p99_ms * 1e6),
            window_ns=config.slo_window_s * SEC,
        ),
        period_ns=config.sample_period_s * SEC,
        labels=labels,
    )
    monitor.start(until_ns=horizon_ns)
    fleet.attach_slo_monitor(monitor)
    fleet.start_pressure_monitor(
        period_ns=config.pressure_period_s * SEC, until_ns=horizon_ns
    )
    collector = FleetCollector(
        sim, fleet, period_ns=config.sample_period_s * SEC, labels=labels
    )
    collector.start(until_ns=horizon_ns)
    router.run(until_ns=horizon_ns)
    monitor.finish()
    for handle in fleet.handles:
        handle.vm.check_consistency()

    successes = router.successful_records()
    records = router.records
    arbiter = fleet.arbiter
    committed = max(
        arbiter.committed_bytes(h, node.node_id)
        for h, node, _ in fleet.node_views()
    )
    peak_used = int(
        max(collector.peak_used_bytes(h) for h in range(config.hosts))
    )
    per_vm = {
        handle.name: router.records_on(handle.name) for handle in fleet.handles
    }
    return DensityCell(
        mode=mode,
        vms_per_host=vms_per_host,
        total_vms=total,
        p50_ms=merged_percentile_ms([successes], 50.0) if successes else float("nan"),
        p99_ms=merged_percentile_ms([successes], 99.0) if successes else float("nan"),
        invocations=len(records),
        failures=router.failure_count,
        rejections=router.rejection_count,
        pressure_reclaims=sum(a.pressure_reclaims for a in fleet.agents()),
        peak_used_bytes=peak_used,
        committed_bytes=committed,
        per_vm_records=per_vm,
        sketch_p50_ms=(
            monitor.sketch.quantile(50.0) / 1e6
            if len(monitor.sketch)
            else float("nan")
        ),
        sketch_p99_ms=(
            monitor.sketch.quantile(99.0) / 1e6
            if len(monitor.sketch)
            else float("nan")
        ),
        slo_breaches=monitor.breach_count(),
    )


def _run_mode(config: DensityConfig, mode: DeploymentBackend) -> DensityModeResult:
    admitted, rejection = _probe_admission(config, mode)
    result = DensityModeResult(
        mode=mode, admitted_vms_per_host=admitted, rejection=rejection, best=None
    )
    for vms_per_host in range(admitted, 0, -1):
        cell = _run_cell(config, mode, vms_per_host)
        result.cells.append(cell)
        if cell.meets_slo(config):
            result.best = cell
            break
    return result


def _cell(config: DensityConfig, cell: Cell) -> DensityModeResult:
    # One cell per mode: the whole downward VMs-per-host search.  The
    # search is inherently sequential (each step depends on whether the
    # denser one met the SLO), so the mode is the parallelism grain —
    # and the per-mode work profile stays identical to a serial sweep.
    return _run_mode(config, get_mode(cell["mode"]))


def _grid(config: DensityConfig) -> SweepGrid:
    return SweepGrid("density").axis(
        "mode", tuple(m.name for m in config.mode_objects())
    )


def run(config: DensityConfig = DensityConfig()) -> DensityResult:
    """Sweep VMs-per-host for every configured deployment mode."""
    result = DensityResult(config)
    for cell_result in run_sweep(_grid(config), _cell, config):
        mode_result: DensityModeResult = cell_result.payload
        result.modes[mode_result.mode.name] = mode_result
    return result


register_experiment(
    "density",
    "D1 VMs-per-host at the P99 SLO across deployment modes",
    config=DensityConfig,
    run=run,
)
