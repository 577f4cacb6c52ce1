"""K1: keep-alive horizon × eviction policy × mode — the cold-start vs
density frontier.

The production trade-off HotMem changes (ROADMAP): reclaiming an idle
instance's partition frees host memory for density, but the next request
for that function pays a cold start.  A fixed keep-alive TTL picks one
point on that curve blindly; the :mod:`repro.faas.lifecycle` policies
pick *which* containers to sacrifice when memory pressure forces the
choice (the CLOUD'21 GreedyDual line shows frequency/size-aware eviction
beats plain TTL there).

Each cell runs a small multi-tenant fleet where every VM co-hosts two
deliberately mismatched functions — ``html`` (small, frequent, cheap to
respawn) and ``bert`` (large, rare, expensive to respawn) — on
diurnal- and bursty-shaped Azure traces, under *bounded* fleet pressure
shedding (:attr:`~repro.cluster.admission.ArbitrationPolicy
.pressure_shed` = ``"bounded"``): when a node crosses the watermark,
each resident agent's eviction policy ranks its idle containers and
only the prefix covering the overage dies.  That is exactly where
policies diverge — ``ttl`` kills in pool order, ``greedy-dual`` spares
the hot cheap containers and sacrifices the cold expensive ones.

Per cell the sweep reports the cold-start rate and an estimated
supportable VMs-per-host (installed node memory over the cell's peak
per-VM footprint); per mode those points form the cold-start-rate vs
VMs-per-host frontier the ROADMAP asks for — longer horizons and
warmth-preserving policies sit at low cold-start / low density,
aggressive reclamation at high density / high cold-start, and HotMem's
cheap reclamation shifts the whole frontier right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cluster.admission import ArbitrationPolicy
from repro.cluster.provision import Fleet, VmSpec
from repro.cluster.routing import TraceRouter
from repro.faas.agent import FunctionDeployment
from repro.faas.policy import KeepAlivePolicy
from repro.faults.policy import ResiliencePolicy, RetryPolicy
from repro.metrics.collector import FleetCollector
from repro.metrics.report import render_table
from repro.obs.slo import SloMonitor, fleet_slo_specs
from repro.modes import DeploymentBackend, resolve_modes
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.engine import Simulator
from repro.sweep import Cell, SweepGrid, register_experiment, run_sweep
from repro.units import GIB, MEMORY_BLOCK_SIZE, MIB, SEC, bytes_to_blocks
from repro.workloads.azure import AzureTraceGenerator
from repro.workloads.functions import get_function

__all__ = ["KeepAliveConfig", "KeepAliveCell", "KeepAliveResult", "run"]


@dataclass(frozen=True)
class KeepAliveConfig:
    """Fleet geometry, workload shapes and the swept axes."""

    hosts: int = 2
    nodes_per_host: int = 1
    memory_per_node: int = 8 * GIB
    cores_per_node: int = 16
    #: Co-hosted on every VM: a hot cheap function and a cold expensive
    #: one, so eviction policies have a real choice to make.
    hot_function: str = "html"
    cold_function: str = "bert"
    instances_per_function: int = 2
    vm_vcpus: int = 2
    vms_per_host: int = 2
    boot_memory_bytes: int = 256 * MIB
    duration_s: int = 32
    drain_s: int = 12
    recycle_interval_s: int = 2
    #: Keep-alive horizons swept (seconds idle before evictable).
    horizons_s: Tuple[int, ...] = (4, 16)
    #: Lifecycle policies swept (:mod:`repro.faas.lifecycle` names).
    policies: Tuple[str, ...] = (
        "ttl",
        "rand",
        "least-used",
        "max-mem",
        "greedy-dual",
    )
    #: Trace shapes swept (``diurnal`` / ``bursty``).
    traces: Tuple[str, ...] = ("diurnal", "bursty")
    #: Diurnal day/night period.
    diurnal_period_s: float = 16.0
    #: Fleet-wide request rates for the hot function.
    hot_peak_rps: float = 12.0
    hot_trough_rps: float = 1.0
    #: Fleet-wide request rates for the cold function.
    cold_peak_rps: float = 1.5
    cold_trough_rps: float = 0.1
    #: Bursty-shape windows (start_s, end_s), staggered per function.
    hot_burst: Tuple[float, float] = (4.0, 10.0)
    cold_burst: Tuple[float, float] = (16.0, 22.0)
    routing: str = "least-loaded"
    placement: str = "numa-spread"
    max_queue_per_vm_factor: int = 16
    #: Bounded pressure shedding is the point of the study: over the
    #: watermark each agent evicts only the policy-ranked prefix
    #: covering the node's overage, so the ranking is observable.
    arbitration: ArbitrationPolicy = ArbitrationPolicy(
        limit_fraction=0.95, pressure_watermark=0.5, pressure_shed="bounded"
    )
    pressure_period_s: int = 2
    sample_period_s: int = 2
    #: Latency objective for the SLO burn-rate monitor (observation
    #: only — K1's acceptance axes stay cold-start rate and density).
    slo_p99_ms: float = 1500.0
    slo_window_s: int = 8
    seed: int = 0
    costs: CostModel = DEFAULT_COSTS
    #: Registry names of the deployment modes swept, in report order.
    modes: Tuple[str, ...] = ("overprovisioned", "vanilla", "hotmem")

    def mode_objects(self) -> Tuple[DeploymentBackend, ...]:
        """The swept modes resolved through the registry."""
        return resolve_modes(self.modes)

    @classmethod
    def paper_scale(cls) -> "KeepAliveConfig":
        """A bigger fleet, longer traces, a third horizon."""
        return cls(
            hosts=3,
            vms_per_host=3,
            duration_s=96,
            drain_s=24,
            horizons_s=(4, 16, 64),
            diurnal_period_s=32.0,
            hot_peak_rps=24.0,
            cold_peak_rps=3.0,
        )


@dataclass
class KeepAliveCell:
    """One (mode, policy, horizon, trace) fleet run."""

    mode: str
    policy: str
    horizon_s: int
    trace: str
    invocations: int
    cold_starts: int
    failures: int
    #: Total evictions, and the subset chosen under fleet pressure.
    evictions: int
    pressure_evictions: int
    #: Cold-function evictions (the expensive mistakes a good policy
    #: avoids making under pressure).
    cold_function_evictions: int
    #: Peak *real* host memory across hosts (bytes).
    peak_used_bytes: int
    #: Closed SLO burn-rate windows that breached (latency + cold-start).
    slo_breaches: int = 0
    #: Streaming-sketch P99 over successful latencies (ms).
    sketch_p99_ms: float = float("nan")

    @property
    def cold_start_rate(self) -> float:
        """Cold starts per completed invocation."""
        return self.cold_starts / self.invocations if self.invocations else 0.0

    def vms_per_host_estimate(self, config: KeepAliveConfig) -> int:
        """Supportable VMs per host at this cell's peak footprint.

        Installed node memory over the observed peak per-VM footprint —
        the density side of the frontier (the run itself holds
        ``vms_per_host`` fixed; this extrapolates what the measured
        footprint would pack to).
        """
        if self.peak_used_bytes <= 0:
            return 0
        per_vm = self.peak_used_bytes / config.vms_per_host
        return int(config.memory_per_node // max(1.0, per_vm))


@dataclass
class KeepAliveResult:
    """Cold-start-rate vs VMs-per-host frontier, per deployment mode."""

    config: KeepAliveConfig
    cells: List[KeepAliveCell] = field(default_factory=list)

    def cells_for(self, mode: str) -> List[KeepAliveCell]:
        return [cell for cell in self.cells if cell.mode == mode]

    def cell(
        self, mode: str, policy: str, horizon_s: int, trace: str
    ) -> KeepAliveCell:
        for cell in self.cells:
            if (
                cell.mode == mode
                and cell.policy == policy
                and cell.horizon_s == horizon_s
                and cell.trace == trace
            ):
                return cell
        raise KeyError(f"no cell {mode}/{policy}/{horizon_s}/{trace}")

    def frontier(self, mode: str) -> List[Tuple[int, float, str, int, str]]:
        """Frontier points for one mode, densest first.

        Each point is ``(vms_per_host, cold_start_rate, policy,
        horizon_s, trace)``; the Pareto-efficient subset of these is the
        cold-start-vs-density frontier.
        """
        points = [
            (
                cell.vms_per_host_estimate(self.config),
                cell.cold_start_rate,
                cell.policy,
                cell.horizon_s,
                cell.trace,
            )
            for cell in self.cells_for(mode)
        ]
        return sorted(points, key=lambda p: (-p[0], p[1]))

    def pareto(self, mode: str) -> List[Tuple[int, float, str, int, str]]:
        """The Pareto-efficient frontier points (denser and colder
        dominate: a point survives if no other packs at least as many
        VMs with a strictly lower cold-start rate)."""
        best: List[Tuple[int, float, str, int, str]] = []
        lowest = math.inf
        for point in self.frontier(mode):
            if point[1] < lowest:
                best.append(point)
                lowest = point[1]
        return best

    def divergent_traces(
        self, policy_a: str = "greedy-dual", policy_b: str = "ttl"
    ) -> List[str]:
        """Trace shapes where the two policies measurably differ.

        A trace diverges when, for some (mode, horizon), the policies
        disagree on cold-start count or on which functions' containers
        died — the acceptance check that greedy-dual's ranking actually
        changes outcomes relative to plain TTL.
        """
        divergent = []
        for trace in self.config.traces:
            for mode in self.config.modes:
                for horizon in self.config.horizons_s:
                    a = self.cell(mode, policy_a, horizon, trace)
                    b = self.cell(mode, policy_b, horizon, trace)
                    if (
                        a.cold_starts != b.cold_starts
                        or a.cold_function_evictions
                        != b.cold_function_evictions
                    ):
                        divergent.append(trace)
                        break
                if trace in divergent:
                    break
        return divergent

    def rows(self) -> List[List[object]]:
        out: List[List[object]] = []
        for cell in self.cells:
            out.append(
                [
                    cell.mode,
                    cell.trace,
                    cell.policy,
                    cell.horizon_s,
                    cell.invocations,
                    f"{cell.cold_start_rate:.1%}",
                    cell.evictions,
                    cell.pressure_evictions,
                    cell.cold_function_evictions,
                    round(cell.peak_used_bytes / GIB, 2),
                    cell.vms_per_host_estimate(self.config),
                    cell.slo_breaches,
                ]
            )
        return out

    def render(self) -> str:
        config = self.config
        table = render_table(
            f"K1: keep-alive × eviction policy × mode "
            f"({config.hosts} hosts × {config.memory_per_node // GIB} GiB, "
            f"{config.hot_function}+{config.cold_function} per VM)",
            [
                "mode",
                "trace",
                "policy",
                "keepalive_s",
                "invocations",
                "cold_rate",
                "evicted",
                "pressure",
                f"{config.cold_function}_evicted",
                "peak_gib",
                "est_vms/host",
                "breach",
            ],
            self.rows(),
        )
        parts = [table]
        for mode in config.modes:
            points = ", ".join(
                f"({vms} vms/host, {rate:.1%} cold via "
                f"{policy}/{horizon}s/{trace})"
                for vms, rate, policy, horizon, trace in self.pareto(mode)
            )
            parts.append(f"{mode} frontier: {points or '(no cells)'}")
        divergent = self.divergent_traces()
        parts.append(
            "greedy-dual vs ttl diverges on: "
            + (", ".join(divergent) if divergent else "NO TRACE (degenerate)")
        )
        return "\n\n".join(parts)


def _vm_spec(
    config: KeepAliveConfig, mode: DeploymentBackend, index: int
) -> VmSpec:
    hot = get_function(config.hot_function)
    cold = get_function(config.cold_function)
    partition = (
        max(
            bytes_to_blocks(hot.memory_limit_bytes),
            bytes_to_blocks(cold.memory_limit_bytes),
        )
        * MEMORY_BLOCK_SIZE
    )
    shared = (
        bytes_to_blocks(hot.shared_deps_bytes + cold.shared_deps_bytes)
        * MEMORY_BLOCK_SIZE
    )
    return VmSpec(
        name=f"{mode.name}-vm{index}",
        mode=mode,
        partition_bytes=partition,
        concurrency=2 * config.instances_per_function,
        shared_bytes=shared,
        vcpus=config.vm_vcpus,
        boot_memory_bytes=config.boot_memory_bytes,
        placement="scatter",
        seed=config.seed + index,
        costs=config.costs,
    )


def _traces(config: KeepAliveConfig, shape: str, stream: str):
    """The two functions' invocation traces for one cell."""
    generator = AzureTraceGenerator(config.seed)
    if shape == "diurnal":
        hot = generator.diurnal(
            config.hot_function,
            duration_s=float(config.duration_s),
            period_s=config.diurnal_period_s,
            peak_rps=config.hot_peak_rps,
            trough_rps=config.hot_trough_rps,
            stream=stream,
        )
        cold = generator.diurnal(
            config.cold_function,
            duration_s=float(config.duration_s),
            period_s=config.diurnal_period_s,
            peak_rps=config.cold_peak_rps,
            trough_rps=config.cold_trough_rps,
            stream=stream,
        )
    else:
        hot = generator.bursty(
            config.hot_function,
            duration_s=float(config.duration_s),
            burst_rps=config.hot_peak_rps,
            base_rps=config.hot_trough_rps,
            bursts=(config.hot_burst,),
            stream=stream,
        )
        cold = generator.bursty(
            config.cold_function,
            duration_s=float(config.duration_s),
            burst_rps=config.cold_peak_rps,
            base_rps=config.cold_trough_rps,
            bursts=(config.cold_burst,),
            stream=stream,
        )
    return hot, cold


def _run_cell(
    config: KeepAliveConfig,
    mode: DeploymentBackend,
    policy: str,
    horizon_s: int,
    trace_shape: str,
) -> KeepAliveCell:
    sim = Simulator()
    fleet = Fleet(
        sim,
        hosts=config.hosts,
        nodes_per_host=config.nodes_per_host,
        cores_per_node=config.cores_per_node,
        memory_per_node=config.memory_per_node,
        placement=config.placement,
        arbitration=config.arbitration,
    )
    total = config.vms_per_host * config.hosts
    horizon_ns = (config.duration_s + config.drain_s) * SEC
    keep_alive = KeepAlivePolicy(
        keep_alive_ns=horizon_s * SEC,
        recycle_interval_ns=config.recycle_interval_s * SEC,
        eviction=policy,
    )
    resilience = ResiliencePolicy(
        retry=RetryPolicy(max_retries=1),
        plug_retries=4,
        deferred_attempts=2,
    )
    slots = 2 * config.instances_per_function
    router = TraceRouter(
        sim,
        policy=config.routing,
        max_queue_per_vm=config.max_queue_per_vm_factor * slots,
    )
    deployments = [
        FunctionDeployment(
            get_function(config.hot_function),
            max_instances=config.instances_per_function,
        ),
        FunctionDeployment(
            get_function(config.cold_function),
            max_instances=config.instances_per_function,
        ),
    ]
    for index in range(total):
        handle = fleet.provision(_vm_spec(config, mode, index))
        agent = handle.deploy(deployments, keep_alive, resilience=resilience)
        router.register(agent)
        agent.start_recycler(until_ns=horizon_ns)

    stream = f"keepalive/{mode.name}/{policy}/{horizon_s}/{trace_shape}"
    for trace in _traces(config, trace_shape, stream):
        router.drive(trace)

    labels = {
        "mode": mode.name,
        "policy": policy,
        "horizon_s": horizon_s,
        "trace": trace_shape,
    }
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

    records = router.records
    evictions = [
        record
        for agent in fleet.agents()
        for record in agent.eviction_records
    ]
    peak_used = int(
        max(collector.peak_used_bytes(h) for h in range(config.hosts))
    )
    return KeepAliveCell(
        mode=mode.name,
        policy=policy,
        horizon_s=horizon_s,
        trace=trace_shape,
        invocations=len(records),
        cold_starts=sum(1 for r in records if r.cold_start),
        failures=router.failure_count,
        evictions=len(evictions),
        pressure_evictions=sum(1 for e in evictions if e.pressure),
        cold_function_evictions=sum(
            1 for e in evictions if e.function == config.cold_function
        ),
        peak_used_bytes=peak_used,
        slo_breaches=monitor.breach_count(),
        sketch_p99_ms=(
            monitor.sketch.quantile(99.0) / 1e6
            if len(monitor.sketch)
            else float("nan")
        ),
    )


def _cell(config: KeepAliveConfig, cell: Cell) -> KeepAliveCell:
    from repro.modes import get_mode

    return _run_cell(
        config,
        get_mode(cell["mode"]),
        cell["policy"],
        cell["horizon_s"],
        cell["trace"],
    )


def _grid(config: KeepAliveConfig) -> SweepGrid:
    return (
        SweepGrid("keepalive")
        .axis("mode", tuple(m.name for m in config.mode_objects()))
        .axis("policy", config.policies)
        .axis("horizon_s", config.horizons_s)
        .axis("trace", config.traces)
    )


def run(config: KeepAliveConfig = KeepAliveConfig()) -> KeepAliveResult:
    """Sweep keep-alive horizon × eviction policy × mode × trace shape."""
    result = KeepAliveResult(config)
    for cell_result in run_sweep(_grid(config), _cell, config):
        result.cells.append(cell_result.payload)
    return result


register_experiment(
    "keepalive",
    "K1 cold-start-rate vs VMs-per-host frontier across eviction policies",
    config=KeepAliveConfig,
    run=run,
)
