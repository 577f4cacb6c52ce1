"""Cluster chaos: fleet availability under host/VM failure domains.

The datapath ``chaos`` sweep breaks operations *inside* one VM; this
sweep breaks the fleet around them.  A
:class:`~repro.faults.domains.DomainScheduler` fires host crashes,
host-level pressure spikes, VM OOM-kills, wedged recycler agents and
router link outages through the same seeded fault plane, and the
:class:`~repro.cluster.failover.FailoverCoordinator` answers with the
recovery machinery under test: in-flight invocations fail over to
sibling VMs under a bounded retry budget, crash victims are evacuated
through placement/admission onto the survivors (paying a cold-start
penalty per re-provisioned VM), the density arbiter's committed-memory
ledger is reconciled to zero drift, wedged recyclers are force-recycled
by the heartbeat watchdog, and link outages heal after a fixed window.

For each ``(mode, rate)`` cell the report answers the fleet-operator
questions: what fraction of invocations still completed
(**availability**), how long recovery took per failure site (**MTTR**,
from the fleet :class:`~repro.faults.recovery.RecoveryLog`), and how
many VMs the fleet retained (**density under failure** — a crashed
host's victims only come back if the survivors' committed-memory
headroom re-admits them, so hotmem's reclamation credit keeps more of
the fleet alive than vanilla's).

Three gates make the sweep CI-worthy: every injected fault is resolved
by some recovery path (``total_unresolved() == 0``), the arbiter ledger
shows zero drift after every storm (``total_ledger_drift() == 0``), and
two runs at the same seed are bit-identical (per-site RNG streams and
sorted-victim selection everywhere).  Rate 0.0 is the control row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.admission import ArbitrationPolicy
from repro.cluster.failover import (
    BreakerPolicy,
    FailoverCoordinator,
    FailoverPolicy,
)
from repro.cluster.provision import Fleet, VmSpec
from repro.cluster.routing import TraceRouter
from repro.faas.agent import FunctionDeployment
from repro.faas.policy import KeepAlivePolicy
from repro.faults.domains import domain_plan
from repro.faults.injector import FaultInjector
from repro.faults.policy import ResiliencePolicy, RetryBudget, RetryPolicy
from repro.metrics.latency import merged_percentile_ms
from repro.metrics.report import render_table
from repro.modes import DeploymentBackend, get_mode, resolve_modes
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.engine import Simulator
from repro.sweep import Cell, SweepGrid, register_experiment, run_sweep
from repro.units import GIB, MIB, MS, SEC
from repro.workloads.azure import AzureTraceGenerator
from repro.workloads.functions import get_function

__all__ = [
    "ClusterChaosConfig",
    "ClusterChaosCell",
    "ClusterChaosResult",
    "run",
]


@dataclass(frozen=True)
class ClusterChaosConfig:
    """Fleet geometry, workload and fault grid for the cluster sweep."""

    hosts: int = 3
    nodes_per_host: int = 1
    memory_per_node: int = 8 * GIB
    cores_per_node: int = 16
    #: Initial VMs per host.  The default 4 sits below every swept
    #: mode's admission cap (vanilla admits 5/host, hotmem 6/host at
    #: this geometry) so provisioning always succeeds — and leaves the
    #: survivors exactly enough hotmem headroom to re-admit all of a
    #: crashed host's victims while vanilla must reject some.
    vms_per_host: int = 4
    functions: Tuple[str, ...] = ("html", "bfs")
    instances_per_vm: int = 4
    vm_vcpus: int = 2
    boot_memory_bytes: int = 256 * MIB
    duration_s: int = 30
    drain_s: int = 15
    keep_alive_s: int = 10
    recycle_interval_s: int = 2
    #: Staggered per-function burst windows (same shape as density).
    stagger_s: float = 16.0
    burst_len_s: float = 6.0
    base_rps_per_replica: float = 1.0
    burst_cpu_rho: float = 0.6
    #: Per-tick fire probability for each domain site; 0.0 is the
    #: control row (per-site ``max_fires`` caps from
    #: :data:`~repro.faults.domains.DEFAULT_DOMAIN_CAPS` apply).
    fault_rates: Tuple[float, ...] = (0.0, 0.05, 0.2)
    #: Injection-opportunity cadence for the domain scheduler.
    tick_s: int = 2
    #: Router retry budget: failover hops per invocation and the
    #: queue-wait deadline after which an invocation is shed.
    max_failovers: int = 2
    deadline_ms: float = 1000.0
    breakers: BreakerPolicy = BreakerPolicy()
    failover: FailoverPolicy = FailoverPolicy()
    routing: str = "least-loaded"
    placement: str = "numa-spread"
    max_queue_per_vm_factor: int = 16
    arbitration: ArbitrationPolicy = ArbitrationPolicy(limit_fraction=0.95)
    pressure_period_s: int = 2
    seed: int = 0
    costs: CostModel = DEFAULT_COSTS
    #: Registry names of the deployment modes to sweep, in report order.
    modes: Tuple[str, ...] = ("vanilla", "hotmem")

    def mode_objects(self) -> Tuple[DeploymentBackend, ...]:
        """The swept modes resolved through the registry."""
        return resolve_modes(self.modes)

    def budget(self) -> RetryBudget:
        """The router's per-invocation retry budget."""
        return RetryBudget(
            max_failovers=self.max_failovers,
            deadline_ns=int(self.deadline_ms * MS),
        )

    @classmethod
    def paper_scale(cls) -> "ClusterChaosConfig":
        """A finer fault grid over a longer trace."""
        return cls(
            fault_rates=(0.0, 0.02, 0.05, 0.1, 0.2),
            duration_s=60,
            drain_s=30,
        )


@dataclass
class ClusterChaosCell:
    """One (mode, rate) fleet run through the storm."""

    mode: str
    rate: float
    invocations: int
    #: Completed-OK fraction of all arrivals (rejections and deadline
    #: sheds count against availability).
    availability: float
    p99_ms: float
    #: Mean time-to-recovery across every fleet-level recovery event.
    mttr_ms: float
    #: Alive VMs at the end of the run / VMs provisioned.
    retained_frac: float
    #: Alive VMs per *surviving* host at the end of the run.
    vms_per_live_host: float
    evacuated: int
    evacuation_rejected: int
    injected: int
    unresolved: int
    ledger_drift_bytes: int
    #: Per-site rollup from the fleet recovery log (site → counts+MTTR).
    recovery_summary: Dict[str, Dict[str, object]] = field(
        default_factory=dict
    )


@dataclass
class ClusterChaosResult:
    """The full sweep, row per (mode, rate)."""

    config: ClusterChaosConfig
    cells: List[ClusterChaosCell] = field(default_factory=list)

    def cell(self, mode: str, rate: float) -> ClusterChaosCell:
        """The cell for one (mode, rate) pair."""
        for c in self.cells:
            if c.mode == mode and c.rate == rate:
                return c
        raise KeyError(f"no cell for ({mode}, {rate})")

    def total_unresolved(self) -> int:
        """Domain faults no recovery path claimed, across the sweep."""
        return sum(c.unresolved for c in self.cells)

    def total_ledger_drift(self) -> int:
        """Absolute arbiter-ledger drift left behind, across the sweep."""
        return sum(abs(c.ledger_drift_bytes) for c in self.cells)

    def density_edge_holds(self) -> bool:
        """hotmem retains at least vanilla's share of the fleet at every
        nonzero fault rate (the admission-credit payoff under failure)."""
        names = {c.mode for c in self.cells}
        if not {"hotmem", "vanilla"} <= names:
            return True
        for rate in self.config.fault_rates:
            if rate <= 0.0:
                continue
            hot = self.cell("hotmem", rate).retained_frac
            van = self.cell("vanilla", rate).retained_frac
            if hot < van:
                return False
        return True

    def rows(self) -> List[List[object]]:
        out: List[List[object]] = []
        for c in self.cells:
            out.append(
                [
                    c.mode,
                    c.rate,
                    c.invocations,
                    f"{c.availability:.1%}",
                    round(c.p99_ms, 1),
                    round(c.mttr_ms, 1),
                    f"{c.retained_frac:.0%}",
                    round(c.vms_per_live_host, 2),
                    c.evacuated,
                    c.evacuation_rejected,
                    c.injected,
                    c.unresolved,
                    c.ledger_drift_bytes,
                ]
            )
        return out

    def recovery_rows(self) -> List[List[object]]:
        """Per-site recovery rollup rows across the faulted cells."""
        out: List[List[object]] = []
        for c in self.cells:
            for site, stats in c.recovery_summary.items():
                out.append(
                    [
                        c.mode,
                        c.rate,
                        site,
                        stats["events"],
                        stats["recovered"],
                        stats["failed_over"],
                        stats["degraded"],
                        round(float(stats["mttr_ms"]), 1),  # type: ignore[arg-type]
                    ]
                )
        return out

    def render(self) -> str:
        config = self.config
        parts = [
            render_table(
                f"Cluster chaos: availability, MTTR and density under "
                f"failure domains ({config.hosts} hosts x "
                f"{config.memory_per_node // GIB} GiB, "
                f"{config.vms_per_host} VMs/host)",
                [
                    "mode",
                    "rate",
                    "invocations",
                    "avail",
                    "p99 ms",
                    "mttr ms",
                    "retained",
                    "vms/host",
                    "evac",
                    "evac_rej",
                    "injected",
                    "unresolved",
                    "drift",
                ],
                self.rows(),
            )
        ]
        recovery = self.recovery_rows()
        if recovery:
            parts.append(
                render_table(
                    "Recovery paths by failure site (fleet log)",
                    [
                        "mode",
                        "rate",
                        "site",
                        "events",
                        "recovered",
                        "failed_over",
                        "degraded",
                        "mttr ms",
                    ],
                    recovery,
                )
            )
        edge = "holds" if self.density_edge_holds() else "VIOLATED"
        parts.append(
            f"unresolved faults: {self.total_unresolved()}  "
            f"ledger drift: {self.total_ledger_drift()} bytes  "
            f"density edge under failure (hotmem >= vanilla): {edge}"
        )
        return "\n\n".join(parts)


def _vm_spec(
    config: ClusterChaosConfig, mode: DeploymentBackend, index: int
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


def _run_cell(
    config: ClusterChaosConfig, mode: DeploymentBackend, rate: float
) -> ClusterChaosCell:
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
        max_queue_per_vm=(
            config.max_queue_per_vm_factor * config.instances_per_vm
        ),
        budget=config.budget(),
        breakers=config.breakers,
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
            stream=f"cluster-chaos/{mode.name}/{rate}",
        )
        router.drive(trace)

    fleet.start_pressure_monitor(
        period_ns=config.pressure_period_s * SEC, until_ns=horizon_ns
    )
    injector = FaultInjector(domain_plan(rate), seed=config.seed, sim=sim)
    coordinator = FailoverCoordinator(
        fleet, router, injector, policy=config.failover
    )
    coordinator.start(
        tick_ns=config.tick_s * SEC,
        until_ns=config.duration_s * SEC,
        seed=config.seed,
    )
    router.run(until_ns=horizon_ns)
    # Drain: every remaining process (evacuation cold starts, link-heal
    # and spike windows) is finitely bounded, so an unbounded run
    # terminates — and leaves no recovery half-done at measurement time.
    sim.run()
    coordinator.finalize()
    for handle in fleet.handles:
        if handle.vm._alive:
            handle.vm.check_consistency()

    records = router.records
    successes = router.successful_records()
    alive = sum(1 for h in fleet.handles if h.vm._alive)
    live_hosts = config.hosts - len(fleet.down_hosts)
    evacuated = sum(len(e.evacuated) for e in coordinator.evacuations)
    rejected = sum(len(e.rejected) for e in coordinator.evacuations)
    recovery = coordinator.recovery
    return ClusterChaosCell(
        mode=mode.name,
        rate=rate,
        invocations=len(records),
        availability=len(successes) / len(records) if records else 1.0,
        p99_ms=(
            merged_percentile_ms([successes], 99.0) if successes else 0.0
        ),
        mttr_ms=recovery.mttr_ms(),
        retained_frac=alive / total if total else 0.0,
        vms_per_live_host=alive / live_hosts if live_hosts else 0.0,
        evacuated=evacuated,
        evacuation_rejected=rejected,
        injected=injector.count(),
        unresolved=len(injector.unresolved()),
        ledger_drift_bytes=fleet.ledger_drift_bytes(),
        recovery_summary=recovery.summary(),
    )


def _cell(config: ClusterChaosConfig, cell: Cell) -> ClusterChaosCell:
    return _run_cell(config, get_mode(cell["mode"]), cell["rate"])


def _grid(config: ClusterChaosConfig) -> SweepGrid:
    return (
        SweepGrid("cluster-chaos")
        .axis("mode", tuple(m.name for m in config.mode_objects()))
        .axis("rate", config.fault_rates)
    )


def run(config: ClusterChaosConfig = ClusterChaosConfig()) -> ClusterChaosResult:
    """Sweep domain-fault rates for every configured deployment mode."""
    result = ClusterChaosResult(config)
    for cell_result in run_sweep(_grid(config), _cell, config):
        result.cells.append(cell_result.payload)
    return result


register_experiment(
    "cluster-chaos",
    "R2 fleet failure domains: availability, MTTR and density "
    "under host/VM crash injection",
    config=ClusterChaosConfig,
    run=run,
)
