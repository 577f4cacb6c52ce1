"""Shared harness for the trace-driven serverless experiments (Figs 8-10).

Builds a VM + Agent + runtime for any registered deployment mode (the
three configurations of Section 5.5 or a related-work baseline from
:mod:`repro.modes`), replays Azure-shaped traces against it, and returns
every artifact the figures need (records, tracer events, shrink events,
CPU accounting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.cluster.provision import Fleet, VmSpec
from repro.faas.agent import FunctionDeployment, ShrinkEvent
from repro.faas.policy import KeepAlivePolicy
from repro.faas.records import InvocationRecord
from repro.faas.runtime import FaasRuntime
from repro.faults.injector import FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.faults.recovery import RecoveryEvent
from repro.modes import DeploymentBackend, get_mode
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.engine import Simulator
from repro.units import MEMORY_BLOCK_SIZE, SEC, bytes_to_blocks
from repro.vmm.tracing import ResizeEvent
from repro.workloads.azure import AzureTraceGenerator
from repro.workloads.functions import FunctionSpec, get_function
from repro.workloads.traces import InvocationTrace

__all__ = [
    "FunctionLoad",
    "ServerlessScenario",
    "ServerlessRun",
    "run_scenario",
]


@dataclass(frozen=True)
class FunctionLoad:
    """One function's deployment plus the trace that drives it."""

    spec: FunctionSpec
    max_instances: int
    burst_rps: float
    base_rps: float
    bursts: Tuple[Tuple[float, float], ...] = ((0.0, 10.0),)
    vcpu_indices: Optional[Tuple[int, ...]] = None
    #: Idle-pool order override; ``None`` defers to the eviction policy.
    reuse: Optional[str] = None

    @classmethod
    def for_function(
        cls,
        name: str,
        vm_vcpus: int = 10,
        base_rps: float = 2.0,
        bursts: Tuple[Tuple[float, float], ...] = ((0.0, 10.0),),
        burst_rps: Optional[float] = None,
        max_instances: Optional[int] = None,
        vcpu_indices: Optional[Tuple[int, ...]] = None,
        reuse: Optional[str] = None,
    ) -> "FunctionLoad":
        """Table 1 defaults: max instances from the vCPU weight, a burst
        sized to spawn most of them over a ~10 s ramp (production bursts
        build over tens of seconds, not instantaneously)."""
        spec = get_function(name)
        instances = (
            max_instances
            if max_instances is not None
            else spec.max_instances_for(vm_vcpus)
        )
        return cls(
            spec=spec,
            max_instances=instances,
            burst_rps=burst_rps if burst_rps is not None else instances * 2.0,
            base_rps=base_rps,
            bursts=bursts,
            vcpu_indices=vcpu_indices,
            reuse=reuse,
        )


@dataclass(frozen=True)
class ServerlessScenario:
    """One VM, one deployment mode, one or more trace-driven functions."""

    mode: Union[str, DeploymentBackend]
    loads: Tuple[FunctionLoad, ...]
    duration_s: int = 150
    keep_alive_s: int = 30
    recycle_interval_s: int = 10
    spare_slots: int = 0
    drain_s: int = 30
    #: Sample the VM's elastic (datapath-held) bytes every N seconds
    #: (0 = off).
    sample_plugged_s: int = 0
    vm_vcpus: int = 10
    virtio_irq_vcpu: int = 0
    seed: int = 0
    costs: CostModel = DEFAULT_COSTS
    placement: str = "scatter"
    #: Fault-injection plan (None = no injector built; byte-identical to
    #: a build without the fault plane).
    faults: Optional[FaultPlan] = None
    #: Recovery policy for driver + agent (None = inert defaults).
    resilience: Optional[ResiliencePolicy] = None

    def __post_init__(self) -> None:
        # Accept registry names ("balloon") as well as backend objects.
        object.__setattr__(self, "mode", get_mode(self.mode))

    @property
    def partition_bytes(self) -> int:
        """Partition size: the largest function limit, block-rounded.

        Functions co-located on one HotMem VM share the partition size
        (the paper co-locates functions with equal limits, Section 6.2.2).
        """
        return (
            max(
                bytes_to_blocks(load.spec.memory_limit_bytes)
                for load in self.loads
            )
            * MEMORY_BLOCK_SIZE
        )

    @property
    def concurrency(self) -> int:
        """Total instance slots across every deployed function."""
        return sum(load.max_instances for load in self.loads)

    @property
    def shared_bytes(self) -> int:
        """Shared partition sized to all functions' dependencies."""
        deps = sum(load.spec.shared_deps_bytes for load in self.loads)
        return bytes_to_blocks(deps) * MEMORY_BLOCK_SIZE

    def vm_spec(self, name: Optional[str] = None) -> VmSpec:
        """The provisioning spec for this scenario's VM."""
        return VmSpec(
            name=name if name is not None else f"vm-{self.mode.name}",
            mode=self.mode,
            partition_bytes=self.partition_bytes,
            concurrency=self.concurrency,
            shared_bytes=self.shared_bytes,
            vcpus=self.vm_vcpus,
            placement=self.placement,
            virtio_irq_vcpu=self.virtio_irq_vcpu,
            seed=self.seed,
            costs=self.costs,
            faults=self.faults,
            retry=(
                self.resilience.retry if self.resilience is not None else None
            ),
        )

    def deployments(self) -> List[FunctionDeployment]:
        """The agent deployments for this scenario's functions."""
        return [
            FunctionDeployment(
                spec=load.spec,
                max_instances=load.max_instances,
                vcpu_indices=load.vcpu_indices,
                reuse=load.reuse,
            )
            for load in self.loads
        ]

    def keep_alive_policy(self) -> KeepAlivePolicy:
        """The agent keep-alive policy for this scenario."""
        return KeepAlivePolicy(
            keep_alive_ns=self.keep_alive_s * SEC,
            recycle_interval_ns=self.recycle_interval_s * SEC,
            spare_slots=self.spare_slots,
        )


@dataclass
class ServerlessRun:
    """Everything one scenario run produced."""

    scenario: ServerlessScenario
    records: List[InvocationRecord]
    shrink_events: List[ShrinkEvent]
    #: ``(t_ns, plugged_bytes)`` samples (empty unless sampling enabled).
    plugged_series: List[Tuple[int, float]]
    resize_events: List[ResizeEvent]
    reclaim_mib_per_s: float
    cold_starts: Dict[str, int]
    oom_failures: int
    virtio_cpu_ns: int
    #: Recovery-path accounting (empty when no faults were injected and
    #: nothing failed naturally).
    recovery_events: List[RecoveryEvent] = field(default_factory=list)
    injected_faults: int = 0
    unresolved_faults: int = 0
    #: Whether the agent fell back to static (no-elastic) mode.
    degraded: bool = False

    def records_for(self, function_name: str) -> List[InvocationRecord]:
        """Successful records for one function."""
        return [r for r in self.records if r.ok and r.function == function_name]

    def plug_latencies_ms(self) -> List[float]:
        """Latency of every plug request (ms)."""
        return [e.latency_ns / 1e6 for e in self.resize_events if e.kind == "plug"]

    def unplug_latencies_ms(self) -> List[float]:
        """Latency of every unplug request (ms)."""
        return [e.latency_ns / 1e6 for e in self.resize_events if e.kind == "unplug"]


def run_scenario(scenario: ServerlessScenario) -> ServerlessRun:
    """Replay the scenario's traces and collect every output artifact."""
    sim = Simulator()
    fleet = Fleet(sim)
    handle = fleet.provision(scenario.vm_spec())
    vm = handle.vm
    agent = handle.deploy(
        scenario.deployments(),
        scenario.keep_alive_policy(),
        resilience=scenario.resilience,
    )
    runtime = FaasRuntime(sim)
    runtime.register_agent(agent)
    generator = AzureTraceGenerator(scenario.seed)
    for load in scenario.loads:
        trace: InvocationTrace = generator.bursty(
            load.spec.name,
            duration_s=float(scenario.duration_s),
            burst_rps=load.burst_rps,
            base_rps=load.base_rps,
            bursts=load.bursts,
        )
        runtime.drive(agent, trace)
    horizon_ns = (scenario.duration_s + scenario.drain_s) * SEC
    agent.start_recycler(until_ns=horizon_ns)
    sampler = None
    if scenario.sample_plugged_s > 0:
        from repro.metrics.collector import PeriodicSampler

        sampler = PeriodicSampler(
            sim,
            lambda: vm.elastic_bytes,
            period_ns=scenario.sample_plugged_s * SEC,
            name="plugged-bytes",
        )
        sampler.start(until_ns=horizon_ns)
    runtime.run(until_ns=horizon_ns)
    vm.check_consistency()
    return ServerlessRun(
        scenario=scenario,
        records=list(runtime.records),
        shrink_events=list(agent.shrink_events),
        plugged_series=list(sampler.series.samples) if sampler else [],
        resize_events=list(vm.tracer.events),
        reclaim_mib_per_s=vm.tracer.reclaim_throughput_mib_per_sec(),
        cold_starts={
            load.spec.name: agent.cold_start_count(load.spec.name)
            for load in scenario.loads
        },
        oom_failures=runtime.failure_count,
        virtio_cpu_ns=scenario.mode.datapath_cpu_ns(vm),
        recovery_events=list(vm.recovery_log.events),
        injected_faults=vm.faults.count(),
        unresolved_faults=len(vm.faults.unresolved()),
        degraded=agent.degraded,
    )
