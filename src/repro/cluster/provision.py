"""Fleet provisioning: the one place VMs are built.

Before the cluster layer existed, every experiment (and the test
fixtures) hand-assembled the same stack — ``Simulator`` + ``HostMachine``
+ ``VmConfig`` + ``HotMemBootParams`` + ``VirtualMachine`` + ``Agent`` —
with small copy-paste drift between the four copies.  The
:class:`Fleet` owns that wiring now:

1. a :class:`VmSpec` describes *what* VM is wanted (mode, geometry,
   seed, faults) without saying anything about *where* it lands;
2. the fleet's :class:`~repro.cluster.admission.DensityArbiter` decides
   whether the VM may be admitted at all, given the committed bytes of
   everything already resident;
3. the fleet's placement policy picks the (host, node) pair;
4. :meth:`Fleet.provision` builds the VM there, registers it for
   host-conservation checking, and hands back a :class:`VmHandle` that
   can later deploy an agent and shut the VM down (returning its
   committed bytes to the arbiter).

Admission failures are values (:class:`AdmissionResult` via
:meth:`Fleet.try_provision`) or a structured
:class:`~repro.errors.AdmissionRejected`, never a crash deep inside a
simulated process.  Provisioning performs no simulated work and draws no
randomness beyond the VM's own seeded streams, so refactoring an
experiment onto the fleet leaves its event trace byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.cluster.admission import (
    DEFAULT_ARBITRATION,
    AdmissionResult,
    ArbitrationPolicy,
    DensityArbiter,
)
from repro.cluster.failover import EvacuationResult
from repro.cluster.placement import PlacementPolicy, get_placement_policy
from repro.core.config import HotMemBootParams
from repro.errors import AdmissionRejected, ClusterError, ConfigError
from repro.faas.agent import Agent, FunctionDeployment
from repro.faas.policy import KeepAlivePolicy
from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults.policy import ResiliencePolicy, RetryPolicy
from repro.host.machine import HostAccount, HostMachine, NumaNode
from repro.modes import VANILLA, DeploymentBackend, get_mode
from repro.obs.session import context_for
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.engine import Process, Simulator, Timeout
from repro.vmm.config import VmConfig, default_boot_memory_bytes
from repro.vmm.vm import VirtualMachine

__all__ = ["VmSpec", "VmHandle", "Fleet", "provision_vm"]


@dataclass(frozen=True)
class VmSpec:
    """Everything needed to build one VM, minus its location.

    Either give an explicit ``region_bytes`` (vanilla/overprovisioned
    style) or a HotMem partition geometry (``partition_bytes`` ×
    ``concurrency`` + ``shared_bytes``), which also sizes the region when
    ``region_bytes`` is omitted.
    """

    name: str
    mode: Union[str, DeploymentBackend] = VANILLA
    #: Explicit device-region size; ``None`` derives it from the
    #: partition geometry.
    region_bytes: Optional[int] = None
    partition_bytes: int = 0
    concurrency: int = 0
    shared_bytes: int = 0
    vcpus: int = 10
    boot_memory_bytes: Optional[int] = None
    placement: str = "scatter"
    virtio_irq_vcpu: int = 0
    batch_unplug: bool = False
    unplug_selection: str = "linear"
    seed: int = 0
    costs: CostModel = field(default=DEFAULT_COSTS)
    #: Optional fault plan; an injector is built per VM so sites stay
    #: independently seeded.
    faults: Optional[FaultPlan] = None
    fault_seed: Optional[int] = None
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        # Accept registry names ("balloon") as well as backend objects.
        object.__setattr__(self, "mode", get_mode(self.mode))
        self.mode.validate_spec(self)
        if self.region_bytes is None and self.partition_bytes <= 0:
            raise ConfigError(
                f"{self.name}: give region_bytes or a partition geometry"
            )

    @classmethod
    def for_function(
        cls,
        name: str,
        mode: Union[str, DeploymentBackend],
        memory_limit_bytes: int,
        concurrency: int,
        shared_bytes: int = 0,
        **overrides,
    ) -> "VmSpec":
        """Size a spec from a function's memory limit (block-rounded)."""
        params = HotMemBootParams.for_function(
            memory_limit_bytes, concurrency, shared_bytes
        )
        return cls(
            name=name,
            mode=mode,
            partition_bytes=params.partition_bytes,
            concurrency=params.concurrency,
            shared_bytes=params.shared_bytes,
            **overrides,
        )

    # -- derived geometry ----------------------------------------------
    @property
    def hotplug_region_bytes(self) -> int:
        """Device-region size (explicit or geometry-derived), rounded to
        the mode's reclamation granularity (DIMM modes need whole
        slots; the originals round to nothing)."""
        if self.region_bytes is not None:
            return self.mode.round_region(self.region_bytes)
        derived = self.concurrency * self.partition_bytes + self.shared_bytes
        return self.mode.round_region(derived)

    @property
    def hotmem_params(self) -> Optional[HotMemBootParams]:
        """Boot params for HotMem-extension modes, ``None`` otherwise."""
        return self.mode.hotmem_params_for(self)

    @property
    def boot_bytes(self) -> int:
        """Boot memory after default sizing."""
        if self.boot_memory_bytes is not None:
            return self.boot_memory_bytes
        return default_boot_memory_bytes(self.hotplug_region_bytes)

    @property
    def max_bytes(self) -> int:
        """Peak host footprint: boot plus the whole device region."""
        return self.boot_bytes + self.hotplug_region_bytes

    def vm_config(self, node_id: int) -> VmConfig:
        """The :class:`VmConfig` for this spec pinned to ``node_id``."""
        return VmConfig(
            name=self.name,
            hotplug_region_bytes=self.hotplug_region_bytes,
            vcpus=self.vcpus,
            boot_memory_bytes=self.boot_memory_bytes,
            placement=self.placement,
            virtio_irq_vcpu=self.virtio_irq_vcpu,
            node_id=node_id,
            batch_unplug=self.batch_unplug,
        )


@dataclass
class VmHandle:
    """A provisioned VM plus where it lives and what it was charged."""

    spec: VmSpec
    vm: VirtualMachine
    host_index: int
    node_id: int
    admission: AdmissionResult
    fleet: "Fleet"
    agent: Optional[Agent] = None
    #: Deploy-time arguments, remembered so an evacuation can rebuild an
    #: equivalent agent on the replacement VM (see :meth:`Fleet.reprovision`).
    deployments: Optional[List[FunctionDeployment]] = None
    keep_alive: Optional[KeepAlivePolicy] = None
    resilience: Optional[ResiliencePolicy] = None

    @property
    def name(self) -> str:
        return self.spec.name

    def deploy(
        self,
        deployments: List[FunctionDeployment],
        policy: KeepAlivePolicy,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> Agent:
        """Attach an :class:`~repro.faas.agent.Agent` to this VM."""
        if self.agent is not None:
            raise ClusterError(f"{self.name}: agent already deployed")
        self.agent = Agent(
            self.fleet.sim,
            self.vm,
            deployments,
            policy,
            self.spec.mode,
            resilience=resilience,
        )
        self.deployments = deployments
        self.keep_alive = policy
        self.resilience = resilience
        return self.agent

    def shutdown(self) -> None:
        """Stop the agent, release host memory and the admission charge."""
        if self.agent is not None:
            self.agent.stop()
        self.fleet._retire(self)

    def __repr__(self) -> str:
        return (
            f"<VmHandle {self.name} host={self.host_index} "
            f"node={self.node_id}>"
        )


class Fleet:
    """N hosts, a placement policy, and a density arbiter."""

    def __init__(
        self,
        sim: Simulator,
        hosts: int = 1,
        nodes_per_host: int = HostMachine.DEFAULT_NODES,
        cores_per_node: int = HostMachine.DEFAULT_CORES_PER_NODE,
        memory_per_node: int = HostMachine.DEFAULT_MEMORY_PER_NODE,
        placement: str = "first-fit",
        arbitration: ArbitrationPolicy = DEFAULT_ARBITRATION,
    ):
        if hosts <= 0:
            raise ConfigError(f"a fleet needs at least one host, got {hosts}")
        self.sim = sim
        self.hosts: List[HostMachine] = [
            HostMachine(
                sim,
                nodes=nodes_per_host,
                cores_per_node=cores_per_node,
                memory_per_node=memory_per_node,
            )
            for _ in range(hosts)
        ]
        self.placement: PlacementPolicy = (
            placement
            if isinstance(placement, PlacementPolicy)
            else get_placement_policy(placement)
        )
        self.arbiter = DensityArbiter(self.hosts, arbitration)
        #: The simulator's tracing context (inert unless a trace session
        #: is installed) and the fleet-wide scope admission/routing
        #: decisions are recorded through.
        self._obs_context = context_for(sim)
        self.obs = self._obs_context.scope()
        #: Every handle ever provisioned, in admission order.
        self.handles: List[VmHandle] = []
        self._names: Dict[str, VmHandle] = {}
        #: (time_ns, host_index, node_id) pressure-monitor firings.
        self.pressure_events: List[Tuple[int, int, int]] = []
        self._pressure_monitor: Optional[Process] = None
        #: Attached SLO burn-rate monitor (observation-only: pressure
        #: firings are attributed to its open windows).
        self.slo_monitor = None
        #: Hosts lost to a crash; mirrors the arbiter's down set.
        self.down_hosts: Set[int] = set()
        #: (host_index, node_id) → account for non-VM memory pressure
        #: (the ``host.pressure.spike`` fault charges through these, so
        #: host-conservation stays checkable during a spike).
        self._external: Dict[Tuple[int, int], HostAccount] = {}
        #: Bumped per evacuation so replacement VMs get fresh names.
        self._evac_generation = 0

    # ------------------------------------------------------------------
    # Admission + provisioning
    # ------------------------------------------------------------------
    def admit(self, spec: VmSpec) -> AdmissionResult:
        """Dry-run admission: where would this spec land, at what charge?"""
        committed = self.arbiter.commitment(
            spec.mode,
            spec.boot_bytes,
            spec.hotplug_region_bytes,
            spec.shared_bytes,
        )
        candidates = self.arbiter.candidates()
        choice = self.placement.select(committed, candidates)
        if choice is None:
            fits_empty = any(
                committed <= candidate.limit_bytes for candidate in candidates
            )
            result = AdmissionResult(
                admitted=False,
                reason="saturated" if fits_empty else "oversized",
                committed_bytes=committed,
            )
        else:
            result = AdmissionResult(
                admitted=True,
                host_index=choice.host_index,
                node_id=choice.node_id,
                committed_bytes=committed,
            )
        self.obs.event(
            "cluster.admit",
            vm=spec.name,
            mode=spec.mode.name,
            admitted=result.admitted,
            reason=result.reason,
            committed_bytes=result.committed_bytes,
        )
        self.obs.inc(
            "admissions_total",
            mode=spec.mode.name,
            admitted=result.admitted,
        )
        return result

    def try_provision(self, spec: VmSpec) -> Tuple[Optional[VmHandle], AdmissionResult]:
        """Provision if admission allows; always returns the decision."""
        if spec.name in self._names:
            raise ClusterError(f"VM name {spec.name!r} already provisioned")
        admission = self.admit(spec)
        if not admission.admitted:
            return None, admission
        vm_obs = self._obs_context.scope(
            vm=spec.name,
            mode=spec.mode.name,
            host=admission.host_index,
        )
        vm = VirtualMachine(
            self.sim,
            self.hosts[admission.host_index],
            spec.vm_config(admission.node_id),
            costs=spec.costs,
            hotmem_params=spec.hotmem_params,
            vanilla_unplug_selection=spec.unplug_selection,
            seed=spec.seed,
            faults=(
                FaultInjector(
                    spec.faults,
                    seed=spec.seed if spec.fault_seed is None else spec.fault_seed,
                )
                if spec.faults is not None
                else None
            ),
            retry_policy=spec.retry,
            obs=vm_obs,
        )
        # Stamp the mode on the resize log even when untraced, so
        # per-mode reports never see blank labels from fleet VMs.
        vm.tracer.mode = spec.mode.name
        self.arbiter.charge(
            admission.host_index, admission.node_id, admission.committed_bytes
        )
        # Swap in the mode's reclamation datapath and run its boot-time
        # preparation (overprovisioned/FPR plug everything, balloon
        # additionally inflates, the elastic virtio-mem modes do nothing).
        vm.datapath = spec.mode.build_datapath(vm)
        spec.mode.prepare_vm(vm)
        handle = VmHandle(
            spec=spec,
            vm=vm,
            host_index=admission.host_index,
            node_id=admission.node_id,
            admission=admission,
            fleet=self,
        )
        self.handles.append(handle)
        self._names[spec.name] = handle
        # Sanitizer/invariant discovery hook, mirroring _hotmem_context:
        # any checkpoint reached through this VM's manager can find the
        # fleet and run host-conservation across it.
        vm.manager._fleet_context = self
        return handle, admission

    def provision(self, spec: VmSpec) -> VmHandle:
        """Provision or raise :class:`~repro.errors.AdmissionRejected`."""
        handle, admission = self.try_provision(spec)
        if handle is None:
            raise AdmissionRejected(
                f"{spec.name}: admission rejected ({admission.reason})",
                result=admission,
            )
        return handle

    def _retire(self, handle: VmHandle) -> None:
        if not handle.vm._alive:
            return
        # Let the mode stop datapath machinery (e.g. the FPR reporting
        # loop) before the host account closes.
        handle.spec.mode.on_shutdown(handle.vm)
        handle.vm.shutdown()
        self.arbiter.release(
            handle.host_index, handle.node_id, handle.admission.committed_bytes
        )

    # ------------------------------------------------------------------
    # Failure domains (see repro.cluster.failover)
    # ------------------------------------------------------------------
    def residents(self, host_index: int) -> List[VmHandle]:
        """Alive handles resident on one host, in admission order."""
        return [
            h
            for h in self.handles
            if h.host_index == host_index and h.vm._alive
        ]

    def _kill_handle(self, handle: VmHandle) -> None:
        # Kill order matters: the agent's background processes first
        # (they reference containers backed by the VM's memory), then
        # the VM's in-flight plug/unplug work and its host account.
        # Router-side in-flight requests are the coordinator's job and
        # were already failed over before we get here.
        if handle.agent is not None:
            handle.agent.kill()
        handle.vm.kill()

    def kill_vm(self, name: str) -> VmHandle:
        """Abruptly kill one VM (OOM-kill): no graceful shutdown.

        Unlike :meth:`VmHandle.shutdown` nothing drains; in-flight
        simulated work is terminated and the admission charge is
        returned exactly.  The handle stays in ``handles`` (dead) so
        history and naming are preserved.
        """
        handle = self.handle(name)
        if not handle.vm._alive:
            return handle
        self._kill_handle(handle)
        self.arbiter.release(
            handle.host_index, handle.node_id, handle.admission.committed_bytes
        )
        self.obs.event("cluster.vm-killed", vm=name, host=handle.host_index)
        return handle

    def crash_host(self, host_index: int) -> List[VmHandle]:
        """Take a whole host down, atomically from the sim's viewpoint.

        Kills every resident VM, removes the host from arbitration and
        rebuilds the committed-memory ledger from the survivors — all in
        one callback (no yields), so sanitizer probes never observe a
        half-crashed ledger.  Returns the victims for evacuation.
        """
        if host_index in self.down_hosts:
            return []
        victims = self.residents(host_index)
        for handle in victims:
            self._kill_handle(handle)
        self.down_hosts.add(host_index)
        self.arbiter.mark_host_down(host_index)
        self.arbiter.reconcile(self._resident_commitments())
        self.obs.event(
            "cluster.host-crash",
            host=host_index,
            victims=len(victims),
        )
        return victims

    def _resident_commitments(self) -> List[Tuple[int, int, int]]:
        """Ground truth for the arbiter: one triple per alive VM."""
        return [
            (h.host_index, h.node_id, h.admission.committed_bytes)
            for h in self.handles
            if h.vm._alive
        ]

    def ledger_drift_report(self) -> Dict[Tuple[int, int], int]:
        """Per-node arbiter drift vs. the alive handles (empty = exact)."""
        return self.arbiter.drift_report(self._resident_commitments())

    def ledger_drift_bytes(self) -> int:
        """Total absolute arbiter drift vs. the alive handles."""
        return sum(abs(delta) for delta in self.ledger_drift_report().values())

    def reprovision(
        self, dead: VmHandle
    ) -> Tuple[Optional[VmHandle], AdmissionResult]:
        """Re-admit a killed VM's spec on a surviving host.

        The replacement runs the same spec under a generation-suffixed
        name (``web~e1``), goes through normal placement/admission (it
        can be rejected — evacuation does not override density limits),
        and gets an equivalent agent re-deployed from the dead handle's
        remembered deploy arguments, including a restarted recycler.
        """
        if dead.vm._alive:
            raise ClusterError(f"{dead.name}: cannot reprovision a live VM")
        self._evac_generation += 1
        base = dead.spec.name.split("~", 1)[0]
        spec = replace(dead.spec, name=f"{base}~e{self._evac_generation}")
        handle, admission = self.try_provision(spec)
        if handle is None:
            return None, admission
        if dead.deployments is not None and dead.keep_alive is not None:
            handle.deploy(
                dead.deployments, dead.keep_alive, resilience=dead.resilience
            )
        if (
            handle.agent is not None
            and dead.agent is not None
            and dead.agent._recycler is not None
        ):
            handle.agent.start_recycler(dead.agent._recycler_until)
        return handle, admission

    def evacuate(
        self,
        host_index: int,
        victims: List[VmHandle],
        coldstart_ns: int,
        on_replacement=None,
    ):
        """Process generator: re-home a crashed host's VMs, one by one.

        Each victim pays ``coldstart_ns`` (boot + image pull on its new
        host), then goes through :meth:`reprovision` — normal placement
        and admission, which may *reject* it when the survivors lack
        density headroom.  ``on_replacement(dead, replacement)`` fires
        per successful re-admission (the coordinator uses it to register
        the replacement with the router and stamp recovery records).
        Returns an :class:`~repro.cluster.failover.EvacuationResult`.
        """
        if coldstart_ns < 0:
            raise ConfigError(f"coldstart_ns must be >= 0, got {coldstart_ns}")
        evacuated: List[str] = []
        rejected: List[str] = []
        for dead in victims:
            if coldstart_ns > 0:
                yield Timeout(coldstart_ns)
            replacement, _admission = self.reprovision(dead)
            if replacement is None:
                rejected.append(dead.name)
                continue
            evacuated.append(replacement.name)
            if on_replacement is not None:
                on_replacement(dead, replacement)
        return EvacuationResult(
            host_index=host_index,
            evacuated=tuple(evacuated),
            rejected=tuple(rejected),
            completed_ns=self.sim.now,
        )

    def external_charge(self, host_index: int, node_id: int, nbytes: int) -> int:
        """Charge non-VM memory against a node (pressure spike).

        Clamped to the node's free bytes so the spike squeezes the node
        hard without tripping :class:`~repro.errors.OutOfMemory`; the
        granted amount is returned for the matching release.
        """
        if nbytes < 0:
            raise ConfigError(f"external charge must be >= 0, got {nbytes}")
        node = self.hosts[host_index].node(node_id)
        granted = min(nbytes, node.free_bytes)
        if granted <= 0:
            return 0
        account = self._external.get((host_index, node_id))
        if account is None:
            account = HostAccount(node)
            self._external[(host_index, node_id)] = account
        account.charge(granted)
        return granted

    def external_release(self, host_index: int, node_id: int, nbytes: int) -> None:
        """Return previously granted external bytes to the node."""
        if nbytes <= 0:
            return
        account = self._external[(host_index, node_id)]
        account.discharge(nbytes)

    def external_bytes(self, host_index: int, node_id: int) -> int:
        """External (non-VM) bytes currently charged against a node."""
        account = self._external.get((host_index, node_id))
        return account.charged_bytes if account is not None else 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def handle(self, name: str) -> VmHandle:
        """The handle provisioned under ``name``."""
        try:
            return self._names[name]
        except KeyError:
            raise ClusterError(f"no VM named {name!r} in the fleet") from None

    def node_views(
        self,
    ) -> Iterator[Tuple[int, NumaNode, List[VirtualMachine]]]:
        """Yield (host_index, node, alive resident VMs) per node."""
        for host_index, host in enumerate(self.hosts):
            for node in host.nodes:
                residents = [
                    h.vm
                    for h in self.handles
                    if h.host_index == host_index
                    and h.node_id == node.node_id
                    and h.vm._alive
                ]
                yield host_index, node, residents

    def agents(self) -> List[Agent]:
        """Deployed agents over alive VMs, in admission order."""
        return [
            h.agent for h in self.handles if h.agent is not None and h.vm._alive
        ]

    # ------------------------------------------------------------------
    # Reclamation pressure
    # ------------------------------------------------------------------
    def attach_slo_monitor(self, monitor) -> None:
        """Feed pressure firings into an SLO monitor's burn windows.

        Observation-only: attaching a monitor never changes what the
        pressure loop sheds, so golden outputs are unaffected."""
        self.slo_monitor = monitor

    def start_pressure_monitor(
        self, period_ns: int, until_ns: Optional[int] = None
    ) -> Process:
        """Watch real node usage; over the watermark, ask resident
        agents to run an immediate reclamation pass."""
        if self._pressure_monitor is not None:
            raise ClusterError("pressure monitor already started")
        if period_ns <= 0:
            raise ConfigError("pressure period must be positive")
        self._pressure_monitor = self.sim.spawn(
            self._pressure_loop(period_ns, until_ns), name="fleet-pressure"
        )
        return self._pressure_monitor

    def _pressure_loop(self, period_ns: int, until_ns: Optional[int]):
        bounded = self.arbiter.policy.pressure_shed == "bounded"
        while True:
            yield Timeout(period_ns)
            if until_ns is not None and self.sim.now > until_ns:
                return None
            for host_index, node, residents in self.node_views():
                if not residents:
                    continue
                if not self.arbiter.over_watermark(host_index, node.node_id):
                    continue
                self.pressure_events.append(  # lint: allow[no-unbounded-series] bounded by horizon/period; consumed whole by chaos gates
                    (self.sim.now, host_index, node.node_id)
                )
                if self.slo_monitor is not None:
                    self.slo_monitor.note_pressure(
                        self.sim.now, host_index, node.node_id
                    )
                # Under bounded shedding every resident agent gets the
                # node's overage as its budget: each agent's eviction
                # policy ranks its own idle containers and only the
                # prefix covering the overage dies.  ``None`` keeps the
                # historical evict-everything nudge.
                need_bytes = (
                    self.arbiter.overage_bytes(host_index, node.node_id)
                    if bounded
                    else None
                )
                for handle in self.handles:
                    if (
                        handle.host_index == host_index
                        and handle.node_id == node.node_id
                        and handle.agent is not None
                        and handle.vm._alive
                    ):
                        handle.agent.request_reclaim(need_bytes=need_bytes)

    def __repr__(self) -> str:
        return f"<Fleet hosts={len(self.hosts)} vms={len(self.handles)}>"


def provision_vm(sim: Simulator, spec: VmSpec, **fleet_kwargs) -> VmHandle:
    """One-host convenience: build a single-host fleet and provision.

    The returned handle's ``fleet`` gives access to the host
    (``handle.fleet.hosts[0]``) for callers that only need one machine.
    """
    fleet = Fleet(sim, hosts=1, **fleet_kwargs)
    return fleet.provision(spec)
