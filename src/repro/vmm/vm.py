"""The microVM: guest kernel + vCPUs + virtio-mem wiring.

A :class:`VirtualMachine` assembles the whole guest/host stack for one
VM: the guest memory manager, page cache, fault handler and OOM killer;
the virtio-mem driver bound to the vCPU that serves its interrupts; the
VMM-side device with its own pinned thread; and, for HotMem VMs, the
partition manager and partition-aware backend with the shared partition
populated at boot (Section 4.1's "VM creation").
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.backend import HotMemBackend
from repro.core.config import HotMemBootParams
from repro.core.manager import HotMemManager
from repro.errors import ConfigError
from repro.faults.injector import NO_FAULTS, FaultInjector
from repro.faults.policy import NO_RETRY, RetryPolicy
from repro.host.machine import HostAccount, HostMachine
from repro.faults.recovery import RecoveryLog
from repro.mm.fault import FaultHandler
from repro.mm.manager import GuestMemoryManager
from repro.mm.mm_struct import MmStruct
from repro.mm.oom import OomKiller
from repro.mm.pagecache import PageCache
from repro.modes.base import ReclaimDatapath
from repro.modes.datapaths import VirtioMemDatapath
from repro.obs.context import NO_SCOPE, ObsScope
from repro.obs.span import NULL_SPAN, SpanLike
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.cpu import CpuCore
from repro.sim.engine import Process, Simulator
from repro.sim.rng import make_rng
from repro.virtio.backend import VanillaBackend
from repro.virtio.device import VirtioMemDevice
from repro.virtio.driver import VirtioMemDriver
from repro.vmm.config import VmConfig
from repro.vmm.tracing import HypervisorTracer

__all__ = ["VirtualMachine"]


class VirtualMachine:
    """One microVM, vanilla or HotMem, pinned to a NUMA node."""

    def __init__(
        self,
        sim: Simulator,
        host: HostMachine,
        config: VmConfig,
        costs: CostModel = DEFAULT_COSTS,
        hotmem_params: Optional[HotMemBootParams] = None,
        vanilla_unplug_selection: str = "linear",
        seed: int = 0,
        faults: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        obs: Optional[ObsScope] = None,
    ):
        self.sim = sim
        self.host = host
        self.config = config
        self.costs = costs
        #: The VM's tracing scope (inert :data:`NO_SCOPE` by default):
        #: stamps ``vm``/``mode``/``host`` labels on every span and
        #: metric the datapath emits.  The fleet passes a live scope at
        #: provision time when ``--trace`` is installed.
        self.obs = obs if obs is not None else NO_SCOPE
        #: Attributed host-memory account: every charge this VM makes
        #: (boot, plugs, baseline mechanisms) flows through it, so host
        #: accounting always knows how many bytes this guest backs.
        self.node = HostAccount(host.node(config.node_id))
        #: The fault-injection plane (inert :data:`NO_FAULTS` by default,
        #: which draws no RNG and adds no latency anywhere).
        self.faults = faults if faults is not None else NO_FAULTS
        self.faults.bind_sim(sim)
        self.faults.bind_obs(self.obs)
        self.retry_policy = retry_policy if retry_policy is not None else NO_RETRY
        #: Every recovery/degradation the datapath performs lands here
        #: (appended directly; its ``recovery`` span only observes).
        self.recovery_log = RecoveryLog(obs=self.obs)

        boot_bytes = config.effective_boot_memory_bytes
        if hotmem_params is not None:
            needed = hotmem_params.max_hotplug_bytes
            if config.hotplug_region_bytes < needed:
                raise ConfigError(
                    f"hotplug region too small for HotMem partitions: "
                    f"need {needed}, have {config.hotplug_region_bytes}"
                )

        # vCPU threads, each pinned to its own physical core (Section 5.1),
        # plus the VMM virtio-mem thread on a separate pinned core.
        self.vcpus: List[CpuCore] = [
            CpuCore(sim, name=f"{config.name}-vcpu{i}") for i in range(config.vcpus)
        ]
        self.vmm_core = CpuCore(sim, name=f"{config.name}-vmm")
        self.irq_vcpu = self.vcpus[config.virtio_irq_vcpu]

        # Guest kernel state.
        self.node.charge(boot_bytes)
        self._boot_bytes = boot_bytes
        self.manager = GuestMemoryManager(
            boot_memory_bytes=boot_bytes,
            hotplug_region_bytes=config.hotplug_region_bytes,
            placement=config.placement,
            rng=make_rng(seed, f"placement/{config.name}"),
        )
        self.page_cache = PageCache()
        self.oom_killer = OomKiller()

        # HotMem vs vanilla wiring.
        self.hotmem: Optional[HotMemManager] = None
        if hotmem_params is not None:
            self.hotmem = HotMemManager(
                sim, self.manager, hotmem_params, obs=self.obs
            )
            backend = HotMemBackend(self.hotmem)
            shared_zones = self.hotmem.file_mapping_zones()
        else:
            backend = VanillaBackend(
                self.manager, costs, selection=vanilla_unplug_selection
            )
            shared_zones = None
        self.backend = backend
        self.fault_handler = FaultHandler(
            self.manager,
            costs,
            page_cache=self.page_cache,
            oom_killer=self.oom_killer,
            shared_file_zones=shared_zones,
        )

        # virtio-mem device/driver pair.  Every datapath appends its
        # resize requests to ``tracer``, traced or not.
        self.tracer = HypervisorTracer(
            vm_name=config.name, mode=str(self.obs.attrs.get("mode", ""))
        )
        self.driver = VirtioMemDriver(
            sim,
            self.manager,
            backend,
            costs,
            irq_core=self.irq_vcpu,
            batch_unplug=config.batch_unplug,
            faults=self.faults,
            retry=self.retry_policy,
            recovery=self.recovery_log,
            obs=self.obs,
        )
        self.device = VirtioMemDevice(
            sim,
            self.driver,
            self.manager,
            costs,
            vmm_core=self.vmm_core,
            host_node=self.node,
            tracer=self.tracer,
            faults=self.faults,
            recovery=self.recovery_log,
            obs=self.obs,
        )

        # HotMem populates the shared partition at boot (Section 4.1).
        if self.hotmem is not None and self.hotmem.shared_partition is not None:
            self.device.plug_at_boot(
                hotmem_params.shared_bytes, self.hotmem.shared_partition.zone
            )

        #: The reclamation datapath every resize request flows through.
        #: virtio-mem by default; :meth:`repro.modes.base
        #: .DeploymentBackend.build_datapath` swaps in the mechanism the
        #: VM's deployment mode uses (balloon, DIMM hotplug, ...).
        self.datapath: ReclaimDatapath = VirtioMemDatapath(self)

        #: In-flight plug/unplug/resize processes, so an abrupt kill can
        #: terminate them (finished entries are pruned as new ones start).
        self.inflight: List[Process] = []

        self._alive = True

    # ------------------------------------------------------------------
    # Identity / mode
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The VM's configured name."""
        return self.config.name

    @property
    def is_hotmem(self) -> bool:
        """Whether this VM runs the HotMem guest extension."""
        return self.hotmem is not None

    @property
    def backed_bytes(self) -> int:
        """Host bytes currently backing this VM (boot + plugged + any
        baseline-mechanism charges); 0 once the VM is shut down."""
        return self.node.charged_bytes if self._alive else 0

    @property
    def elastic_bytes(self) -> int:
        """Reclaimable memory the datapath currently holds grown.

        For virtio-mem this is the device's plugged bytes; balloon-mode
        VMs subtract the inflated balloon, DIMM VMs count whole plugged
        DIMMs.  The agent sizes plug/unplug requests from this figure.
        """
        return self.datapath.elastic_bytes

    # ------------------------------------------------------------------
    # Resizing (the hypervisor-facing interface the runtime drives)
    # ------------------------------------------------------------------
    def request_plug(
        self, size_bytes: int, parent: SpanLike = NULL_SPAN
    ) -> Process:
        """Start a plug request; returns the process (value: PlugResult).

        ``parent`` links the datapath's spans into the caller's trace
        (e.g. the agent's ``agent.plug`` span) when tracing is enabled.
        """
        return self._track(
            self.sim.spawn(
                self.datapath.plug(size_bytes, parent=parent),
                name=f"{self.name}-plug",
            )
        )

    def request_unplug(
        self, size_bytes: int, parent: SpanLike = NULL_SPAN
    ) -> Process:
        """Start an unplug request; returns the process (value: UnplugResult)."""
        return self._track(
            self.sim.spawn(
                self.datapath.unplug(size_bytes, parent=parent),
                name=f"{self.name}-unplug",
            )
        )

    def _track(self, process: Process) -> Process:
        self.inflight = [p for p in self.inflight if not p.finished]
        self.inflight.append(process)
        return process

    def request_resize(
        self, target_bytes: int, parent: SpanLike = NULL_SPAN
    ) -> Optional[Process]:
        """Converge the plugged size toward ``target_bytes``.

        This is virtio-mem's actual protocol: the hypervisor sets a
        requested size and the guest plugs or unplugs the difference.
        Returns the in-flight request process, or ``None`` when already
        at the target (after block rounding).
        """
        from repro.units import MEMORY_BLOCK_SIZE, bytes_to_blocks

        target = bytes_to_blocks(target_bytes) * MEMORY_BLOCK_SIZE
        if target > self.config.hotplug_region_bytes:
            raise ConfigError(
                f"resize target exceeds the device region "
                f"({target} > {self.config.hotplug_region_bytes})"
            )
        delta = target - self.elastic_bytes
        if delta > 0:
            return self.request_plug(delta, parent=parent)
        if delta < 0:
            return self.request_unplug(-delta, parent=parent)
        return None

    def plug_all_at_boot(self) -> None:
        """Statically provision the whole device region (Figure 9's
        over-provisioned configuration): everything plugged at boot into
        ``ZONE_MOVABLE``, never resized."""
        remaining = self.config.hotplug_region_bytes - self.device.plugged_bytes
        if remaining > 0:
            self.device.plug_at_boot(remaining, self.manager.zone_movable)

    # ------------------------------------------------------------------
    # Guest processes
    # ------------------------------------------------------------------
    def new_process(self, name: str) -> MmStruct:
        """Create a process address space inside this guest."""
        return MmStruct(name)

    def exit_process(self, mm: MmStruct):
        """Tear a process down (HotMem refcounting included).

        Returns the teardown :class:`~repro.mm.fault.FaultCharge` so the
        caller can charge the CPU time to the right vCPU.
        """
        if mm.hotmem_partition is not None:
            assert self.hotmem is not None
            return self.hotmem.process_exit(self.fault_handler, mm)
        return self.fault_handler.release_address_space(mm)

    # ------------------------------------------------------------------
    # Lifecycle / sanity
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Release the VM's host memory (boot + everything still plugged)."""
        if not self._alive:
            return
        self.node.close()
        self._alive = False

    def kill(self) -> None:
        """Abrupt death (host crash, OOM-kill): no graceful drain.

        In-flight plug/unplug processes are terminated at their current
        yield point (their ``finally`` blocks close spans and unwind
        pending-byte accounting) before the host account closes, so the
        host-conservation invariant holds in the very next probe.
        """
        if not self._alive:
            return
        for process in self.inflight:
            process.kill()
        self.inflight = []
        self.node.close()
        self._alive = False

    def check_consistency(self) -> None:
        """Cross-check guest and datapath state (tests, debugging)."""
        self.manager.check_consistency()
        self.datapath.check_consistency()

    def __repr__(self) -> str:
        mode = "hotmem" if self.is_hotmem else "vanilla"
        return f"<VirtualMachine {self.name} {mode} vcpus={len(self.vcpus)}>"
