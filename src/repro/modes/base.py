"""The deployment-backend strategy interface.

A *deployment mode* bundles every policy decision that depends on how
a VM is deployed: whether the runtime resizes the VM at all, which
reclamation datapath the VM gets, how much reclaimable memory the
density arbiter may credit at admission, which fault-injection sites
apply, and which CPU-accounting labels the datapath charges.  Modes are
plain singletons registered by name in :mod:`repro.modes.registry`;
everything else in the repo handles them uniformly through this
interface.

Two objects cooperate per VM:

* the :class:`DeploymentBackend` (one singleton per mode) makes the
  spec/VM-level decisions and builds the datapath;
* the :class:`ReclaimDatapath` (one instance per VM) adapts the mode's
  reclamation mechanism — virtio-mem, balloon, DIMM hotplug, free page
  reporting — to the agent-facing plug/unplug contract, speaking
  :class:`~repro.virtio.device.PlugResult` /
  :class:`~repro.virtio.device.UnplugResult` so the agent's retry,
  degradation and deferred-reclamation machinery works unchanged for
  every mechanism.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.config import HotMemBootParams
from repro.errors import ConfigError
from repro.faults.sites import AGENT_SITES
from repro.obs.span import NULL_SPAN, SpanLike

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.cluster.provision import VmSpec
    from repro.vmm.vm import VirtualMachine

__all__ = ["DeploymentBackend", "ReclaimDatapath"]


class ReclaimDatapath:
    """Per-VM adapter from one reclamation mechanism to plug/unplug.

    ``plug``/``unplug`` are process generators with the same contract as
    :meth:`repro.virtio.device.VirtioMemDevice.plug` /
    :meth:`~repro.virtio.device.VirtioMemDevice.unplug`: they never
    raise for refused or partial requests — outcomes travel in the
    result object so the agent's resilience path can retry, defer or
    degrade.
    """

    #: Display name (matches the owning mode's name).
    name: str = "abstract"

    @property
    def elastic_bytes(self) -> int:
        """Bytes currently provisioned to serve instances.

        The agent's sizing math (deficit on spawn, excess on recycle)
        reads this instead of ``device.plugged_bytes``: for virtio-mem
        both are the same, but a balloon VM keeps the device fully
        plugged and varies the balloon instead.
        """
        raise NotImplementedError

    def plug(self, size_bytes: int, parent: SpanLike = NULL_SPAN):
        """Process generator growing the VM; returns a ``PlugResult``.

        ``parent`` is the caller's span (e.g. the agent's ``agent.plug``)
        so the mechanism's ``device.plug`` span joins the caller's trace
        when tracing is enabled; implementations must accept and forward
        it even when they ignore tracing.
        """
        raise NotImplementedError

    def unplug(self, size_bytes: int, parent: SpanLike = NULL_SPAN):
        """Process generator shrinking the VM; returns an ``UnplugResult``."""
        raise NotImplementedError

    def check_consistency(self) -> None:
        """Cross-check guest and mechanism state (tests, sanitizer)."""
        raise NotImplementedError

    def on_retire(self) -> None:
        """Stop background machinery before the VM releases host memory."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class DeploymentBackend:
    """One deployment mode: declarative knobs plus lifecycle hooks.

    Subclasses override the class attributes (and the few hooks whose
    defaults do not fit) and register one instance under
    :attr:`name`; see :mod:`repro.modes.builtin` and
    :mod:`repro.modes.related` for the six built-ins.
    """

    #: Registry key and report string (``str(mode)`` returns it).
    name: str = "abstract"
    #: Whether the runtime issues plug/unplug requests in this mode.
    elastic: bool = True
    #: Admission credit in [0, 1]: the fraction of the elastic region
    #: (hotplug region minus shared bytes) the density arbiter may
    #: assume this mode gives back between bursts.
    reclaim_credit: float = 0.0
    #: Whether VMs boot the HotMem guest extension (partition manager,
    #: partition-aware backend, shared partition).
    uses_hotmem: bool = False
    #: Fault-injection sites applicable to this mode's datapath.  Modes
    #: that bypass the virtio-mem device/driver (balloon, DIMM, FPR)
    #: only expose the agent-level sites.
    fault_sites: Tuple[str, ...] = AGENT_SITES
    #: CPU-accounting labels the datapath charges on the virtio IRQ
    #: vCPU (cost-model hook: reports sum these for "datapath CPU").
    cpu_labels: Tuple[str, ...] = ()
    #: Smallest reclaimable unit (0 when resizing never reclaims, as
    #: for overprovisioned and FPR VMs).
    reclaim_granularity_bytes: int = 0
    #: One-line description of how (or why not) this mode reclaims —
    #: the contract test requires it for non-elastic modes.
    reclaim_semantics: str = ""

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<mode {self.name}>"

    # ------------------------------------------------------------------
    # Spec-level hooks (consulted by VmSpec)
    # ------------------------------------------------------------------
    def validate_spec(self, spec: "VmSpec") -> None:
        """Reject specs this mode cannot provision."""

    def round_region(self, region_bytes: int) -> int:
        """Round the device region up to this mode's plug granularity."""
        return region_bytes

    def hotmem_params_for(self, spec: "VmSpec") -> Optional[HotMemBootParams]:
        """Boot params for HotMem VMs, ``None`` for everything else."""
        return None

    # ------------------------------------------------------------------
    # VM-level hooks (consulted by Fleet and Agent)
    # ------------------------------------------------------------------
    def validate_vm(self, vm: "VirtualMachine") -> None:
        """Reject VMs whose guest wiring does not match this mode."""
        if vm.is_hotmem:
            raise ConfigError(f"{self} mode requires a vanilla VM")

    def build_datapath(self, vm: "VirtualMachine") -> ReclaimDatapath:
        """Create this mode's per-VM reclamation datapath."""
        raise NotImplementedError

    def prepare_vm(self, vm: "VirtualMachine") -> None:
        """Boot-time state setup after the datapath is installed (e.g.
        plugging the whole region for statically provisioned modes).
        Performs no simulated work."""

    def on_shutdown(self, vm: "VirtualMachine") -> None:
        """Quiesce the datapath before the VM releases its host memory."""
        vm.datapath.on_retire()

    # ------------------------------------------------------------------
    # Cost-model hooks
    # ------------------------------------------------------------------
    def datapath_cpu_ns(self, vm: "VirtualMachine") -> int:
        """CPU time the datapath charged on the virtio IRQ vCPU."""
        return sum(
            vm.irq_vcpu.busy_ns_for(label) for label in self.cpu_labels
        )
