"""The related-work baselines as first-class deployment modes.

Folds :mod:`repro.baselines` into the registry (Section 7's comparison
mechanisms), so ballooning, ACPI DIMM hotplug and free page reporting
provision through the fleet, serve traces through the router, and sweep
through the density/chaos/serverless experiments exactly like the three
original modes.

Admission credits are chosen from each mechanism's reclamation
semantics, keeping the paper's ordering (hotmem's 0.75 stays highest):

* **balloon** (0.2): page-granular and genuinely elastic, but inflation
  is unreliable — it can only take pages the guest allocator has free
  right now, and stalls under pressure — so it earns slightly less than
  vanilla virtio-mem's 0.25.
* **dimm** (0.1): whole-DIMM atomicity strands every sub-GiB excess and
  one stubborn block aborts the entire DIMM, so only a sliver of the
  region can be credited.
* **fpr** (0.0): the VM never shrinks; reported pages are
  returned-but-promised, not released capacity, so admission must treat
  the footprint like an overprovisioned VM's.

All three bypass the virtio-mem device/driver, so only the agent-level
fault sites apply to them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.baselines.balloon import BALLOON_LABEL, VirtioBalloon
from repro.baselines.dimm import DEFAULT_DIMM_BYTES, DIMM_LABEL, DimmHotplug
from repro.baselines.fpr import FPR_LABEL, FreePageReporting
from repro.modes.base import DeploymentBackend
from repro.modes.datapaths import BalloonDatapath, DimmDatapath, FprDatapath
from repro.modes.registry import register_mode
from repro.units import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.vmm.vm import VirtualMachine

__all__ = ["BalloonMode", "DimmMode", "FprMode", "BALLOON", "DIMM", "FPR"]


class BalloonMode(DeploymentBackend):
    """virtio-balloon elasticity: inflate to reclaim, deflate to grow."""

    name = "balloon"
    elastic = True
    reclaim_credit = 0.2
    cpu_labels = (BALLOON_LABEL,)
    reclaim_granularity_bytes = PAGE_SIZE
    reclaim_semantics = (
        "page-granular but unreliable: inflation takes only what the "
        "guest allocator has free and retries when it runs dry"
    )

    def build_datapath(self, vm: "VirtualMachine") -> BalloonDatapath:
        balloon = VirtioBalloon(
            vm.sim,
            vm.manager,
            vm.costs,
            irq_core=vm.irq_vcpu,
            vmm_core=vm.vmm_core,
            host_node=vm.node,
        )
        return BalloonDatapath(vm, balloon)

    def prepare_vm(self, vm: "VirtualMachine") -> None:
        # Boot with the region plugged and fully ballooned: the host
        # backs only boot memory until instances deflate on demand.
        vm.plug_all_at_boot()
        vm.datapath.inflate_at_boot()


class DimmMode(DeploymentBackend):
    """ACPI (v)DIMM hotplug: whole-GiB atomic plug/unplug units."""

    name = "dimm"
    elastic = True
    reclaim_credit = 0.1
    cpu_labels = (DIMM_LABEL,)
    reclaim_granularity_bytes = DEFAULT_DIMM_BYTES
    reclaim_semantics = (
        "whole-DIMM atomic unplug: sub-DIMM excess is stranded and one "
        "stubborn block aborts the DIMM"
    )

    def round_region(self, region_bytes: int) -> int:
        # The DIMM interface needs a whole number of DIMM slots.
        dimms = -(-region_bytes // DEFAULT_DIMM_BYTES)
        return dimms * DEFAULT_DIMM_BYTES

    def build_datapath(self, vm: "VirtualMachine") -> DimmDatapath:
        dimm = DimmHotplug(
            vm.sim,
            vm.manager,
            vm.costs,
            irq_core=vm.irq_vcpu,
            vmm_core=vm.vmm_core,
            host_node=vm.node,
        )
        return DimmDatapath(vm, dimm)


class FprMode(DeploymentBackend):
    """Free page reporting: static VM size, lazy host-side reclaim."""

    name = "fpr"
    elastic = False
    reclaim_credit = 0.0
    cpu_labels = (FPR_LABEL,)
    reclaim_semantics = (
        "the VM never shrinks: free pages return to the host lazily at "
        "reporting ticks and bounce back on first reuse"
    )

    def build_datapath(self, vm: "VirtualMachine") -> FprDatapath:
        fpr = FreePageReporting(
            vm.sim,
            vm.manager,
            vm.costs,
            irq_core=vm.irq_vcpu,
            vmm_core=vm.vmm_core,
            host_node=vm.node,
        )
        return FprDatapath(vm, fpr)

    def prepare_vm(self, vm: "VirtualMachine") -> None:
        vm.plug_all_at_boot()
        vm.datapath.start()


BALLOON = register_mode(BalloonMode())
DIMM = register_mode(DimmMode())
FPR = register_mode(FprMode())
