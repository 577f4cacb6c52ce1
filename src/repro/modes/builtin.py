"""The three original deployment modes (Section 5.5 / Figure 9).

All three use the VM's own virtio-mem device as their datapath.  Their
admission credits are 0 / 0.25 / 0.75, and the overprovisioned mode
plugs its whole region at boot in its :meth:`prepare_vm` hook.  Callers
name them by these constants or through
:func:`~repro.modes.registry.get_mode`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.config import HotMemBootParams
from repro.errors import ConfigError
from repro.faults.sites import DATAPATH_SITES
from repro.modes.base import DeploymentBackend
from repro.modes.datapaths import VirtioMemDatapath
from repro.modes.registry import register_mode
from repro.units import MEMORY_BLOCK_SIZE
from repro.virtio.driver import VIRTIO_MEM_LABEL

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.cluster.provision import VmSpec
    from repro.vmm.vm import VirtualMachine

__all__ = [
    "HotMemMode",
    "VanillaMode",
    "OverprovisionedMode",
    "HOTMEM",
    "VANILLA",
    "OVERPROVISIONED",
]


class HotMemMode(DeploymentBackend):
    """HotMem-aware virtio-mem: partitions, fast unplug."""

    name = "hotmem"
    elastic = True
    reclaim_credit = 0.75
    uses_hotmem = True
    fault_sites = DATAPATH_SITES
    cpu_labels = (VIRTIO_MEM_LABEL,)
    reclaim_granularity_bytes = MEMORY_BLOCK_SIZE
    reclaim_semantics = (
        "partition-at-a-time unplug: populated partitions recycle in "
        "milliseconds without migration"
    )

    def validate_spec(self, spec: "VmSpec") -> None:
        if spec.partition_bytes <= 0 or spec.concurrency <= 0:
            raise ConfigError(
                f"{spec.name}: HOTMEM specs need a partition geometry "
                f"(partition_bytes × concurrency)"
            )

    def hotmem_params_for(self, spec: "VmSpec") -> Optional[HotMemBootParams]:
        return HotMemBootParams(
            partition_bytes=spec.partition_bytes,
            concurrency=spec.concurrency,
            shared_bytes=spec.shared_bytes,
        )

    def validate_vm(self, vm: "VirtualMachine") -> None:
        if not vm.is_hotmem:
            raise ConfigError("HOTMEM mode requires a HotMem VM")

    def build_datapath(self, vm: "VirtualMachine") -> VirtioMemDatapath:
        return VirtioMemDatapath(vm)


class VanillaMode(DeploymentBackend):
    """Stock virtio-mem: scatter allocation, migrating unplug."""

    name = "vanilla"
    elastic = True
    reclaim_credit = 0.25
    fault_sites = DATAPATH_SITES
    cpu_labels = (VIRTIO_MEM_LABEL,)
    reclaim_granularity_bytes = MEMORY_BLOCK_SIZE
    reclaim_semantics = (
        "per-block unplug through the stock driver: offline + migrate, "
        "slow and migration-limited"
    )

    def build_datapath(self, vm: "VirtualMachine") -> VirtioMemDatapath:
        return VirtioMemDatapath(vm)


class OverprovisionedMode(DeploymentBackend):
    """Statically over-provisioned VM: max memory at boot, never resized."""

    name = "overprovisioned"
    elastic = False
    reclaim_credit = 0.0
    cpu_labels = (VIRTIO_MEM_LABEL,)
    reclaim_semantics = (
        "never reclaims: the whole region is plugged at boot and the "
        "host backs it for the VM's lifetime"
    )

    def build_datapath(self, vm: "VirtualMachine") -> VirtioMemDatapath:
        return VirtioMemDatapath(vm)

    def prepare_vm(self, vm: "VirtualMachine") -> None:
        vm.plug_all_at_boot()


HOTMEM = register_mode(HotMemMode())
VANILLA = register_mode(VanillaMode())
OVERPROVISIONED = register_mode(OverprovisionedMode())
