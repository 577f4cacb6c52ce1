"""Shared harness for the memhog microbenchmarks (Figures 5-7).

Builds a VM (HotMem or vanilla), fills it with a fleet of memhog
processes per Section 5.5 ("allocate almost all the free memory inside
the VM"), then releases chosen amounts and measures the unplug request
exactly as the paper does: hypervisor-side, request received →
``MADV_DONTNEED``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.provision import Fleet, VmSpec
from repro.errors import ConfigError
from repro.modes import get_mode
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.engine import AllOf, Simulator, Timeout
from repro.units import MEMORY_BLOCK_SIZE, MS, bytes_to_blocks, format_bytes
from repro.virtio.driver import VIRTIO_MEM_LABEL
from repro.workloads.memhog import Memhog

__all__ = ["MicrobenchSetup", "ReclaimMeasurement", "MicrobenchRig"]


@dataclass(frozen=True)
class MicrobenchSetup:
    """One microbenchmark configuration.

    The guest is partitioned (conceptually for vanilla, physically for
    HotMem) into ``total_bytes / partition_bytes`` slots, each hosting one
    memhog sized to ``usage_fraction`` of the slot.
    """

    mode: str  # "hotmem" | "vanilla"
    total_bytes: int
    partition_bytes: int
    usage_fraction: float = 0.85
    placement: str = "scatter"
    costs: CostModel = DEFAULT_COSTS
    seed: int = 0
    vcpus: int = 10
    unplug_selection: str = "linear"
    churn_fraction: float = 0.0
    batch_unplug: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("hotmem", "vanilla"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.total_bytes % self.partition_bytes:
            raise ConfigError("total must be a multiple of the partition size")
        if self.partition_bytes % MEMORY_BLOCK_SIZE:
            raise ConfigError("partition size must be whole memory blocks")
        if not 0.0 < self.usage_fraction <= 1.0:
            raise ConfigError(f"usage fraction out of range: {self.usage_fraction}")

    @property
    def slots(self) -> int:
        """Number of memhog slots."""
        return self.total_bytes // self.partition_bytes


@dataclass
class ReclaimMeasurement:
    """What one measured unplug request produced."""

    requested_bytes: int
    reclaimed_bytes: int
    latency_ns: int
    migrated_pages: int
    virtio_cpu_ns: int

    @property
    def latency_ms(self) -> float:
        return self.latency_ns / MS

    @property
    def fully_reclaimed(self) -> bool:
        return self.reclaimed_bytes == self.requested_bytes


class MicrobenchRig:
    """A VM loaded with memhogs, ready for reclaim measurements."""

    def __init__(self, setup: MicrobenchSetup):
        self.setup = setup
        self.mode = get_mode(setup.mode)
        hotmem = self.mode.uses_hotmem
        self.sim = Simulator()
        self.fleet = Fleet(self.sim)
        self.host = self.fleet.hosts[0]
        spec = VmSpec(
            name=f"microbench-{setup.mode}",
            mode=self.mode,
            region_bytes=setup.total_bytes,
            partition_bytes=setup.partition_bytes if hotmem else 0,
            concurrency=setup.slots if hotmem else 0,
            shared_bytes=0,
            vcpus=setup.vcpus,
            placement=setup.placement,
            batch_unplug=setup.batch_unplug,
            unplug_selection=setup.unplug_selection,
            seed=setup.seed,
            costs=setup.costs,
        )
        self.handle = self.fleet.provision(spec)
        self.vm = self.handle.vm
        self.memhogs: List[Memhog] = []

    # ------------------------------------------------------------------
    # Orchestration building blocks (process generators)
    # ------------------------------------------------------------------
    def plug_all(self):
        """Plug the whole device region (populates HotMem partitions)."""
        plug = self.vm.request_plug(self.setup.total_bytes)
        yield plug
        return plug.value

    def start_memhogs(self, count: Optional[int] = None):
        """Start ``count`` memhogs (default: every slot) and await residency."""
        setup = self.setup
        count = setup.slots if count is None else count
        size = int(setup.partition_bytes * setup.usage_fraction)
        for i in range(count):
            hog = Memhog(
                self.vm,
                size,
                vcpu_index=i % setup.vcpus,
                use_hotmem=self.mode.uses_hotmem,
                churn_fraction=setup.churn_fraction,
                name=f"memhog-{i}",
            )
            self.memhogs.append(hog)
            hog.start()
        yield AllOf([hog.ready for hog in self.memhogs[-count:]])
        return self.memhogs[-count:]

    def stop_memhogs(self, hogs: List[Memhog]):
        """Stop the given memhogs and wait until their memory is freed."""
        for hog in hogs:
            hog.stop()
        yield AllOf([hog._process.done_event for hog in hogs])
        return None

    def measure_reclaim(self, size_bytes: int):
        """Issue an unplug of ``size_bytes`` and measure it (Section 5.4)."""
        cpu_before = self.vm.irq_vcpu.busy_ns_for(VIRTIO_MEM_LABEL)
        unplug = self.vm.request_unplug(size_bytes)
        yield unplug
        result = unplug.value
        cpu_after = self.vm.irq_vcpu.busy_ns_for(VIRTIO_MEM_LABEL)
        return ReclaimMeasurement(
            requested_bytes=bytes_to_blocks(size_bytes) * MEMORY_BLOCK_SIZE,
            reclaimed_bytes=result.unplugged_bytes,
            latency_ns=result.latency_ns,
            migrated_pages=result.migrated_pages,
            virtio_cpu_ns=cpu_after - cpu_before,
        )

    def stop_all(self):
        """Stop every remaining memhog (lets the simulation drain)."""
        live = [h for h in self.memhogs if not h.stopped]
        yield from self.stop_memhogs(live)
        return None

    # ------------------------------------------------------------------
    # The standard single-reclaim experiment (Figure 5 inner loop)
    # ------------------------------------------------------------------
    def run_single_reclaim(self, reclaim_bytes: int) -> ReclaimMeasurement:
        """Fill the guest, free ``reclaim_bytes`` worth of slots, unplug.

        Runs the whole scenario on a fresh simulation and returns the
        measurement.
        """
        return self.run_reclaim_after_freeing(reclaim_bytes, reclaim_bytes)

    def run_reclaim_after_freeing(
        self, freed_bytes: int, reclaim_bytes: int
    ) -> ReclaimMeasurement:
        """Free ``freed_bytes`` worth of slots, then request ``reclaim_bytes``.

        ``reclaim_bytes`` larger than ``freed_bytes`` produces the
        over-commit scenario: the unplug goes partial (or migrates hard)
        depending on the mechanism.
        """
        setup = self.setup
        if freed_bytes % setup.partition_bytes:
            raise ConfigError(
                f"freed size {format_bytes(freed_bytes)} must be whole "
                f"slots of {format_bytes(setup.partition_bytes)}"
            )
        holders = freed_bytes // setup.partition_bytes
        if holders > setup.slots:
            raise ConfigError("cannot free more than the configured total")

        def scenario():
            yield from self.plug_all()
            hogs = yield from self.start_memhogs()
            # Let the loaded system settle briefly.
            yield Timeout(200 * MS)
            # Free the holders' memory (LIFO: the most recent slots).
            if holders:
                yield from self.stop_memhogs(hogs[-holders:])
            measurement = yield from self.measure_reclaim(reclaim_bytes)
            yield from self.stop_all()
            return measurement

        return self.sim.run_process(scenario(), name="single-reclaim")
