"""Figure 2, quantified: footprint interleaving after a process exits.

The paper's Figure 2 is a concept diagram — three processes' footprints
interleave across memory blocks, so when F2 exits almost no block
becomes fully free and reclaiming its memory requires migrations.  This
experiment turns the diagram into numbers: N instances allocate inside
one guest, one exits, and we measure how many blocks are now completely
free, how many owners share each block, and how many pages would have to
migrate to reclaim the exited instance's worth of memory — for each
allocator placement policy and for HotMem partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.config import HotMemBootParams
from repro.core.manager import HotMemManager
from repro.metrics.fragmentation import (
    FragmentationReport,
    fragmentation_report,
    migration_cost_to_reclaim,
)
from repro.metrics.report import render_table
from repro.mm.fault import FaultHandler
from repro.mm.manager import GuestMemoryManager
from repro.mm.mm_struct import MmStruct
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.engine import Simulator
from repro.sweep import Cell, SweepGrid, register_experiment, run_sweep
from repro.units import GIB, MEMORY_BLOCK_SIZE, MIB, bytes_to_blocks, bytes_to_pages

__all__ = ["Fig2Config", "Fig2Result", "run"]

VARIANTS = ("scatter", "random", "sequential", "hotmem")


@dataclass(frozen=True)
class Fig2Config:
    """N same-sized instances; the last one spawned exits."""

    instances: int = 8
    instance_bytes: int = 300 * MIB
    slot_bytes: int = 384 * MIB  # block-rounded limit (the partition size)
    seed: int = 0


@dataclass
class Fig2Result:
    """Interleaving metrics per allocator variant."""

    config: Fig2Config
    reports: Dict[str, FragmentationReport] = field(default_factory=dict)
    #: Pages that must migrate to reclaim one slot's worth of blocks.
    migration_pages: Dict[str, int] = field(default_factory=dict)

    def rows(self) -> List[List[object]]:
        out: List[List[object]] = []
        for variant in VARIANTS:
            report = self.reports[variant]
            out.append(
                [
                    variant,
                    f"{report.fully_free_blocks}/{report.total_blocks}",
                    report.mean_owners_per_block,
                    report.max_owners_per_block,
                    f"{report.mean_occupancy:.0%}",
                    self.migration_pages[variant],
                ]
            )
        return out

    def render(self) -> str:
        return render_table(
            "Figure 2 quantified: blocks after one of "
            f"{self.config.instances} instances exits",
            [
                "allocator",
                "free_blocks",
                "avg_owners",
                "max_owners",
                "occupancy",
                "pages_to_migrate",
            ],
            self.rows(),
        )


def _cell(config: Fig2Config, cell: Cell):
    """One allocator variant's exit scenario in a fresh guest."""
    variant = cell["variant"]
    slot_blocks = bytes_to_blocks(config.slot_bytes)
    total_bytes = config.instances * slot_blocks * MEMORY_BLOCK_SIZE
    pages = bytes_to_pages(config.instance_bytes)

    placement = "scatter" if variant == "hotmem" else variant
    manager = GuestMemoryManager(
        1 * GIB, total_bytes, placement=placement
    )
    handler = FaultHandler(manager, DEFAULT_COSTS)
    hotmem = None
    if variant == "hotmem":
        hotmem = HotMemManager(
            Simulator(),
            manager,
            HotMemBootParams(
                partition_bytes=slot_blocks * MEMORY_BLOCK_SIZE,
                concurrency=config.instances,
                shared_bytes=0,
            ),
        )
        free = list(manager.hotplug_block_indices())
        cursor = 0
        for partition in hotmem.partitions:
            for _ in range(partition.size_blocks):
                manager.online_block(free[cursor], partition.zone)
                cursor += 1
    else:
        for index in manager.hotplug_block_indices():
            manager.online_block(index, manager.zone_movable)

    instances = []
    for i in range(config.instances):
        mm = MmStruct(f"fn{i}")
        if hotmem is not None:
            hotmem.try_attach(mm)
        handler.fault_anon(mm, pages)
        instances.append(mm)
    # The last instance exits (the paper's F2).
    exiting = instances[-1]
    if hotmem is not None:
        hotmem.process_exit(handler, exiting)
    else:
        handler.release_address_space(exiting)

    if hotmem is not None:
        blocks = [
            b for p in hotmem.partitions for b in p.zone.blocks
        ]
        # Reclaiming a free partition migrates nothing by construction.
        migration_pages = 0
    else:
        blocks = list(manager.zone_movable.blocks)
        migration_pages = migration_cost_to_reclaim(manager, slot_blocks)
    return fragmentation_report(blocks), migration_pages


def _grid(config: Fig2Config) -> SweepGrid:
    del config
    return SweepGrid("fig2").axis("variant", VARIANTS)


def run(config: Fig2Config = Fig2Config()) -> Fig2Result:
    """Reproduce the Figure 2 scenario under every allocator variant."""
    result = Fig2Result(config)
    for cell_result in run_sweep(_grid(config), _cell, config):
        report, migration_pages = cell_result.payload
        result.reports[cell_result["variant"]] = report
        result.migration_pages[cell_result["variant"]] = migration_pages
    return result


register_experiment(
    "fig2",
    "Figure 2 quantified: interleaving after an instance exits",
    config=Fig2Config,
    run=run,
)
