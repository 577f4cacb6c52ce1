"""Ablations beyond the paper's figures (DESIGN.md A1-A4 and A6).

These isolate the design choices the paper's analysis attributes the
vanilla pathologies to: allocator placement (interleaving), zeroing
mode, unplug block selection, and the HotMem concurrency factor.  A6
measures the paper's batched-unplug future work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.microbench import MicrobenchRig, MicrobenchSetup
from repro.experiments.serverless import (
    FunctionLoad,
    ServerlessScenario,
    run_scenario,
)
from repro.metrics.report import render_table
from repro.modes import HOTMEM
from repro.sim.costs import DEFAULT_COSTS, CostModel, ZeroingMode
from repro.sweep import Cell, SweepGrid, register_experiment, run_sweep
from repro.units import GIB, MIB

__all__ = [
    "run_placement_ablation",
    "run_zeroing_ablation",
    "run_selection_ablation",
    "run_concurrency_ablation",
    "AblationResult",
]


@dataclass
class AblationResult:
    """A generic keyed-measurement result with a rendered table."""

    title: str
    headers: Tuple[str, ...]
    rows_data: List[List[object]] = field(default_factory=list)
    values: Dict[str, float] = field(default_factory=dict)

    def rows(self) -> List[List[object]]:
        return self.rows_data

    def render(self) -> str:
        return render_table(self.title, list(self.headers), self.rows_data)


def run_placement_ablation(
    total_bytes: int = 4608 * MIB,
    reclaim_bytes: int = 1536 * MIB,
    costs: CostModel = DEFAULT_COSTS,
) -> AblationResult:
    """A1: how allocator placement drives vanilla unplug cost.

    ``sequential`` is the best case (footprints never interleave, like
    HotMem achieves by construction); ``scatter`` models Linux free-list
    mixing; ``random`` is the worst case.
    """
    result = AblationResult(
        title="A1: vanilla unplug latency vs allocator placement policy",
        headers=("placement", "latency_ms", "migrated_pages"),
    )
    grid = SweepGrid("a1").axis(
        "placement", ("sequential", "scatter", "random")
    )
    config = (total_bytes, reclaim_bytes, costs)
    for cell_result in run_sweep(grid, _placement_cell, config):
        placement = cell_result["placement"]
        latency_ms, migrated = cell_result.payload
        result.rows_data.append([placement, latency_ms, migrated])
        result.values[placement] = latency_ms
    return result


def _placement_cell(config, cell: Cell) -> Tuple[float, int]:
    total_bytes, reclaim_bytes, costs = config
    rig = MicrobenchRig(
        MicrobenchSetup(
            mode="vanilla",
            total_bytes=total_bytes,
            partition_bytes=384 * MIB,
            placement=cell["placement"],
            costs=costs,
        )
    )
    measurement = rig.run_single_reclaim(reclaim_bytes)
    return measurement.latency_ms, measurement.migrated_pages


def run_zeroing_ablation(
    total_bytes: int = 3 * GIB,
    reclaim_bytes: int = 768 * MIB,
) -> AblationResult:
    """A2: plug/unplug cost under the three zeroing modes.

    ``init_on_alloc`` penalizes vanilla unplug (migration targets are
    zeroed); ``init_on_free`` penalizes vanilla plug (pages zeroed before
    onlining).  HotMem skips both because the host provides and re-zeroes
    the memory (Section 4).
    """
    result = AblationResult(
        title="A2: (un)plug latency vs zeroing mode",
        headers=(
            "zeroing",
            "mode",
            "plug_ms_per_gib",
            "unplug_ms",
            "zeroed_pages",
        ),
    )
    grid = (
        SweepGrid("a2")
        .axis("zeroing", ZeroingMode.ALL)
        .axis("mode", ("vanilla", "hotmem"))
    )
    config = (total_bytes, reclaim_bytes)
    for cell_result in run_sweep(grid, _zeroing_cell, config):
        zeroing, mode = cell_result["zeroing"], cell_result["mode"]
        plug_ms_per_gib, unplug_ms, zeroed_pages = cell_result.payload
        result.rows_data.append(
            [zeroing, mode, plug_ms_per_gib, unplug_ms, zeroed_pages]
        )
        result.values[f"{zeroing}/{mode}/plug"] = plug_ms_per_gib
        result.values[f"{zeroing}/{mode}/unplug"] = unplug_ms
    return result


def _zeroing_cell(config, cell: Cell) -> Tuple[float, float, int]:
    total_bytes, reclaim_bytes = config
    rig = MicrobenchRig(
        MicrobenchSetup(
            mode=cell["mode"],
            total_bytes=total_bytes,
            partition_bytes=384 * MIB,
            costs=DEFAULT_COSTS.replace(zeroing_mode=cell["zeroing"]),
        )
    )

    def scenario():
        plug = yield from rig.plug_all()
        hogs = yield from rig.start_memhogs()
        yield from rig.stop_memhogs(hogs[-2:])
        unplug = yield from rig.measure_reclaim(reclaim_bytes)
        yield from rig.stop_all()
        return plug, unplug

    plug, unplug = rig.sim.run_process(scenario(), name="a2")
    plug_ms_per_gib = plug.latency_ns / 1e6 / (total_bytes / GIB)
    return plug_ms_per_gib, unplug.latency_ms, plug.zeroed_pages


def run_selection_ablation(
    total_bytes: int = 4608 * MIB,
    reclaim_bytes: int = 1152 * MIB,
) -> AblationResult:
    """A3: vanilla unplug block selection — linear scan vs emptiest-first.

    Crossed with the allocator placement policy, because the two interact:
    under sequential placement, freed slots leave whole blocks empty and
    an emptiest-first scan finds them (approaching HotMem for free); under
    scatter placement every block is equally occupied, so *no* selection
    policy can avoid migrations — the fix has to be allocation-side, which
    is exactly HotMem's thesis (Section 3).
    """
    result = AblationResult(
        title="A3: vanilla unplug latency vs block-selection policy",
        headers=("placement", "selection", "latency_ms", "migrated_pages"),
    )
    grid = (
        SweepGrid("a3")
        .axis("placement", ("scatter", "sequential"))
        .axis("selection", ("linear", "emptiest_first"))
    )
    config = (total_bytes, reclaim_bytes)
    for cell_result in run_sweep(grid, _selection_cell, config):
        placement = cell_result["placement"]
        selection = cell_result["selection"]
        latency_ms, migrated = cell_result.payload
        result.rows_data.append([placement, selection, latency_ms, migrated])
        result.values[f"{placement}/{selection}"] = latency_ms
    return result


def _selection_cell(config, cell: Cell) -> Tuple[float, int]:
    total_bytes, reclaim_bytes = config
    rig = MicrobenchRig(
        MicrobenchSetup(
            mode="vanilla",
            total_bytes=total_bytes,
            partition_bytes=384 * MIB,
            placement=cell["placement"],
            unplug_selection=cell["selection"],
        )
    )
    measurement = rig.run_single_reclaim(reclaim_bytes)
    return measurement.latency_ms, measurement.migrated_pages


def run_batching_ablation(
    partition_bytes: int = 384 * MIB,
    total_slots: int = 12,
    reclaim_slots: Tuple[int, ...] = (1, 2, 4, 8),
    costs: CostModel = DEFAULT_COSTS,
) -> AblationResult:
    """A6: batched unplug — the paper's named future work (Section 6.1.1).

    The paper observes that unplug latency grows with request size
    because every 128 MiB block pays fixed offline/remove/madvise costs,
    and names handling requests at larger granularities as future work.
    This ablation implements it: HotMem's free partitions form contiguous
    block runs, so the driver can offline each run in one operation.
    """
    result = AblationResult(
        title="A6: HotMem unplug latency, per-block vs batched runs",
        headers=("reclaim", "per_block_ms", "batched_ms", "speedup"),
    )
    grid = (
        SweepGrid("a6")
        .axis("slots", reclaim_slots)
        .axis("batched", (False, True))
    )
    config = (partition_bytes, total_slots, costs)
    latencies: Dict[Tuple[int, bool], float] = {}
    for cell_result in run_sweep(grid, _batching_cell, config):
        key = (cell_result["slots"], cell_result["batched"])
        latencies[key] = cell_result.payload
    for slots in reclaim_slots:
        label = f"{slots}x{partition_bytes // MIB}MiB"
        per_block = latencies[(slots, False)]
        batched = latencies[(slots, True)]
        speedup = per_block / batched
        result.rows_data.append(
            [label, per_block, batched, f"{speedup:.1f}x"]
        )
        result.values[f"{slots}/per_block"] = per_block
        result.values[f"{slots}/batched"] = batched
    return result


def _batching_cell(config, cell: Cell) -> float:
    partition_bytes, total_slots, costs = config
    rig = MicrobenchRig(
        MicrobenchSetup(
            mode="hotmem",
            total_bytes=total_slots * partition_bytes,
            partition_bytes=partition_bytes,
            costs=costs,
            batch_unplug=cell["batched"],
        )
    )
    measurement = rig.run_single_reclaim(cell["slots"] * partition_bytes)
    return measurement.latency_ms


def run_concurrency_ablation(
    concurrencies: Tuple[int, ...] = (5, 10, 20),
    duration_s: int = 120,
) -> AblationResult:
    """A4: HotMem reclaim throughput vs the concurrency factor N.

    More partitions mean more instances scale up and down per trace, so
    more memory moves through plug/unplug; throughput should stay high
    across N (reclamation cost is per-block, not per-byte-searched).
    """
    result = AblationResult(
        title="A4: HotMem behaviour vs concurrency factor N",
        headers=("N", "reclaim_mib_s", "cold_starts", "oom_failures"),
    )
    grid = SweepGrid("a4").axis("n", concurrencies)
    for cell_result in run_sweep(grid, _concurrency_cell, duration_s):
        n = cell_result["n"]
        mib_per_s, cold_starts, oom_failures = cell_result.payload
        result.rows_data.append([n, mib_per_s, cold_starts, oom_failures])
        result.values[str(n)] = mib_per_s
    return result


def _concurrency_cell(duration_s: int, cell: Cell) -> Tuple[float, int, int]:
    scenario = ServerlessScenario(
        mode=HOTMEM,
        loads=(
            FunctionLoad.for_function("html", max_instances=cell["n"]),
        ),
        duration_s=duration_s,
        keep_alive_s=20,
        recycle_interval_s=10,
    )
    run_result = run_scenario(scenario)
    return (
        run_result.reclaim_mib_per_s,
        run_result.cold_starts["html"],
        run_result.oom_failures,
    )


def _render_all(
    paper_scale: bool, modes: Optional[Tuple[str, ...]]
) -> str:
    del paper_scale, modes
    return "\n\n".join(
        [
            run_placement_ablation().render(),
            run_zeroing_ablation().render(),
            run_selection_ablation().render(),
            run_concurrency_ablation().render(),
            run_batching_ablation().render(),
        ]
    )


register_experiment(
    "ablations",
    "A1-A4 design-choice ablations and A6 batched unplug",
    render=_render_all,
)
