"""Batched unplug over HotMem partitions (contiguity with gaps)."""

import pytest

from repro.cluster.provision import VmSpec
from repro.modes import HOTMEM
from repro.units import MIB


@pytest.fixture
def vm(fleet):
    return fleet.provision(
        VmSpec(
            "batched",
            mode=HOTMEM,
            partition_bytes=384 * MIB,
            concurrency=4,
            batch_unplug=True,
        )
    ).vm


def test_adjacent_free_partitions_unplug_as_one_run(sim, vm):
    vm.request_plug(4 * 384 * MIB)
    sim.run()
    # All four partitions are free and physically contiguous.
    process = vm.request_unplug(4 * 384 * MIB)
    sim.run()
    event = vm.tracer.unplug_events()[0]
    assert event.completed_bytes == 4 * 384 * MIB
    # One contiguous run: far cheaper than 12 per-block operations.
    assert process.value.latency_ns < 12 * (
        vm.costs.offline_block_base_ns + vm.costs.hot_remove_block_ns
    )
    vm.check_consistency()


def test_gap_from_busy_partition_splits_the_runs(sim, vm):
    vm.request_plug(4 * 384 * MIB)
    sim.run()
    # Occupy partition 1, leaving free partitions 0 and 2-3 (a gap).
    mms = []
    for _ in range(2):
        mm = vm.new_process("fn")
        vm.hotmem.try_attach(mm)
        mms.append(mm)
    # mms took partitions 0 and 1; free ones are 2,3 (contiguous).
    vm.exit_process(mms[0])  # partition 0 free again → runs {0} and {2,3}
    process = vm.request_unplug(3 * 384 * MIB)
    sim.run()
    assert process.value.unplugged_bytes == 3 * 384 * MIB
    assert process.value.migrated_pages == 0
    vm.check_consistency()
    # The busy partition is untouched.
    assert mms[1].hotmem_partition.is_fully_populated
