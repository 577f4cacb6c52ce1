"""Property-based full-stack fuzzing of a VM.

Random interleavings of resize requests and guest workload activity must
always leave the VM consistent: device/guest block-state agreement,
zone counters, owner mirrors, host memory accounting, and — for HotMem —
partition refcounts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.provision import Fleet, VmSpec
from repro.errors import NoFreePartition, OutOfMemory
from repro.modes import HOTMEM
from repro.sim import Simulator
from repro.units import MIB

SLOT = 384 * MIB
SLOTS = 6

operations = st.lists(
    st.one_of(
        st.tuples(st.just("plug"), st.integers(1, 3)),
        st.tuples(st.just("unplug"), st.integers(1, 4)),
        st.tuples(st.just("spawn"), st.integers(0, 5)),
        st.tuples(st.just("exit"), st.integers(0, 5)),
        st.tuples(st.just("fault"), st.integers(0, 5)),
    ),
    min_size=1,
    max_size=40,
)


def drive(mode: str, ops) -> None:
    sim = Simulator()
    fleet = Fleet(sim)
    if mode == "hotmem":
        spec = VmSpec(
            mode,
            mode=HOTMEM,
            partition_bytes=SLOT,
            concurrency=SLOTS,
        )
    else:
        spec = VmSpec(mode, region_bytes=SLOTS * SLOT)
    vm = fleet.provision(spec).vm
    slots = {i: None for i in range(6)}
    for op, arg in ops:
        if op == "plug":
            want = arg * SLOT
            free_region = SLOTS * SLOT - vm.device.plugged_bytes
            if mode == "hotmem":
                # HotMem plugs may not exceed empty-partition capacity.
                capacity = sum(
                    p.missing_blocks
                    for p in vm.hotmem.partitions_needing_population()
                ) * 128 * MIB
                want = min(want, capacity)
            want = min(want, free_region)
            if want > 0:
                vm.request_plug(want)
                sim.run()
        elif op == "unplug":
            vm.request_unplug(arg * SLOT)
            sim.run()
        elif op == "spawn":
            if slots[arg] is None:
                mm = vm.new_process(f"p{arg}")
                if mode == "hotmem":
                    try:
                        vm.hotmem.try_attach(mm)
                    except NoFreePartition:
                        continue
                slots[arg] = mm
        elif op == "exit":
            if slots[arg] is not None:
                vm.exit_process(slots[arg])
                slots[arg] = None
        elif op == "fault":
            mm = slots[arg]
            if mm is not None and mm.alive:
                try:
                    vm.fault_handler.fault_anon(mm, 20_000)
                except OutOfMemory:
                    if mm.hotmem_partition is not None or mm.total_pages:
                        vm.exit_process(mm)
                    slots[arg] = None
        # Invariants must hold after every operation.
        vm.check_consistency()
        assert 0 <= vm.device.plugged_bytes <= SLOTS * SLOT
    # Drain and final check.
    sim.run()
    vm.check_consistency()
    if mode == "hotmem":
        linked = sum(1 for mm in slots.values() if mm is not None)
        assigned = sum(
            1 for p in vm.hotmem.partitions if p.partition_users > 0
        )
        assert assigned == linked


@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_vanilla_vm_random_operations(ops):
    drive("vanilla", ops)


@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_hotmem_vm_random_operations(ops):
    drive("hotmem", ops)
