#!/usr/bin/env python3
"""Walk the HotMem partition state machine by hand.

Follows one partition through its whole life — EMPTY → plug → POPULATED
→ attach → ASSIGNED → fork → exit → POPULATED (instant reuse) → unplug →
EMPTY — printing the kernel-visible state at every step.  This is the
Section 4 mechanism at its smallest.

Run:  python examples/partition_lifecycle.py
"""

from repro import Fleet, Simulator, VirtualMachine, VmSpec
from repro.modes import HOTMEM
from repro.units import MIB, format_bytes, format_ns


def show(step: str, vm: VirtualMachine) -> None:
    parts = " ".join(
        f"[{p.partition_id}:{p.state.value}:{p.partition_users}u]"
        for p in vm.hotmem.partitions
    )
    print(f"{step:<42} plugged={format_bytes(vm.device.plugged_bytes):>7}  {parts}")


def main() -> None:
    sim = Simulator()
    spec = VmSpec.for_function(
        "lifecycle",
        HOTMEM,
        memory_limit_bytes=384 * MIB,
        concurrency=3,
        shared_bytes=128 * MIB,
    )
    vm = Fleet(sim).provision(spec).vm
    show("boot (shared partition pre-populated)", vm)

    # Scale-up: plug one instance's worth; partition 0 gets populated.
    plug = vm.request_plug(spec.partition_bytes)
    sim.run()
    show(f"plug 384MiB ({format_ns(plug.value.latency_ns)})", vm)

    # The instance attaches (the HotMem syscall) and faults its memory in.
    leader = vm.new_process("instance-leader")
    partition = vm.hotmem.try_attach(leader)
    vm.fault_handler.fault_anon(leader, 70_000)  # ~273 MiB
    show(f"attach + fault 273MiB into partition {partition.partition_id}", vm)

    # clone(): a worker process joins the same partition.
    worker = vm.new_process("instance-worker")
    vm.hotmem.fork(leader, worker)
    vm.fault_handler.fault_anon(worker, 10_000)
    show("fork worker (refcount 2, same partition)", vm)

    # Exit: worker first, then the leader releases the partition.
    vm.exit_process(worker)
    show("worker exits (refcount 1)", vm)
    vm.exit_process(leader)
    show("leader exits (partition free, still populated)", vm)

    # Instant reuse: the next instance attaches with zero plug work.
    second = vm.new_process("second-instance")
    vm.hotmem.try_attach(second)
    show("next instance attaches (no plug needed)", vm)
    vm.exit_process(second)

    # Scale-down: the runtime reclaims the partition — zero migrations.
    unplug = vm.request_unplug(spec.partition_bytes)
    sim.run()
    result = unplug.value
    show(
        f"unplug 384MiB ({format_ns(result.latency_ns)}, "
        f"{result.migrated_pages} migrations)",
        vm,
    )
    vm.check_consistency()
    print("\nThe partition went EMPTY → POPULATED → ASSIGNED → POPULATED →")
    print("ASSIGNED → POPULATED → EMPTY; reclaiming it never migrated a page.")


if __name__ == "__main__":
    main()
