#!/usr/bin/env python3
"""Quickstart: the HotMem mechanism end to end in ~60 lines.

Builds one HotMem microVM and one vanilla microVM, runs the same
workload in both (allocate → exit → reclaim), and prints the unplug
latency gap — the paper's headline result, at toy scale.

Run:  python examples/quickstart.py
"""

from repro import Fleet, Simulator, VmSpec
from repro.modes import HOTMEM
from repro.units import MIB, format_bytes, format_ns
from repro.workloads import Memhog


def run_one(mode: str) -> tuple[int, int]:
    """Plug 3 GiB, host eight 384 MiB instances, recycle two, reclaim."""
    sim = Simulator()
    fleet = Fleet(sim)

    if mode == "hotmem":
        # The spec a serverless runtime would declare (Section 4.1):
        # per-instance partition size, concurrency factor N, shared size.
        spec = VmSpec.for_function(
            mode,
            HOTMEM,
            memory_limit_bytes=384 * MIB,
            concurrency=8,
        )
    else:
        spec = VmSpec(mode, region_bytes=8 * 384 * MIB)
    vm = fleet.provision(spec).vm

    # Scale the VM up (the runtime plugs memory for the instances).
    plug = vm.request_plug(8 * 384 * MIB)
    sim.run()
    print(f"[{mode}] plugged {format_bytes(plug.value.plugged_bytes)} "
          f"in {format_ns(plug.value.latency_ns)}")

    # Eight "function instances" fault in ~320 MiB each.
    instances = [
        Memhog(vm, 320 * MIB, vcpu_index=i % 10,
               use_hotmem=(mode == "hotmem"), name=f"fn-{i}")
        for i in range(8)
    ]
    for instance in instances:
        instance.materialize()

    # Two instances are recycled; the runtime shrinks the VM by 768 MiB.
    for instance in instances[-2:]:
        instance.release()
    unplug = vm.request_unplug(2 * 384 * MIB)
    sim.run()
    result = unplug.value
    print(f"[{mode}] reclaimed {format_bytes(result.unplugged_bytes)} "
          f"in {format_ns(result.latency_ns)} "
          f"(migrated {result.migrated_pages} pages)")
    vm.check_consistency()
    return result.latency_ns, result.migrated_pages


def main() -> None:
    vanilla_ns, vanilla_migrated = run_one("vanilla")
    hotmem_ns, hotmem_migrated = run_one("hotmem")
    print()
    print(f"vanilla migrated {vanilla_migrated} pages, "
          f"HotMem migrated {hotmem_migrated};")
    print(f"HotMem reclaimed the same memory "
          f"{vanilla_ns / hotmem_ns:.1f}x faster.")


if __name__ == "__main__":
    main()
