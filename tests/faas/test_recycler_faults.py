"""Agent resilience: spawn faults, recycler races, deferred reclamation
and graceful degradation (satellite of the fault-injection PR).

The recycler edge cases the issue calls out: an unplug failure mid-
recycle must leave the idle pool and the partition owner-mirror
consistent, and a retried recycle must converge once the fault clears.
"""

import pytest

from repro.core import HotMemBootParams
from repro.faas.agent import Agent, FunctionDeployment
from repro.faas.policy import KeepAlivePolicy
from repro.faults import (
    AGENT_RECYCLE_RACE,
    AGENT_SPAWN_FAIL,
    AGENT_SPAWN_OOM,
    DEVICE_PLUG_NACK,
    DRIVER_MIGRATE_FAIL,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.cluster.provision import VmSpec
from repro.modes import HOTMEM, VANILLA
from repro.sim.engine import Timeout
from repro.units import GIB, MIB, SEC
from repro.workloads.functions import get_function


def make_vm(sim, fleet, specs, hotmem=False, retry=None, seed=0):
    del sim  # the fleet owns the simulator
    plan = FaultPlan(tuple(specs))
    if hotmem:
        params = HotMemBootParams.for_function(
            384 * MIB, concurrency=4, shared_bytes=128 * MIB
        )
        spec = VmSpec(
            "fault-vm",
            mode=HOTMEM,
            partition_bytes=params.partition_bytes,
            concurrency=params.concurrency,
            shared_bytes=params.shared_bytes,
            faults=plan,
            fault_seed=seed,
            retry=retry,
        )
    else:
        spec = VmSpec(
            "fault-vm",
            region_bytes=4 * GIB,
            faults=plan,
            fault_seed=seed,
            retry=retry,
        )
    return fleet.provision(spec).vm


def make_agent(sim, vm, mode, resilience=None, **kw):
    spec = get_function("html")
    policy = KeepAlivePolicy(
        keep_alive_ns=kw.pop("keep_alive_s", 10) * SEC,
        recycle_interval_ns=kw.pop("recycle_s", 5) * SEC,
        spare_slots=kw.pop("spare_slots", 0),
    )
    return Agent(
        sim,
        vm,
        [FunctionDeployment(spec, max_instances=kw.pop("max_instances", 4))],
        policy,
        mode,
        resilience=resilience,
    )


def recycle_after(sim, agent, idle_s):
    def cycle():
        yield Timeout(idle_s * SEC)
        return (yield from agent.recycle_pass())

    evicted = sim.run_process(cycle())
    sim.run()  # drain the fire-and-forget unplug (and deferred retries)
    return evicted


class TestSpawnFaults:
    def test_spawn_failure_fails_the_invocation_then_heals(self, sim, fleet):
        vm = make_vm(sim, fleet, [FaultSpec(AGENT_SPAWN_FAIL, 1.0, max_fires=1)])
        agent = make_agent(sim, vm, VANILLA)
        record = sim.run_process(agent.handle("html", 0))
        assert not record.ok and record.error == "spawn-failed"
        assert agent.live_instances() == 0
        assert vm.faults.unresolved() == []
        assert vm.recovery_log.by_path() == {"invocation-failed": 1}
        retry = sim.run_process(agent.handle("html", sim.now))
        assert retry.ok
        vm.check_consistency()

    def test_spawn_oom_counts_as_oom(self, sim, fleet):
        vm = make_vm(sim, fleet, [FaultSpec(AGENT_SPAWN_OOM, 1.0, max_fires=1)])
        agent = make_agent(sim, vm, VANILLA)
        record = sim.run_process(agent.handle("html", 0))
        assert not record.ok and record.error == "oom"
        assert vm.recovery_log.by_path() == {"oom-failfast": 1}
        assert vm.faults.unresolved() == []


class TestPlugRetry:
    def test_nacked_plug_retried_to_success(self, sim, fleet):
        vm = make_vm(sim, fleet, [FaultSpec(DEVICE_PLUG_NACK, 1.0, max_fires=1)])
        agent = make_agent(
            sim,
            vm,
            VANILLA,
            resilience=ResiliencePolicy(plug_retries=2),
        )
        record = sim.run_process(agent.handle("html", 0))
        assert record.ok
        assert vm.device.plugged_bytes >= 384 * MIB
        assert vm.faults.unresolved() == []
        assert vm.recovery_log.by_path() == {"retried": 1}
        assert not agent.degraded

    def test_persistent_nack_degrades_to_static(self, sim, fleet):
        vm = make_vm(sim, fleet, [FaultSpec(DEVICE_PLUG_NACK, 1.0)], hotmem=True)
        agent = make_agent(
            sim,
            vm,
            HOTMEM,
            resilience=ResiliencePolicy(plug_retries=1, degrade_after=2),
        )
        record = sim.run_process(agent.handle("html", 0))
        # No populated partition exists, so the degraded spawn fails fast
        # instead of parking on the attach waitqueue forever.
        assert not record.ok and record.error == "spawn-failed"
        assert agent.degraded
        assert not agent.elastic
        assert vm.faults.unresolved() == []
        paths = vm.recovery_log.by_path()
        assert paths.get("static-fallback", 0) >= 1
        vm.check_consistency()

    def test_degraded_hotmem_agent_reuses_populated_partitions(self, sim, fleet):
        # First spawn succeeds (fault capped), leaving a populated
        # partition after recycle; once degraded, spawns must still be
        # served from it.
        vm = make_vm(
            sim,
            fleet,
            [FaultSpec(DEVICE_PLUG_NACK, 1.0, max_fires=0)],
            hotmem=True,
        )
        agent = make_agent(sim, vm, HOTMEM, spare_slots=1)
        record = sim.run_process(agent.handle("html", 0))
        assert record.ok
        recycle_after(sim, agent, idle_s=11)
        assert agent.live_instances() == 0
        assert len(vm.hotmem.populated_unassigned()) == 1
        agent.degraded = True  # simulate an earlier backend outage
        again = sim.run_process(agent.handle("html", sim.now))
        assert again.ok
        vm.check_consistency()


class TestRecyclerFaults:
    def failing_unplug_vm(self, sim, fleet, max_fires=0):
        return make_vm(
            sim,
            fleet,
            [FaultSpec(DRIVER_MIGRATE_FAIL, 1.0, max_fires=max_fires or None)],
            hotmem=True,
        )

    def test_unplug_failure_mid_recycle_keeps_state_consistent(self, sim, fleet):
        vm = self.failing_unplug_vm(sim, fleet)
        agent = make_agent(sim, vm, HOTMEM)
        record = sim.run_process(agent.handle("html", 0))
        assert record.ok
        plugged_before = vm.device.plugged_bytes
        evicted = recycle_after(sim, agent, idle_s=11)
        assert evicted == 1
        # The unplug failed wholesale: memory still plugged, instance gone.
        assert vm.device.plugged_bytes == plugged_before
        assert agent.live_instances() == 0
        assert agent.idle_instances("html") == 0
        # Partition owner-mirror and zone accounting survive the failure.
        vm.check_consistency()
        assert len(vm.hotmem.populated_unassigned()) == 1
        assert vm.faults.unresolved() == []
        # A follow-up spawn reuses the still-populated partition instead
        # of plugging more memory on top of the unreclaimed excess.
        again = sim.run_process(agent.handle("html", sim.now))
        assert again.ok
        assert vm.device.plugged_bytes == plugged_before
        vm.check_consistency()

    def test_retried_recycle_converges_once_fault_clears(self, sim, fleet):
        vm = make_vm(
            sim,
            fleet,
            [FaultSpec(DRIVER_MIGRATE_FAIL, 1.0, max_fires=1)],
            hotmem=True,
        )
        agent = make_agent(
            sim,
            vm,
            HOTMEM,
            resilience=ResiliencePolicy(deferred_attempts=3),
        )
        shared = vm.hotmem.params.shared_bytes
        record = sim.run_process(agent.handle("html", 0))
        assert record.ok
        recycle_after(sim, agent, idle_s=11)
        # The first unplug lost one block to the fault; the deferred
        # retry reclaimed it after the backoff.
        assert vm.device.plugged_bytes == shared
        paths = vm.recovery_log.by_path()
        assert paths.get("deferred") == 1
        assert paths.get("deferred-done") == 1
        assert agent.deferred_reclaims() == 0
        assert vm.faults.unresolved() == []
        vm.check_consistency()

    def test_shortfall_dropped_at_deferred_cap(self, sim, fleet):
        vm = self.failing_unplug_vm(sim, fleet)  # never clears
        agent = make_agent(
            sim,
            vm,
            HOTMEM,
            resilience=ResiliencePolicy(deferred_attempts=2),
        )
        sim.run_process(agent.handle("html", 0))
        recycle_after(sim, agent, idle_s=11)
        paths = vm.recovery_log.by_path()
        assert paths.get("dropped") == 1
        assert paths.get("deferred") == 2
        assert agent.deferred_reclaims() == 0
        assert vm.faults.unresolved() == []
        vm.check_consistency()

    def test_recycle_race_serialized(self, sim, fleet):
        vm = make_vm(
            sim,
            fleet,
            [FaultSpec(AGENT_RECYCLE_RACE, 1.0, max_fires=1)],
            hotmem=True,
        )
        agent = make_agent(
            sim, vm, HOTMEM, keep_alive_s=5, recycle_s=3,
            max_instances=2,
        )
        sim.run_process(agent.handle("html", 0))
        sim.run_process(agent.handle("html", sim.now))

        def staggered():
            # First recycle starts an unplug; a second pass while it is
            # in flight gives the race site its opportunity.
            yield Timeout(6 * SEC)
            yield from agent.recycle_pass()
            yield from agent.recycle_pass()

        sim.run_process(staggered())
        sim.run()
        assert vm.faults.unresolved() == []
        if vm.faults.count(AGENT_RECYCLE_RACE):
            assert vm.recovery_log.by_path().get("serialized") == 1
        # Over-requested unplugs were clamped by the device: never
        # negative, and the deficit guard heals the next spawn.
        assert vm.device.plugged_bytes >= vm.hotmem.params.shared_bytes
        vm.check_consistency()
