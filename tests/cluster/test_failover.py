"""Fleet failure recovery: breakers, watchdog, failover, evacuation."""

import pytest

from repro.cluster.failover import (
    BreakerPolicy,
    CircuitBreaker,
    FailoverCoordinator,
    FailoverPolicy,
    Watchdog,
)
from repro.cluster.provision import Fleet, VmSpec
from repro.cluster.routing import TraceRouter
from repro.errors import ConfigError
from repro.faas.agent import FunctionDeployment
from repro.faas.policy import KeepAlivePolicy
from repro.faults.domains import domain_plan
from repro.faults.injector import FaultInjector, FaultPlan, FaultSpec
from repro.faults.policy import RetryBudget
from repro.faults.sites import HOST_CRASH, VM_OOM_KILL
from repro.modes import VANILLA
from repro.units import MS, SEC
from repro.workloads.functions import get_function
from repro.workloads.traces import InvocationTrace


def deploy_vm(fleet, name, function="html", max_instances=2):
    spec = get_function(function)
    handle = fleet.provision(
        VmSpec.for_function(
            name,
            VANILLA,
            spec.memory_limit_bytes,
            concurrency=max_instances,
        )
    )
    handle.deploy(
        [FunctionDeployment(spec, max_instances=max_instances)],
        KeepAlivePolicy(keep_alive_ns=30 * SEC, recycle_interval_ns=1 * SEC),
    )
    return handle


class TestBreakerPolicy:
    def test_rejects_non_positive_knobs(self):
        with pytest.raises(ConfigError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ConfigError):
            BreakerPolicy(reset_timeout_ns=0)
        with pytest.raises(ConfigError):
            BreakerPolicy(half_open_probes=0)


class TestCircuitBreaker:
    def make(self, threshold=3, reset_ns=500 * MS, probes=1):
        return CircuitBreaker(
            "vm-a",
            BreakerPolicy(
                failure_threshold=threshold,
                reset_timeout_ns=reset_ns,
                half_open_probes=probes,
            ),
        )

    def test_trips_open_at_the_failure_threshold(self):
        breaker = self.make(threshold=3)
        assert breaker.record_failure(now=1) is None
        assert breaker.record_failure(now=2) is None
        transition = breaker.record_failure(now=3)
        assert transition is not None
        assert (transition.from_state, transition.to_state) == ("closed", "open")
        assert transition.consecutive_failures == 3
        assert breaker.state == "open"
        assert not breaker.allows()

    def test_success_resets_the_consecutive_count(self):
        breaker = self.make(threshold=2)
        assert breaker.record_failure(now=1) is None
        assert breaker.record_success(now=2) is None
        assert breaker.record_failure(now=3) is None  # count restarted
        assert breaker.state == "closed"

    def test_poll_moves_open_to_half_open_after_the_reset_timeout(self):
        breaker = self.make(threshold=1, reset_ns=100)
        assert breaker.record_failure(now=0) is not None
        assert breaker.poll(now=50) is None  # still dwelling
        transition = breaker.poll(now=100)
        assert transition is not None
        assert (transition.from_state, transition.to_state) == (
            "open",
            "half-open",
        )
        assert breaker.allows()

    def test_half_open_probe_success_closes(self):
        breaker = self.make(threshold=1, reset_ns=100)
        breaker.record_failure(now=0)
        breaker.poll(now=100)
        breaker.on_dispatch()
        transition = breaker.record_success(now=150)
        assert transition is not None
        assert transition.to_state == "closed"
        assert breaker.allows()

    def test_half_open_probe_failure_reopens(self):
        breaker = self.make(threshold=1, reset_ns=100)
        breaker.record_failure(now=0)
        breaker.poll(now=100)
        breaker.on_dispatch()
        transition = breaker.record_failure(now=150)
        assert transition is not None
        assert transition.to_state == "open"
        # The new dwell restarts from the reopen time.
        assert breaker.poll(now=200) is None
        assert breaker.poll(now=250) is not None

    def test_half_open_admits_a_bounded_number_of_probes(self):
        breaker = self.make(threshold=1, reset_ns=100, probes=2)
        breaker.record_failure(now=0)
        breaker.poll(now=100)
        assert breaker.allows()
        breaker.on_dispatch()
        assert breaker.allows()
        breaker.on_dispatch()
        assert not breaker.allows()  # both probes in flight


class TestFailoverPolicy:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigError):
            FailoverPolicy(evacuation_coldstart_ns=0)
        with pytest.raises(ConfigError):
            FailoverPolicy(spike_fraction=1.5)


class TestDeadlineShedding:
    def test_queued_past_deadline_sheds_as_structured_rejection(
        self, sim, fleet
    ):
        router = TraceRouter(
            sim,
            policy="least-loaded",
            max_queue_per_vm=4,
            budget=RetryBudget(deadline_ns=1 * MS),
        )
        router.register(deploy_vm(fleet, "vm-a", max_instances=1))
        # Two simultaneous arrivals against one instance: the second
        # queues past its 1 ms deadline while the first is served.
        router.drive(InvocationTrace("html", [0, 0]))
        router.run(until_ns=30 * SEC)
        deadline = [r for r in router.rejections if r.reason == "deadline"]
        assert len(deadline) == 1
        shed = [r for r in router.records if r.error == "deadline"]
        assert len(shed) == 1 and not shed[0].ok
        assert len(router.successful_records()) == 1

    def test_no_deadline_means_the_queue_waits(self, sim, fleet):
        router = TraceRouter(sim, policy="least-loaded", max_queue_per_vm=4)
        router.register(deploy_vm(fleet, "vm-a", max_instances=1))
        router.drive(InvocationTrace("html", [0, 0]))
        router.run(until_ns=30 * SEC)
        assert router.rejection_count == 0
        assert len(router.successful_records()) == 2


class TestFailOver:
    def test_in_flight_work_reroutes_to_a_sibling(self, sim, fleet):
        router = TraceRouter(
            sim,
            policy="sticky",
            max_queue_per_vm=4,
            budget=RetryBudget(max_failovers=1),
        )
        router.register(deploy_vm(fleet, "vm-a"))
        router.register(deploy_vm(fleet, "vm-b"))
        router.drive(InvocationTrace("html", [0]))
        outcomes = []

        def crash():
            router.retire("vm-a")
            outcomes.extend(router.fail_over("vm-a", "vm-lost"))

        sim.schedule(1 * MS, crash)
        router.run(until_ns=30 * SEC)
        assert len(outcomes) == 1
        assert outcomes[0].rerouted and outcomes[0].reason == "vm-lost"
        assert len(router.records_on("vm-b")) == 1
        assert router.records_on("vm-b")[0].ok
        assert all(slot.in_flight == 0 for slot in router.slots)

    def test_exhausted_budget_becomes_a_structured_rejection(self, sim, fleet):
        router = TraceRouter(sim, policy="sticky", max_queue_per_vm=4)
        router.register(deploy_vm(fleet, "vm-a"))
        router.register(deploy_vm(fleet, "vm-b"))
        router.drive(InvocationTrace("html", [0]))
        outcomes = []

        def crash():
            router.retire("vm-a")
            outcomes.extend(router.fail_over("vm-a", "vm-lost"))

        sim.schedule(1 * MS, crash)
        router.run(until_ns=30 * SEC)  # NO_FAILOVER: fail in place
        assert len(outcomes) == 1
        assert not outcomes[0].rerouted
        assert router.rejections[0].reason == "vm-lost"
        assert router.records_on("vm-b") == []

    def test_sticky_rebinds_to_a_survivor_after_retirement(self, sim, fleet):
        router = TraceRouter(
            sim,
            policy="sticky",
            max_queue_per_vm=4,
            budget=RetryBudget(max_failovers=1),
        )
        router.register(deploy_vm(fleet, "vm-a"))
        router.register(deploy_vm(fleet, "vm-b"))
        router.drive(InvocationTrace("html", [0]))
        sim.schedule(1 * MS, router.retire, "vm-a")
        router.drive(InvocationTrace("html", [2 * SEC]))
        router.run(until_ns=30 * SEC)
        assert router.policy.bound_vm("html") == "vm-b"
        assert len(router.records_on("vm-b")) >= 1


class TestWatchdog:
    def test_detects_a_wedged_recycler_by_heartbeat_staleness(self, sim, fleet):
        handle = deploy_vm(fleet, "vm-a")
        agent = handle.agent
        agent.start_recycler(until_ns=60 * SEC)
        wedged = []

        def on_wedge(vm_name, victim):
            wedged.append(vm_name)
            victim.force_recycle()

        watchdog = Watchdog(
            sim,
            agents_fn=fleet.agents,
            on_wedge=on_wedge,
            interval_ns=1 * SEC,
            timeout_ns=3 * SEC,
            until_ns=30 * SEC,
        )
        watchdog.start()
        sim.schedule(5 * SEC, agent.wedge)
        sim.run(until=30 * SEC)
        assert wedged == ["vm-a"]
        assert watchdog.detections == 1
        assert not agent.wedged
        # Heartbeats resumed after the force-recycle.
        assert agent.last_heartbeat_ns is not None
        assert agent.last_heartbeat_ns > 8 * SEC

    def test_healthy_recycler_is_never_flagged(self, sim, fleet):
        handle = deploy_vm(fleet, "vm-a")
        handle.agent.start_recycler(until_ns=30 * SEC)
        watchdog = Watchdog(
            sim,
            agents_fn=fleet.agents,
            on_wedge=lambda name, agent: pytest.fail(f"flagged {name}"),
            interval_ns=1 * SEC,
            timeout_ns=3 * SEC,
            until_ns=30 * SEC,
        )
        watchdog.start()
        sim.run(until=30 * SEC)
        assert watchdog.detections == 0

    def test_rejects_non_positive_cadence(self, sim, fleet):
        with pytest.raises(ConfigError):
            Watchdog(
                sim,
                agents_fn=fleet.agents,
                on_wedge=lambda name, agent: None,
                interval_ns=0,
                timeout_ns=1,
                until_ns=1,
            )


def build_cluster(sim, hosts=3, vms_per_host=2):
    """A multi-host fleet with routed, deployed VMs spread per node."""
    fleet = Fleet(sim, hosts=hosts, placement="numa-spread")
    router = TraceRouter(
        sim,
        policy="least-loaded",
        max_queue_per_vm=8,
        budget=RetryBudget(max_failovers=2, deadline_ns=2 * SEC),
        breakers=BreakerPolicy(),
    )
    for i in range(hosts * vms_per_host):
        handle = deploy_vm(fleet, f"vm-{i}")
        router.register(handle)
    return fleet, router


class TestHostCrashEndToEnd:
    def test_crashed_host_evacuates_and_the_ledger_reconciles(self, sim):
        fleet, router = build_cluster(sim)
        plan = FaultPlan(
            (FaultSpec(HOST_CRASH, probability=1.0, max_fires=1),)
        )
        injector = FaultInjector(plan, seed=0)
        coordinator = FailoverCoordinator(fleet, router, injector)
        coordinator.start(tick_ns=5 * SEC, until_ns=20 * SEC, seed=0)
        for i in range(6):
            router.drive(
                InvocationTrace("html", [j * SEC + i * 100 * MS for j in range(20)])
            )
        router.run(until_ns=60 * SEC)
        sim.run()  # drain: every remaining process is finitely bounded
        coordinator.finalize()

        assert len(fleet.down_hosts) == 1
        assert injector.unresolved() == []
        assert injector.count(HOST_CRASH) == 1
        assert fleet.ledger_drift_bytes() == 0
        assert len(coordinator.evacuations) == 1
        evacuation = coordinator.evacuations[0]
        assert evacuation.ok
        assert len(evacuation.evacuated) == 2
        assert all("~e" in name for name in evacuation.evacuated)
        # Replacements were re-registered with the router and the fleet
        # is back at full strength on the survivors.
        alive = [h for h in fleet.handles if h.vm._alive]
        assert len(alive) == 6
        crashed = next(iter(fleet.down_hosts))
        assert all(h.host_index != crashed for h in alive)
        for name in evacuation.evacuated:
            assert router.is_registered(name)
            assert not router.slot(name).retired
        # Nothing leaked an exception across a join: every arrival ends
        # as exactly one structured record (rejections included).
        assert all(slot.in_flight == 0 for slot in router.slots)
        assert len(router.records) == 6 * 20
        for handle in alive:
            handle.vm.check_consistency()

    def test_same_seed_crashes_the_same_host_at_the_same_tick(self, sim):
        def storm():
            local_sim = type(sim)()
            fleet, router = build_cluster(local_sim)
            injector = FaultInjector(
                FaultPlan(
                    (FaultSpec(HOST_CRASH, probability=1.0, max_fires=1),)
                ),
                seed=7,
            )
            coordinator = FailoverCoordinator(fleet, router, injector)
            coordinator.start(tick_ns=5 * SEC, until_ns=20 * SEC, seed=7)
            router.drive(
                InvocationTrace("html", [j * SEC for j in range(15)])
            )
            router.run(until_ns=60 * SEC)
            local_sim.run()
            coordinator.finalize()
            fault = injector.injected[0]
            return (
                sorted(fleet.down_hosts),
                fault.time_ns,
                tuple(coordinator.evacuations[0].evacuated),
            )

        assert storm() == storm()


class TestOomKill:
    def test_oom_killed_vm_is_reprovisioned_and_rerouted(self, sim):
        fleet, router = build_cluster(sim)
        plan = FaultPlan(
            (FaultSpec(VM_OOM_KILL, probability=1.0, max_fires=1),)
        )
        injector = FaultInjector(plan, seed=0)
        coordinator = FailoverCoordinator(fleet, router, injector)
        coordinator.start(tick_ns=5 * SEC, until_ns=20 * SEC, seed=0)
        router.drive(InvocationTrace("html", [j * SEC for j in range(15)]))
        router.run(until_ns=60 * SEC)
        sim.run()
        coordinator.finalize()

        assert injector.unresolved() == []
        assert fleet.ledger_drift_bytes() == 0
        # One VM died, one generation-suffixed replacement took over.
        dead = [h for h in fleet.handles if not h.vm._alive]
        assert len(dead) == 1
        replacements = [h for h in fleet.handles if "~e" in h.name]
        assert len(replacements) == 1 and replacements[0].vm._alive
        assert router.is_registered(replacements[0].name)
        assert coordinator.recovery.count("reprovisioned") == 1

    def test_domain_plan_storm_resolves_every_fault(self, sim):
        fleet, router = build_cluster(sim)
        injector = FaultInjector(domain_plan(0.5), seed=3)
        coordinator = FailoverCoordinator(fleet, router, injector)
        coordinator.start(tick_ns=2 * SEC, until_ns=20 * SEC, seed=3)
        for agent in fleet.agents():
            agent.start_recycler(until_ns=30 * SEC)
        router.drive(InvocationTrace("html", [j * SEC for j in range(20)]))
        router.run(until_ns=60 * SEC)
        sim.run()
        coordinator.finalize()
        assert injector.count() > 0
        assert injector.unresolved() == []
        assert fleet.ledger_drift_bytes() == 0
