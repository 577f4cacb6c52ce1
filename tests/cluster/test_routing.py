"""Trace routing across a fleet: locality, balancing, saturation."""

import pytest

from repro.cluster.provision import VmSpec
from repro.cluster.routing import TraceRouter, get_routing_policy
from repro.errors import ClusterError, ConfigError
from repro.faas.agent import FunctionDeployment
from repro.faas.policy import KeepAlivePolicy
from repro.modes import VANILLA
from repro.units import SEC
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
        KeepAlivePolicy(keep_alive_ns=30 * SEC, recycle_interval_ns=10 * SEC),
    )
    return handle


def spaced_trace(function, count, gap_ns=SEC):
    return InvocationTrace(function, [i * gap_ns for i in range(count)])


class TestSticky:
    def test_all_invocations_stay_on_the_bound_vm(self, sim, fleet):
        router = TraceRouter(sim, policy="sticky")
        a = deploy_vm(fleet, "vm-a")
        b = deploy_vm(fleet, "vm-b")
        router.register(a)
        router.register(b)
        router.drive(spaced_trace("html", 6))
        router.run(until_ns=30 * SEC)
        assert len(router.records_on("vm-a")) == 6
        assert router.records_on("vm-b") == []
        assert router.policy.bound_vm("html") == "vm-a"

    def test_saturated_binding_rejects_rather_than_spills(self, sim, fleet):
        router = TraceRouter(sim, policy="sticky", max_queue_per_vm=0)
        router.register(deploy_vm(fleet, "vm-a", max_instances=1))
        router.register(deploy_vm(fleet, "vm-b", max_instances=1))
        # Four simultaneous arrivals against a 1-deep bound VM.
        router.drive(InvocationTrace("html", [0, 0, 0, 0]))
        router.run(until_ns=30 * SEC)
        assert router.records_on("vm-b") == []
        assert router.rejection_count > 0


class TestLeastLoaded:
    def test_simultaneous_arrivals_spread_across_vms(self, sim, fleet):
        router = TraceRouter(sim, policy="least-loaded")
        router.register(deploy_vm(fleet, "vm-a"))
        router.register(deploy_vm(fleet, "vm-b"))
        router.drive(InvocationTrace("html", [0, 0, 0, 0]))
        router.run(until_ns=30 * SEC)
        assert len(router.records_on("vm-a")) == 2
        assert len(router.records_on("vm-b")) == 2


class TestMemoryHeadroom:
    def test_routes_to_most_headroom(self, sim, fleet):
        router = TraceRouter(sim, policy="memory-headroom")
        router.register(deploy_vm(fleet, "vm-a", max_instances=1))
        router.register(deploy_vm(fleet, "vm-b", max_instances=4))
        router.drive(InvocationTrace("html", [0]))
        router.run(until_ns=30 * SEC)
        # Both idle: the larger region has more headroom.
        assert len(router.records_on("vm-b")) == 1


class TestSaturation:
    def test_rejections_are_values_not_exceptions(self, sim, fleet):
        router = TraceRouter(sim, policy="least-loaded", max_queue_per_vm=0)
        router.register(deploy_vm(fleet, "vm-a", max_instances=1))
        router.drive(InvocationTrace("html", [0] * 5))
        router.run(until_ns=30 * SEC)  # must not raise across joins
        assert router.rejection_count == 4
        rejected = [r for r in router.records if not r.ok]
        assert len(rejected) == 4
        assert all(r.error == "rejected" for r in rejected)
        assert all(
            rej.reason == "saturated" for rej in router.rejections
        )
        assert len(router.successful_records()) == 1

    def test_unknown_function_rejected_as_no_deployment(self, sim, fleet):
        router = TraceRouter(sim)
        router.register(deploy_vm(fleet, "vm-a"))
        router.drive(InvocationTrace("bert", [0]))
        router.run(until_ns=5 * SEC)
        assert router.rejections[0].reason == "no-deployment"

    def test_in_flight_drains_to_zero(self, sim, fleet):
        router = TraceRouter(sim, policy="least-loaded")
        router.register(deploy_vm(fleet, "vm-a"))
        router.drive(spaced_trace("html", 4))
        router.run(until_ns=60 * SEC)
        assert all(slot.in_flight == 0 for slot in router.slots)


class TestRegistration:
    def test_unknown_policy_rejected(self, sim):
        with pytest.raises(ConfigError):
            TraceRouter(sim, policy="random")

    def test_register_accepts_handle_or_agent(self, sim, fleet):
        router = TraceRouter(sim)
        handle = deploy_vm(fleet, "vm-a")
        router.register(handle.agent)
        with pytest.raises(ClusterError):
            router.register(handle)  # same VM twice
