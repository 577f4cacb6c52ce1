"""Fleet provisioning: the one path that builds hosts and VMs."""

import pytest

from repro.cluster.provision import Fleet, VmSpec, provision_vm
from repro.errors import ClusterError, ConfigError
from repro.faas.agent import FunctionDeployment
from repro.faas.policy import KeepAlivePolicy
from repro.modes import HOTMEM, OVERPROVISIONED, VANILLA
from repro.sim import Simulator
from repro.units import GIB, MIB, SEC
from repro.workloads.functions import get_function


class TestProvisioning:
    def test_vm_lands_where_admission_said(self, fleet):
        handle = fleet.provision(VmSpec("vm", region_bytes=GIB))
        assert (handle.host_index, handle.node_id) == (
            handle.admission.host_index,
            handle.admission.node_id,
        )
        assert handle.vm.config.node_id == handle.node_id

    def test_committed_charged_then_released_on_shutdown(self, fleet):
        handle = fleet.provision(VmSpec("vm", region_bytes=GIB))
        charged = fleet.arbiter.committed_bytes(
            handle.host_index, handle.node_id
        )
        assert charged == handle.admission.committed_bytes > 0
        handle.shutdown()
        assert (
            fleet.arbiter.committed_bytes(handle.host_index, handle.node_id)
            == 0
        )
        assert handle.vm.backed_bytes == 0

    def test_duplicate_name_rejected(self, fleet):
        fleet.provision(VmSpec("vm", region_bytes=GIB))
        with pytest.raises(ClusterError):
            fleet.provision(VmSpec("vm", region_bytes=GIB))

    def test_overprovisioned_fully_plugged_at_boot(self, fleet):
        handle = fleet.provision(
            VmSpec(
                "op", mode=OVERPROVISIONED, region_bytes=GIB
            )
        )
        assert handle.vm.device.plugged_bytes == GIB

    def test_hotmem_spec_requires_geometry(self):
        with pytest.raises(ConfigError):
            VmSpec("bad", mode=HOTMEM, region_bytes=GIB)

    def test_fleet_context_wired_for_sanitizer(self, fleet):
        handle = fleet.provision(VmSpec("vm", region_bytes=GIB))
        assert handle.vm.manager._fleet_context is fleet

    def test_node_views_track_residents(self, fleet):
        handle = fleet.provision(VmSpec("vm", region_bytes=GIB))
        views = {
            (host_index, node.node_id): vms
            for host_index, node, vms in fleet.node_views()
        }
        assert handle.vm in views[(handle.host_index, handle.node_id)]
        handle.shutdown()
        views = {
            (host_index, node.node_id): vms
            for host_index, node, vms in fleet.node_views()
        }
        assert handle.vm not in views[(handle.host_index, handle.node_id)]

    def test_provision_vm_helper(self):
        handle = provision_vm(
            Simulator(), VmSpec("solo", region_bytes=GIB)
        )
        assert handle.vm.config.name == "solo"


class TestDeploy:
    def test_deploy_builds_agent_once(self, fleet):
        spec = get_function("html")
        handle = fleet.provision(
            VmSpec.for_function(
                "vm", VANILLA, spec.memory_limit_bytes,
                concurrency=2,
            )
        )
        policy = KeepAlivePolicy(
            keep_alive_ns=10 * SEC, recycle_interval_ns=5 * SEC
        )
        agent = handle.deploy(
            [FunctionDeployment(spec, max_instances=2)], policy
        )
        assert fleet.agents() == [agent]
        with pytest.raises(ClusterError):
            handle.deploy([FunctionDeployment(spec, max_instances=2)], policy)


class TestPressureMonitor:
    def test_pressure_fires_reclaim_above_watermark(self):
        from repro.cluster.admission import ArbitrationPolicy

        sim = Simulator()
        fleet = Fleet(
            sim,
            hosts=1,
            nodes_per_host=1,
            memory_per_node=2 * GIB,
            arbitration=ArbitrationPolicy(pressure_watermark=0.1),
        )
        spec = get_function("html")
        handle = fleet.provision(
            VmSpec.for_function(
                "vm",
                HOTMEM,
                spec.memory_limit_bytes,
                concurrency=2,
                boot_memory_bytes=256 * MIB,
            )
        )
        handle.deploy(
            [FunctionDeployment(spec, max_instances=2)],
            KeepAlivePolicy(
                keep_alive_ns=1 * SEC, recycle_interval_ns=1 * SEC
            ),
        )
        fleet.start_pressure_monitor(period_ns=1 * SEC, until_ns=5 * SEC)
        sim.run(until=5 * SEC)
        # Boot memory alone exceeds the 10% watermark, so every period
        # recorded a pressure event and nudged the agent's recycler.
        assert fleet.pressure_events
        assert handle.agent.pressure_reclaims > 0
