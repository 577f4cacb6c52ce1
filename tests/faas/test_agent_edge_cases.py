"""Edge cases for the Agent's scaling logic."""

import pytest

from repro.core import HotMemBootParams
from repro.faas.agent import Agent, FunctionDeployment
from repro.faas.policy import KeepAlivePolicy
from repro.cluster.provision import VmSpec
from repro.modes import HOTMEM, OVERPROVISIONED, VANILLA
from repro.sim.engine import Timeout
from repro.units import GIB, MIB, SEC
from repro.workloads.functions import get_function


def make_agent(sim, vm, mode, **kw):
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
    )


class TestSpareSlots:
    def test_spare_slot_survives_shrink(self, sim, hotmem_vm):
        agent = make_agent(
            sim, hotmem_vm, HOTMEM, spare_slots=1
        )
        sim.run_process(agent.handle("html", 0))

        def cycle():
            yield Timeout(11 * SEC)
            yield from agent.recycle_pass()

        sim.run_process(cycle())
        sim.run()
        # The instance's partition stays populated as the spare.
        assert hotmem_vm.device.plugged_bytes >= 384 * MIB
        assert len(hotmem_vm.hotmem.populated_unassigned()) == 1

    def test_next_cold_start_skips_the_plug(self, sim, hotmem_vm):
        agent = make_agent(
            sim, hotmem_vm, HOTMEM, spare_slots=1
        )
        sim.run_process(agent.handle("html", 0))
        plugs_before = len(hotmem_vm.tracer.plug_events())

        def cycle():
            yield Timeout(11 * SEC)
            yield from agent.recycle_pass()
            record = yield from agent.handle("html", sim.now)
            return record

        record = sim.run_process(cycle())
        assert record.ok and record.cold
        assert len(hotmem_vm.tracer.plug_events()) == plugs_before


class TestRecyclerEdgeCases:
    def test_double_recycler_start_rejected(self, sim, vanilla_vm):
        from repro.errors import FaasError

        agent = make_agent(sim, vanilla_vm, VANILLA)
        agent.start_recycler(until_ns=SEC)
        with pytest.raises(FaasError):
            agent.start_recycler()
        sim.run(until=2 * SEC)

    def test_stop_halts_the_loop(self, sim, vanilla_vm):
        agent = make_agent(sim, vanilla_vm, VANILLA)
        agent.start_recycler()
        sim.run(until=7 * SEC)
        agent.stop()
        sim.run(until=60 * SEC)
        assert sim.pending_events() == 0

    def test_recycle_pass_without_containers_is_noop(self, sim, vanilla_vm):
        agent = make_agent(sim, vanilla_vm, VANILLA)

        def pass_():
            return (yield from agent.recycle_pass())

        assert sim.run_process(pass_()) == 0
        assert agent.shrink_events == []

    def test_overprovisioned_recycle_records_zero_unplug(self, sim, fleet):
        vm = fleet.provision(
            VmSpec(
                "op",
                mode=OVERPROVISIONED,
                region_bytes=2 * GIB,
            )
        ).vm
        agent = make_agent(sim, vm, OVERPROVISIONED)
        sim.run_process(agent.handle("html", 0))

        def cycle():
            yield Timeout(11 * SEC)
            yield from agent.recycle_pass()

        sim.run_process(cycle())
        sim.run()
        assert len(agent.shrink_events) == 1
        assert agent.shrink_events[0].unplug_requested_bytes == 0
        assert vm.tracer.unplug_events() == []


class TestTargetAccounting:
    def test_target_counts_live_instances_and_shared(self, sim, hotmem_vm):
        agent = make_agent(sim, hotmem_vm, HOTMEM)
        shared = hotmem_vm.hotmem.params.shared_bytes
        assert agent.target_plugged_bytes() == shared
        sim.run_process(agent.handle("html", 0))
        assert agent.target_plugged_bytes() == shared + 384 * MIB

    def test_device_converges_to_target_after_churn(self, sim, hotmem_vm):
        agent = make_agent(
            sim, hotmem_vm, HOTMEM, max_instances=6,
            keep_alive_s=3, recycle_s=2,
        )

        def churn():
            for round_index in range(3):
                processes = [
                    sim.spawn(agent.handle("html", sim.now)) for _ in range(6)
                ]
                for process in processes:
                    yield process
                yield Timeout(6 * SEC)
                yield from agent.recycle_pass()
                yield Timeout(1 * SEC)

        sim.run_process(churn())
        sim.run()
        assert (
            hotmem_vm.device.plugged_bytes == agent.target_plugged_bytes()
        )
        hotmem_vm.check_consistency()
