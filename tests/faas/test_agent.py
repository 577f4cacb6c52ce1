"""Unit tests for the in-VM Agent (scale-up/down, queueing, pinning)."""

import pytest

from repro.core import HotMemBootParams
from repro.errors import ConfigError
from repro.faas.agent import Agent, FunctionDeployment
from repro.faas.policy import KeepAlivePolicy
from repro.cluster.provision import VmSpec
from repro.modes import HOTMEM, OVERPROVISIONED, VANILLA
from repro.sim.engine import Timeout
from repro.units import GIB, MIB, SEC
from repro.workloads.functions import get_function


def make_agent(sim, vm, mode, max_instances=4, vcpu_indices=None,
               keep_alive_s=10, recycle_s=5, function="html", reuse="lifo"):
    spec = get_function(function)
    return Agent(
        sim,
        vm,
        [
            FunctionDeployment(
                spec=spec,
                max_instances=max_instances,
                vcpu_indices=vcpu_indices,
                reuse=reuse,
            )
        ],
        KeepAlivePolicy(
            keep_alive_ns=keep_alive_s * SEC, recycle_interval_ns=recycle_s * SEC
        ),
        mode,
    )


@pytest.fixture
def vanilla_agent(sim, vanilla_vm):
    return make_agent(sim, vanilla_vm, VANILLA)


@pytest.fixture
def hotmem_agent(sim, hotmem_vm):
    return make_agent(sim, hotmem_vm, HOTMEM)


def run_request(sim, agent, arrival=0):
    return sim.run_process(agent.handle("html", arrival))


class TestModeValidation:
    def test_hotmem_mode_requires_hotmem_vm(self, sim, vanilla_vm):
        with pytest.raises(ConfigError):
            make_agent(sim, vanilla_vm, HOTMEM)

    def test_vanilla_mode_rejects_hotmem_vm(self, sim, hotmem_vm):
        with pytest.raises(ConfigError):
            make_agent(sim, hotmem_vm, VANILLA)

    def test_duplicate_function_rejected(self, sim, vanilla_vm):
        spec = get_function("html")
        with pytest.raises(ConfigError):
            Agent(
                sim,
                vanilla_vm,
                [
                    FunctionDeployment(spec, 1),
                    FunctionDeployment(spec, 1),
                ],
                KeepAlivePolicy(),
                VANILLA,
            )

    def test_unknown_function_rejected(self, sim, vanilla_agent):
        from repro.errors import FaasError

        with pytest.raises(FaasError):
            sim.run_process(vanilla_agent.handle("nope", 0))


class TestScaleUp:
    def test_first_request_cold_starts_and_plugs(self, sim, vanilla_vm, vanilla_agent):
        record = run_request(sim, vanilla_agent)
        assert record.ok and record.cold
        assert vanilla_agent.live_instances("html") == 1
        assert len(vanilla_vm.tracer.plug_events()) == 1
        # Plug sized to the function limit, block-rounded.
        assert vanilla_vm.tracer.plug_events()[0].completed_bytes == 384 * MIB

    def test_second_request_warm_no_plug(self, sim, vanilla_vm, vanilla_agent):
        run_request(sim, vanilla_agent)
        record = run_request(sim, vanilla_agent, arrival=sim.now)
        assert record.ok and not record.cold
        assert len(vanilla_vm.tracer.plug_events()) == 1

    def test_overprovisioned_never_plugs(self, sim, fleet):
        vm = fleet.provision(
            VmSpec(
                "op",
                mode=OVERPROVISIONED,
                region_bytes=2 * GIB,
            )
        ).vm
        agent = make_agent(sim, vm, OVERPROVISIONED)
        record = run_request(sim, agent)
        assert record.ok
        assert vm.tracer.plug_events() == []

    def test_hotmem_cold_start_lands_in_partition(self, sim, hotmem_vm, hotmem_agent):
        record = run_request(sim, hotmem_agent)
        assert record.ok
        occupied = [
            p for p in hotmem_vm.hotmem.partitions if p.partition_users > 0
        ]
        assert len(occupied) == 1

    def test_concurrent_burst_spawns_up_to_limit(self, sim, vanilla_vm, vanilla_agent):
        records = []

        def burst():
            processes = [
                sim.spawn(vanilla_agent.handle("html", 0)) for _ in range(10)
            ]
            for process in processes:
                value = yield process
                records.append(value)

        sim.run_process(burst())
        assert vanilla_agent.live_instances("html") == 4  # max_instances
        assert all(r.ok for r in records)
        cold = sum(1 for r in records if r.cold)
        assert cold == 4

    def test_plug_deficit_accounts_exactly(self, sim, vanilla_vm, vanilla_agent):
        def burst():
            processes = [
                sim.spawn(vanilla_agent.handle("html", 0)) for _ in range(10)
            ]
            for process in processes:
                yield process

        sim.run_process(burst())
        assert vanilla_vm.device.plugged_bytes == 4 * 384 * MIB


class TestQueueing:
    def test_waiters_receive_released_containers(self, sim, vanilla_agent):
        done = []

        def burst():
            processes = [
                sim.spawn(vanilla_agent.handle("html", 0)) for _ in range(12)
            ]
            for process in processes:
                record = yield process
                done.append(record)

        sim.run_process(burst())
        assert len(done) == 12
        assert all(r.ok for r in done)
        # 4 colds, 8 warm handoffs.
        assert sum(1 for r in done if r.cold) == 4


class TestPinning:
    def test_round_robin_over_allowed_vcpus(self, sim, vanilla_vm):
        agent = make_agent(
            sim, vanilla_vm, VANILLA, vcpu_indices=(2, 5)
        )

        def burst():
            processes = [sim.spawn(agent.handle("html", 0)) for _ in range(4)]
            for process in processes:
                yield process

        sim.run_process(burst())
        # Function work stays on the pinned vCPUs; the only work elsewhere
        # is the virtio-mem plug path on the IRQ vCPU.
        used = sum(
            vanilla_vm.vcpus[i].busy_ns_for_prefix("fn:") for i in (2, 5)
        )
        others = sum(
            core.busy_ns_for_prefix("fn:")
            for i, core in enumerate(vanilla_vm.vcpus)
            if i not in (2, 5)
        )
        assert used > 0
        assert others == 0


class TestScaleDown:
    def test_recycle_evicts_idle_past_keep_alive(self, sim, vanilla_vm, vanilla_agent):
        run_request(sim, vanilla_agent)
        assert vanilla_agent.live_instances("html") == 1

        def wait_and_recycle():
            yield Timeout(11 * SEC)
            evicted = yield from vanilla_agent.recycle_pass()
            return evicted

        evicted = sim.run_process(wait_and_recycle())
        assert evicted == 1
        assert vanilla_agent.live_instances("html") == 0

    def test_recycle_spares_fresh_idle(self, sim, vanilla_agent):
        run_request(sim, vanilla_agent)

        def recycle_now():
            evicted = yield from vanilla_agent.recycle_pass()
            return evicted

        assert sim.run_process(recycle_now()) == 0

    def test_recycle_requests_unplug_of_freed_memory(self, sim, vanilla_vm, vanilla_agent):
        run_request(sim, vanilla_agent)

        def wait_and_recycle():
            yield Timeout(11 * SEC)
            yield from vanilla_agent.recycle_pass()

        sim.run_process(wait_and_recycle())
        sim.run()
        unplugs = vanilla_vm.tracer.unplug_events()
        assert len(unplugs) == 1
        assert unplugs[0].completed_bytes == 384 * MIB
        assert vanilla_agent.shrink_events[0].evicted == 1

    def test_hotmem_recycle_reclaims_without_migration(self, sim, hotmem_vm, hotmem_agent):
        run_request(sim, hotmem_agent)

        def wait_and_recycle():
            yield Timeout(11 * SEC)
            yield from hotmem_agent.recycle_pass()

        sim.run_process(wait_and_recycle())
        sim.run()
        unplugs = hotmem_vm.tracer.unplug_events()
        assert len(unplugs) == 1
        assert unplugs[0].migrated_pages == 0
        hotmem_vm.check_consistency()

    def test_recycler_loop_runs_until_stopped(self, sim, vanilla_agent):
        vanilla_agent.start_recycler(until_ns=30 * SEC)
        run_request(sim, vanilla_agent)
        sim.run(until=40 * SEC)
        assert vanilla_agent.live_instances("html") == 0

    def test_partition_reuse_after_recycle(self, sim, hotmem_vm, hotmem_agent):
        """Scale up → down → up again: the second cold start may reuse the
        populated partition (plug only if it was already reclaimed)."""
        run_request(sim, hotmem_agent)

        def cycle():
            yield Timeout(11 * SEC)
            yield from hotmem_agent.recycle_pass()
            record = yield from hotmem_agent.handle("html", self_now())
            return record

        def self_now():
            return sim.now

        record = sim.run_process(cycle())
        sim.run()
        assert record.ok and record.cold
        hotmem_vm.check_consistency()


class TestReusePolicy:
    def test_fifo_rotates_instances(self, sim, vanilla_vm):
        agent = make_agent(
            sim, vanilla_vm, VANILLA, max_instances=2, reuse="fifo"
        )

        def scenario():
            first = yield from agent.handle("html", 0)
            second = yield from agent.handle("html", 0)
            third = yield from agent.handle("html", 0)
            return first, second, third

        sim.run_process(scenario())
        state = agent.functions["html"]
        # FIFO: the third request reused the first container, so both
        # containers have work.
        assert all(c.invocations >= 1 for c in state.idle)

    def test_lifo_reuses_hottest(self, sim, vanilla_vm):
        agent = make_agent(
            sim, vanilla_vm, VANILLA, max_instances=2, reuse="lifo"
        )

        def scenario():
            # Force two instances by overlapping requests.
            a = sim.spawn(agent.handle("html", 0))
            b = sim.spawn(agent.handle("html", 0))
            yield a
            yield b
            # Now serial requests reuse the most recently released one.
            for _ in range(3):
                yield from agent.handle("html", sim.now)

        sim.run_process(scenario())
        state = agent.functions["html"]
        counts = sorted(c.invocations for c in state.idle)
        assert counts[0] == 1  # the cold one never ran again
