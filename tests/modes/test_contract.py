"""The deployment-backend contract, enforced over every registered mode.

Anything in the registry — built-in or baseline — must satisfy the same
obligations the experiments rely on: it provisions through the fleet's
admission-checked path, serves an invocation end to end, reclaims memory
between bursts (or documents why it cannot), keeps the guest memory
manager's invariants intact under the sanitizer, and declares an
admission credit the arbiter can use.  A new mode registered via
:func:`repro.modes.register_mode` gets this suite for free through the
``registered_modes()`` parametrization.
"""

import pytest

from repro.analysis import sanitizer
from repro.cluster.provision import Fleet, VmSpec
from repro.cluster.routing import TraceRouter
from repro.faas.agent import FunctionDeployment
from repro.faas.policy import KeepAlivePolicy
from repro.modes import DeploymentBackend, get_mode, registered_modes
from repro.obs import traced
from repro.sim import Simulator
from repro.units import GIB, MIB, SEC
from repro.virtio.device import PlugResult, UnplugResult
from repro.workloads.functions import get_function
from repro.workloads.traces import InvocationTrace

MODES = registered_modes()


def spec_for(mode: DeploymentBackend, name: str) -> VmSpec:
    """One VM sized like a density-sweep cell.

    Eight partitions keep the elastic region at 2 GiB so even the
    coarsest datapath (whole-DIMM, 1 GiB units) has room to both plug
    and unplug within the region.
    """
    function = get_function("html")
    return VmSpec.for_function(
        name,
        mode,
        function.memory_limit_bytes,
        concurrency=8,
        shared_bytes=function.shared_deps_bytes,
        boot_memory_bytes=256 * MIB,
    )


def serve(sim: Simulator, fleet: Fleet, mode: DeploymentBackend, count: int = 3):
    """Provision one VM, serve ``count`` invocations, run the recycler
    long enough for keep-alive expiry, and return (handle, router)."""
    handle = fleet.provision(spec_for(mode, f"{mode.name}-vm"))
    agent = handle.deploy(
        [FunctionDeployment(get_function("html"), max_instances=8)],
        KeepAlivePolicy(keep_alive_ns=2 * SEC, recycle_interval_ns=1 * SEC),
    )
    router = TraceRouter(sim)
    router.register(agent)
    router.drive(InvocationTrace("html", [0] * count))
    agent.start_recycler(until_ns=30 * SEC)
    router.run(until_ns=30 * SEC)
    handle.vm.check_consistency()
    return handle, router


def resize_round_trip(mode: DeploymentBackend):
    """Plug 2 GiB into one fresh VM, run 30 s, unplug 1.5 GiB, run 30 s
    more, and return the VM; neither request may raise."""
    sim = Simulator()
    vm = Fleet(sim).provision(spec_for(mode, f"{mode.name}-vm")).vm
    plug = vm.request_plug(2 * GIB)
    sim.run(until=30 * SEC)
    unplug = vm.request_unplug(3 * GIB // 2)
    sim.run(until=60 * SEC)
    assert isinstance(plug.value, PlugResult)
    assert isinstance(unplug.value, UnplugResult)
    return vm


@pytest.fixture(params=MODES, ids=[m.name for m in MODES])
def mode(request) -> DeploymentBackend:
    return request.param


class TestModeContract:
    def test_registry_roundtrip(self, mode):
        assert get_mode(mode.name) is mode
        assert get_mode(mode) is mode
        assert str(mode) == mode.name

    def test_reclaim_credit_in_unit_interval(self, mode):
        assert 0.0 <= mode.reclaim_credit <= 1.0
        # Non-elastic modes give nothing back between bursts, so the
        # arbiter must not be promised anything.
        if not mode.elastic:
            assert mode.reclaim_credit == 0.0

    def test_provisions_and_serves_through_fleet(self, sim, fleet, mode):
        handle, router = serve(sim, fleet, mode)
        assert len(router.successful_records()) == 3
        assert router.failure_count == 0
        assert handle.vm.datapath is not None

    def test_reclaims_or_documents_why_not(self, sim, fleet, mode):
        if not mode.elastic:
            # Statically sized modes must say how (or why) they skip
            # reclamation — the density report surfaces this string.
            assert mode.reclaim_semantics
            return
        handle = fleet.provision(spec_for(mode, f"{mode.name}-vm"))
        agent = handle.deploy(
            [FunctionDeployment(get_function("html"), max_instances=8)],
            KeepAlivePolicy(keep_alive_ns=2 * SEC, recycle_interval_ns=1 * SEC),
        )
        router = TraceRouter(sim)
        router.register(agent)
        router.drive(InvocationTrace("html", [0, 0, 0]))
        agent.start_recycler(until_ns=60 * SEC)
        # Phase 1: serve the burst and observe the grown footprint.
        router.run(until_ns=1 * SEC)
        grown = handle.vm.elastic_bytes
        assert grown > 0, "elastic mode never plugged for the burst"
        # Phase 2: idle past keep-alive; the recycler must give memory
        # back through this mode's datapath.
        router.run(until_ns=60 * SEC)
        handle.vm.check_consistency()
        assert handle.vm.elastic_bytes < grown
        assert mode.reclaim_granularity_bytes > 0

    def test_resize_round_trip_logs_the_same_traced(self, mode):
        plain = resize_round_trip(mode)
        # Obs contexts bind at provision time: build the VM in-session.
        with traced():
            vm = resize_round_trip(mode)
        # Refused requests (fpr's unplug) are logged too.
        assert [e.kind for e in plain.tracer.events] == ["plug", "unplug"]
        assert vm.tracer.events == plain.tracer.events
        assert vm.recovery_log.events == plain.recovery_log.events

    def test_sanitizer_invariants_hold(self, mode):
        sim = Simulator()

        def exercise():
            fleet = Fleet(sim)
            handle, router = serve(sim, fleet, mode)
            assert len(router.successful_records()) == 3
            handle.shutdown()

        if sanitizer.is_installed():  # --sanitize / REPRO_SANITIZE run
            exercise()
            return
        with sanitizer.sanitized(sanitizer.SanitizerConfig(every_n_events=16)):
            exercise()
            swept = sum(s.checks_run for s in sanitizer.installed_sanitizers())
            assert swept > 0

    def test_shutdown_releases_host_memory(self, sim, fleet, mode):
        handle, _ = serve(sim, fleet, mode)
        host_index, node_id = handle.host_index, handle.node_id
        handle.shutdown()
        assert handle.vm.backed_bytes == 0
        assert fleet.arbiter.committed_bytes(host_index, node_id) == 0

    def test_fault_sites_declared_and_known(self, mode):
        from repro.faults.sites import ALL_SITES

        assert mode.fault_sites
        assert set(mode.fault_sites) <= set(ALL_SITES)
