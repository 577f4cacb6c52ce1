"""Density arbitration: commitment math, the ledger, and watermarks."""

import pytest

from repro.cluster.admission import (
    ArbitrationPolicy,
    DEFAULT_ARBITRATION,
    DensityArbiter,
)
from repro.cluster.provision import Fleet, VmSpec
from repro.errors import AdmissionRejected, ConfigError
from repro.modes import HOTMEM, OVERPROVISIONED, VANILLA
from repro.sim import Simulator
from repro.units import GIB, MIB


def make_arbiter(policy=DEFAULT_ARBITRATION, hosts=1, memory=8 * GIB):
    fleet = Fleet(
        Simulator(),
        hosts=hosts,
        nodes_per_host=1,
        memory_per_node=memory,
        arbitration=policy,
    )
    return DensityArbiter(fleet.hosts, policy)


class TestCommitment:
    BOOT = 512 * MIB
    REGION = 2 * GIB
    SHARED = 256 * MIB

    def commit(self, mode):
        return make_arbiter().commitment(
            mode, self.BOOT, self.REGION, self.SHARED
        )

    def test_overprovisioned_pays_full_footprint(self):
        assert self.commit(OVERPROVISIONED) == (
            self.BOOT + self.REGION
        )

    def test_vanilla_discounts_a_quarter_of_the_elastic_region(self):
        elastic = self.REGION - self.SHARED
        assert self.commit(VANILLA) == (
            self.BOOT + self.REGION - int(0.25 * elastic)
        )

    def test_hotmem_discounts_three_quarters(self):
        elastic = self.REGION - self.SHARED
        assert self.commit(HOTMEM) == (
            self.BOOT + self.REGION - int(0.75 * elastic)
        )

    def test_mode_ordering(self):
        assert (
            self.commit(HOTMEM)
            < self.commit(VANILLA)
            < self.commit(OVERPROVISIONED)
        )


class TestLedger:
    def test_charge_and_release_roundtrip(self):
        arbiter = make_arbiter()
        arbiter.charge(0, 0, GIB)
        assert arbiter.committed_bytes(0, 0) == GIB
        arbiter.release(0, 0, GIB)
        assert arbiter.committed_bytes(0, 0) == 0

    def test_charge_beyond_limit_rejected(self):
        arbiter = make_arbiter()
        with pytest.raises(ConfigError):
            arbiter.charge(0, 0, 9 * GIB)

    def test_release_underflow_rejected(self):
        arbiter = make_arbiter()
        with pytest.raises(ConfigError):
            arbiter.release(0, 0, GIB)

    def test_limit_scales_with_fraction(self):
        arbiter = make_arbiter(ArbitrationPolicy(limit_fraction=0.5))
        assert arbiter.limit_bytes(0, 0) == 4 * GIB


class TestPolicyValidation:
    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            ArbitrationPolicy(limit_fraction=1.5)
        with pytest.raises(ConfigError):
            ArbitrationPolicy(hotmem_credit=-0.1)


class TestWatermark:
    def test_pressure_flips_on_real_usage(self, fleet):
        node = fleet.hosts[0].node(0)
        arbiter = DensityArbiter(
            fleet.hosts, ArbitrationPolicy(pressure_watermark=0.5)
        )
        assert not arbiter.over_watermark(0, 0)
        node.charge(node.memory_bytes // 2 + MIB)
        assert arbiter.over_watermark(0, 0)
        node.discharge(node.memory_bytes // 2 + MIB)


class TestStructuredRejection:
    def test_saturated_vs_oversized(self):
        fleet = Fleet(
            Simulator(), hosts=1, nodes_per_host=1, memory_per_node=2 * GIB
        )
        oversized = fleet.admit(VmSpec("huge", region_bytes=4 * GIB))
        assert not oversized.admitted and oversized.reason == "oversized"

        fleet.provision(
            VmSpec("first", region_bytes=GIB, boot_memory_bytes=512 * MIB)
        )
        saturated = fleet.admit(
            VmSpec("second", region_bytes=GIB, boot_memory_bytes=512 * MIB)
        )
        assert not saturated.admitted and saturated.reason == "saturated"

    def test_provision_raises_with_result_attached(self):
        fleet = Fleet(
            Simulator(), hosts=1, nodes_per_host=1, memory_per_node=2 * GIB
        )
        with pytest.raises(AdmissionRejected) as excinfo:
            fleet.provision(VmSpec("huge", region_bytes=4 * GIB))
        assert excinfo.value.result.reason == "oversized"


class TestFailureDomains:
    def test_mark_host_down_excludes_its_nodes_from_candidates(self):
        arbiter = make_arbiter(hosts=3)
        arbiter.mark_host_down(1)
        assert arbiter.host_is_down(1)
        assert not arbiter.host_is_down(0)
        assert all(c.host_index != 1 for c in arbiter.candidates())
        assert {c.host_index for c in arbiter.candidates()} == {0, 2}

    def test_mark_host_down_is_idempotent_and_bounds_checked(self):
        arbiter = make_arbiter(hosts=2)
        arbiter.mark_host_down(0)
        arbiter.mark_host_down(0)
        assert arbiter.host_is_down(0)
        with pytest.raises(ConfigError):
            arbiter.mark_host_down(5)

    def test_charging_a_down_host_is_refused(self):
        arbiter = make_arbiter(hosts=2)
        arbiter.mark_host_down(0)
        with pytest.raises(ConfigError):
            arbiter.charge(0, 0, 1 * GIB)
        arbiter.charge(1, 0, 1 * GIB)  # survivors still admit

    def test_drift_report_is_empty_when_the_ledger_is_exact(self):
        arbiter = make_arbiter()
        arbiter.charge(0, 0, 1 * GIB)
        assert arbiter.drift_report([(0, 0, 1 * GIB)]) == {}

    def test_drift_report_spots_stale_charges(self):
        arbiter = make_arbiter()
        arbiter.charge(0, 0, 1 * GIB)
        arbiter.charge(0, 0, 2 * GIB)
        # One of the two VMs died without releasing: 2 GiB stale.
        assert arbiter.drift_report([(0, 0, 1 * GIB)]) == {(0, 0): 2 * GIB}

    def test_reconcile_rebuilds_the_ledger_and_reports_repaired_bytes(self):
        arbiter = make_arbiter(hosts=2)
        arbiter.charge(0, 0, 1 * GIB)
        arbiter.charge(1, 0, 2 * GIB)
        # Host 0 crashed: its VM is gone but its charge is on the books.
        survivors = [(1, 0, 2 * GIB)]
        repaired = arbiter.reconcile(survivors)
        assert repaired == 1 * GIB
        assert arbiter.drift_report(survivors) == {}
        assert arbiter.reconcile(survivors) == 0  # now exact

    def test_reconcile_restores_resident_counts(self):
        arbiter = make_arbiter()
        arbiter.charge(0, 0, 1 * GIB)
        arbiter.charge(0, 0, 1 * GIB)
        arbiter.reconcile([(0, 0, 1 * GIB)])
        # Exactly one resident survives; releasing it empties the node.
        arbiter.release(0, 0, 1 * GIB)
        with pytest.raises(ConfigError):
            arbiter.release(0, 0, 1 * GIB)


class TestPressureShed:
    def test_unknown_shed_mode_rejected(self):
        with pytest.raises(ConfigError):
            ArbitrationPolicy(pressure_shed="most")

    def test_overage_is_usage_above_the_watermark(self, fleet):
        node = fleet.hosts[0].node(0)
        arbiter = DensityArbiter(
            fleet.hosts, ArbitrationPolicy(pressure_watermark=0.5)
        )
        assert arbiter.overage_bytes(0, 0) == 0
        node.charge(node.memory_bytes // 2 + 64 * MIB)
        assert arbiter.overage_bytes(0, 0) == 64 * MIB
        node.discharge(node.memory_bytes // 2 + 64 * MIB)

    def test_bounded_shed_passes_the_overage_budget(self):
        """Under ``bounded`` the pressure loop hands each resident agent
        the node's overage; under ``all`` it passes no budget and every
        evictable container dies."""
        from repro.faas.agent import Agent

        captured = {}
        original = Agent.request_reclaim

        def spy(self, need_bytes=None):
            captured.setdefault(self.vm.name, []).append(need_bytes)
            return original(self, need_bytes=need_bytes)

        for shed in ("all", "bounded"):
            captured.clear()
            sim = Simulator()
            fleet = Fleet(
                sim,
                hosts=1,
                nodes_per_host=1,
                memory_per_node=4 * GIB,
                arbitration=ArbitrationPolicy(
                    pressure_watermark=0.05, pressure_shed=shed
                ),
            )
            handle = fleet.provision(
                VmSpec("pressured", region_bytes=GIB)
            )
            from repro.faas.agent import FunctionDeployment
            from repro.faas.policy import KeepAlivePolicy
            from repro.units import SEC
            from repro.workloads.functions import get_function

            handle.deploy(
                [FunctionDeployment(get_function("html"), max_instances=1)],
                KeepAlivePolicy(keep_alive_ns=60 * SEC),
            )
            Agent.request_reclaim = spy
            try:
                fleet.start_pressure_monitor(period_ns=SEC, until_ns=2 * SEC)
                sim.run(until=3 * SEC)
            finally:
                Agent.request_reclaim = original
            budgets = captured["pressured"]
            assert budgets, f"no pressure pass under {shed!r}"
            if shed == "all":
                assert all(b is None for b in budgets)
            else:
                assert all(b is not None and b > 0 for b in budgets)
