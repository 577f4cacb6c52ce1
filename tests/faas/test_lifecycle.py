"""Unit tests for the pluggable container-lifecycle policies.

Covers the policy contract (rank is a permutation over idle candidates
only), the registry, every built-in's ordering, and the golden gate:
the default ``ttl`` policy reproduces the pre-refactor recycler's
eviction order exactly on a recorded multi-function scenario.
"""

import pytest

from repro.errors import ConfigError, FaasError
from repro.faas import lifecycle
from repro.faas.agent import Agent, FunctionDeployment
from repro.faas.lifecycle import (
    ContainerStats,
    EvictionPolicy,
    GreedyDualPolicy,
    TtlPolicy,
    get_policy,
    policy_names,
    register_policy,
    registered_policies,
    resolve_policies,
)
from repro.faas.policy import KeepAlivePolicy
from repro.modes import VANILLA
from repro.sim.engine import Timeout
from repro.units import MIB, SEC
from repro.workloads.functions import get_function

BUILTINS = ("ttl", "rand", "least-used", "max-mem", "greedy-dual")


class _FakeContainer:
    """Just enough container surface for policy-layer tests."""

    class _State:
        def __init__(self, value):
            self.value = value

    def __init__(self, cid, idle=True):
        self.cid = cid
        self._idle = idle
        self.state = self._State("idle" if idle else "busy")

    @property
    def is_idle(self):
        return self._idle


def stats(cid, idle_ns=20 * SEC, invocations=1, lifetime_ns=60 * SEC,
          memory_bytes=384 * MIB, spawn_cost_ns=100 * 10**6,
          pool_index=0, idle=True):
    return ContainerStats(
        container=_FakeContainer(cid, idle=idle),
        function=f"f{cid}",
        cid=cid,
        idle_ns=idle_ns,
        invocations=invocations,
        lifetime_ns=lifetime_ns,
        memory_bytes=memory_bytes,
        spawn_cost_ns=spawn_cost_ns,
        pool_index=pool_index,
    )


def pool(n=5):
    """A mixed candidate pool with distinct stats per container."""
    return [
        stats(
            cid,
            idle_ns=(cid + 1) * 2 * SEC,
            invocations=(7 * cid) % 5,
            memory_bytes=(128 + 128 * (cid % 3)) * MIB,
            spawn_cost_ns=(50 + 40 * cid) * 10**6,
            pool_index=cid,
        )
        for cid in range(n)
    ]


class TestPolicyContract:
    """Properties every registered policy must satisfy."""

    @pytest.mark.parametrize("name", BUILTINS)
    def test_rank_returns_a_permutation(self, name):
        candidates = pool()
        ranked = get_policy(name).rank(candidates, now_ns=100 * SEC)
        assert sorted(s.cid for s in ranked) == [s.cid for s in candidates]

    @pytest.mark.parametrize("name", BUILTINS)
    def test_rank_does_not_mutate_its_input(self, name):
        candidates = pool()
        before = [s.cid for s in candidates]
        get_policy(name).rank(candidates, now_ns=100 * SEC)
        assert [s.cid for s in candidates] == before

    @pytest.mark.parametrize("name", BUILTINS)
    def test_only_idle_candidates_are_ever_ranked(self, name):
        candidates = pool()
        candidates[2] = stats(2, pool_index=2, idle=False)
        with pytest.raises(FaasError, match="non-idle"):
            get_policy(name).victims(candidates, 100 * SEC, min_idle_ns=0)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_victims_respects_the_keep_alive_threshold(self, name):
        candidates = pool()
        chosen = get_policy(name).victims(
            candidates, 100 * SEC, min_idle_ns=5 * SEC
        )
        assert {s.cid for s in chosen} == {
            s.cid for s in candidates if s.idle_ns >= 5 * SEC
        }

    @pytest.mark.parametrize("name", BUILTINS)
    def test_need_bytes_cuts_the_ranked_prefix(self, name):
        candidates = pool()
        policy = get_policy(name)
        full = policy.victims(candidates, 100 * SEC, min_idle_ns=0)
        budget = full[0].memory_bytes  # first victim alone covers it
        cut = policy.victims(
            candidates, 100 * SEC, min_idle_ns=0, need_bytes=budget
        )
        assert [s.cid for s in cut] == [full[0].cid]

    def test_broken_policy_caught_by_permutation_check(self):
        class Dropping(EvictionPolicy):
            name = "dropping"

            def rank(self, candidates, now_ns):
                return list(candidates)[:-1]

        with pytest.raises(FaasError, match="permutation"):
            Dropping().victims(pool(), 100 * SEC, min_idle_ns=0)


class TestRegistry:
    def test_builtins_registered_in_order(self):
        names = policy_names()
        for name in BUILTINS:
            assert name in names

    def test_get_policy_returns_fresh_instances(self):
        a = get_policy("greedy-dual")
        b = get_policy("greedy-dual")
        assert a is not b
        a.note_eviction(stats(0), 10 * SEC)
        assert a._clock != b._clock

    def test_instances_pass_through(self):
        instance = TtlPolicy()
        assert get_policy(instance) is instance

    def test_unknown_policy_lists_registered_names(self):
        with pytest.raises(ConfigError, match="ttl"):
            get_policy("nope")

    def test_register_rejects_bad_names_and_reuse(self):
        class Upper(EvictionPolicy):
            name = "UPPER"

        class BadReuse(EvictionPolicy):
            name = "bad-reuse"
            reuse = "stack"

        with pytest.raises(ConfigError):
            register_policy(Upper)
        with pytest.raises(ConfigError):
            register_policy(BadReuse)

    def test_duplicate_registration_needs_replace(self):
        class Shadow(TtlPolicy):
            name = "ttl"

        with pytest.raises(ConfigError):
            register_policy(Shadow)
        register_policy(TtlPolicy, replace=True)  # restore the real one

    def test_registered_policies_are_fresh(self):
        first = registered_policies()
        second = registered_policies()
        assert [p.name for p in first] == list(policy_names())
        assert all(a is not b for a, b in zip(first, second))

    def test_resolve_policies_rejects_empty(self):
        with pytest.raises(ConfigError):
            resolve_policies([])

    def test_keep_alive_policy_validates_eviction_name(self):
        with pytest.raises(ConfigError):
            KeepAlivePolicy(eviction="nope")
        assert KeepAlivePolicy(eviction="greedy-dual").eviction == "greedy-dual"


class TestBuiltinsOrdering:
    def test_ttl_orders_by_pool_index(self):
        candidates = list(reversed(pool()))
        ranked = get_policy("ttl").rank(candidates, 100 * SEC)
        assert [s.pool_index for s in ranked] == [0, 1, 2, 3, 4]

    def test_least_used_evicts_the_idle_rich_last(self):
        candidates = [
            stats(0, invocations=9, pool_index=0),
            stats(1, invocations=0, pool_index=1),
            stats(2, invocations=3, pool_index=2),
        ]
        ranked = get_policy("least-used").rank(candidates, 100 * SEC)
        assert [s.cid for s in ranked] == [1, 2, 0]

    def test_max_mem_evicts_the_largest_first(self):
        candidates = [
            stats(0, memory_bytes=128 * MIB, pool_index=0),
            stats(1, memory_bytes=640 * MIB, pool_index=1),
            stats(2, memory_bytes=384 * MIB, pool_index=2),
        ]
        ranked = get_policy("max-mem").rank(candidates, 100 * SEC)
        assert [s.cid for s in ranked] == [1, 2, 0]

    def test_rand_is_deterministic_per_pass(self):
        candidates = pool()
        first = get_policy("rand").rank(candidates, 42 * SEC)
        second = get_policy("rand").rank(candidates, 42 * SEC)
        assert [s.cid for s in first] == [s.cid for s in second]

    def test_rand_reorders_across_pass_times(self):
        candidates = pool(8)
        orders = {
            tuple(s.cid for s in get_policy("rand").rank(candidates, t * SEC))
            for t in range(1, 20)
        }
        assert len(orders) > 1


class TestGreedyDual:
    def test_hot_cheap_container_outranks_cold_expensive_memory(self):
        hot = stats(0, invocations=50, lifetime_ns=10 * SEC,
                    memory_bytes=384 * MIB, spawn_cost_ns=160 * 10**6)
        cold = stats(1, invocations=1, lifetime_ns=60 * SEC,
                     memory_bytes=640 * MIB, spawn_cost_ns=350 * 10**6)
        ranked = GreedyDualPolicy().rank([hot, cold], 100 * SEC)
        # The cold, large container goes first; warmth is kept.
        assert [s.cid for s in ranked] == [1, 0]

    def test_clock_inflates_to_the_evicted_priority(self):
        policy = GreedyDualPolicy()
        victim = stats(0, invocations=10, lifetime_ns=10 * SEC)
        before = policy.priority(victim)
        policy.note_eviction(victim, 100 * SEC)
        assert policy._clock == pytest.approx(before)
        # Aging: a newborn's priority now starts at the inflated clock.
        newborn = stats(1, invocations=0, lifetime_ns=0)
        assert policy.priority(newborn) >= before

    def test_clock_never_regresses(self):
        policy = GreedyDualPolicy()
        policy.note_eviction(stats(0, invocations=10, lifetime_ns=SEC), SEC)
        high = policy._clock
        policy.note_eviction(stats(1, invocations=0, lifetime_ns=SEC), SEC)
        assert policy._clock >= high


# ----------------------------------------------------------------------
# Agent integration: the golden gate and the reuse property
# ----------------------------------------------------------------------
def two_function_agent(sim, vm, eviction="ttl", keep_alive_s=10):
    """html (hot/cheap) + bert (cold/expensive) on one vanilla VM."""
    return Agent(
        sim,
        vm,
        [
            FunctionDeployment(get_function("html"), max_instances=3),
            FunctionDeployment(get_function("bert"), max_instances=2),
        ],
        KeepAlivePolicy(
            keep_alive_ns=keep_alive_s * SEC,
            recycle_interval_ns=5 * SEC,
            eviction=eviction,
        ),
        VANILLA,
    )


def legacy_eviction_order(agent, now_ns, keep_alive_ns):
    """The pre-refactor recycler scan, reimplemented verbatim: function
    insertion order, then idle-list order, filtered by keep-alive."""
    order = []
    for state in agent.functions.values():
        for container in state.idle:
            if container.idle_for_ns(now_ns) >= keep_alive_ns:
                order.append(container.cid)
    return order


def populate(sim, agent):
    """3 html + 2 bert idle containers with staggered idle times."""

    def scenario():
        burst = [sim.spawn(agent.handle("html", sim.now)) for _ in range(3)]
        for process in burst:
            yield process
        yield Timeout(4 * SEC)
        burst = [sim.spawn(agent.handle("bert", sim.now)) for _ in range(2)]
        for process in burst:
            yield process

    sim.run_process(scenario())


class TestGoldenTtl:
    def test_ttl_reproduces_the_pre_refactor_scan_order(self, sim, vanilla_vm):
        agent = two_function_agent(sim, vanilla_vm, eviction="ttl")
        populate(sim, agent)

        def recycle():
            yield Timeout(30 * SEC)
            expected = legacy_eviction_order(
                agent, sim.now, agent.policy.keep_alive_ns
            )
            evicted = yield from agent.recycle_pass()
            return expected, evicted

        expected, evicted = sim.run_process(recycle())
        assert evicted == len(expected) == 5
        assert [r.cid for r in agent.eviction_records] == expected
        # Golden shape: html's pool drains before bert's (deployment
        # order), each pool front-to-back.
        assert [r.function for r in agent.eviction_records] == (
            ["html"] * 3 + ["bert"] * 2
        )

    def test_ttl_partial_expiry_matches_legacy(self, sim, vanilla_vm):
        """Only html is past keep-alive at recycle time: the legacy scan
        and the policy agree on the filtered subset too."""
        agent = two_function_agent(sim, vanilla_vm, eviction="ttl", keep_alive_s=12)
        populate(sim, agent)

        def recycle():
            # html idle ~16s (> 12s); bert idle ~11.6s (< 12s).
            yield Timeout(16 * SEC - sim.now)
            expected = legacy_eviction_order(
                agent, sim.now, agent.policy.keep_alive_ns
            )
            yield from agent.recycle_pass()
            return expected

        expected = sim.run_process(recycle())
        assert [r.cid for r in agent.eviction_records] == expected
        assert all(r.function == "html" for r in agent.eviction_records)
        assert agent.idle_instances("bert") == 2


class TestAgentPolicyIntegration:
    def test_max_mem_pressure_sacrifices_the_big_container(self, sim, vanilla_vm):
        agent = two_function_agent(sim, vanilla_vm, eviction="max-mem")
        populate(sim, agent)
        agent.request_reclaim(need_bytes=1)
        sim.run()
        # Bounded shed: one victim covers a 1-byte budget, and max-mem
        # picks the largest (bert) even though html is older.
        assert len(agent.eviction_records) == 1
        record = agent.eviction_records[0]
        assert record.function == "bert"
        assert record.pressure
        assert record.policy == "max-mem"
        assert record.rank == 0

    def test_eviction_records_carry_policy_and_rank(self, sim, vanilla_vm):
        agent = two_function_agent(sim, vanilla_vm, eviction="least-used")
        populate(sim, agent)

        def scenario():
            yield Timeout(30 * SEC)
            yield from agent.recycle_pass()

        sim.run_process(scenario())
        records = agent.eviction_records
        assert [r.rank for r in records] == list(range(len(records)))
        assert {r.policy for r in records} == {"least-used"}
        assert all(not r.pressure for r in records)
        assert agent.shrink_events[0].policy == "least-used"

    def test_reuse_order_is_a_policy_property(self, sim, vanilla_vm):
        class FifoTtl(TtlPolicy):
            name = "fifo-ttl"
            reuse = "fifo"

        register_policy(FifoTtl)
        try:
            agent = two_function_agent(sim, vanilla_vm, eviction="fifo-ttl")
            state = agent.functions["html"]
            assert agent._reuse(state) == "fifo"
            # A deployment pin still wins over the policy's preference.
            pinned = FunctionDeployment(
                get_function("cnn"), max_instances=1, reuse="lifo"
            )
            state.deployment = pinned
            assert agent._reuse(state) == "lifo"
        finally:
            lifecycle._REGISTRY.pop("fifo-ttl", None)
