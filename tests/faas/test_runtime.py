"""Unit tests for the FaaS runtime controller."""

import pytest

from repro.errors import FaasError
from repro.faas.agent import Agent, FunctionDeployment
from repro.faas.policy import KeepAlivePolicy
from repro.faas.runtime import FaasRuntime
from repro.modes import VANILLA
from repro.units import SEC
from repro.workloads.functions import get_function
from repro.workloads.traces import InvocationTrace


@pytest.fixture
def runtime(sim):
    return FaasRuntime(sim)


@pytest.fixture
def agent(sim, vanilla_vm):
    return Agent(
        sim,
        vanilla_vm,
        [FunctionDeployment(get_function("html"), max_instances=4)],
        KeepAlivePolicy(keep_alive_ns=60 * SEC),
        VANILLA,
    )


def test_register_agent_twice_rejected(runtime, agent):
    runtime.register_agent(agent)
    with pytest.raises(FaasError):
        runtime.register_agent(agent)


def test_drive_replays_every_arrival(sim, runtime, agent):
    trace = InvocationTrace("html", [0, SEC, 2 * SEC])
    runtime.drive(agent, trace)
    runtime.run(until_ns=30 * SEC)
    assert len(runtime.records) == 3
    assert all(r.ok for r in runtime.records)


def test_arrival_times_respected(sim, runtime, agent):
    trace = InvocationTrace("html", [5 * SEC])
    runtime.drive(agent, trace)
    runtime.run(until_ns=30 * SEC)
    assert runtime.records[0].arrival_ns == 5 * SEC


def test_records_filtered_by_function(sim, runtime, agent):
    trace = InvocationTrace("html", [0])
    runtime.drive(agent, trace)
    runtime.run(until_ns=10 * SEC)
    assert len(runtime.records_for("html")) == 1
    assert runtime.records_for("other") == []


def test_successful_records_and_failures(sim, runtime, agent):
    trace = InvocationTrace("html", [0, 0])
    runtime.drive(agent, trace)
    runtime.run(until_ns=10 * SEC)
    assert len(runtime.successful_records()) == 2
    assert runtime.failure_count == 0


def test_drive_auto_registers_agent(sim, runtime, agent):
    trace = InvocationTrace("html", [0])
    runtime.drive(agent, trace)
    assert agent.vm.name in runtime.agents


def test_concurrent_traces_interleave(sim, runtime, agent):
    early = InvocationTrace("html", [0, SEC])
    late = InvocationTrace("html", [int(0.5 * SEC)])
    runtime.drive(agent, early)
    runtime.drive(agent, late)
    runtime.run(until_ns=30 * SEC)
    assert len(runtime.records) == 3
