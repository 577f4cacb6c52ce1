"""The serverless runtime: controller, in-VM agent, containers, policy.

Implements the OpenWhisk-based integration of Section 4.1: scale-up
couples container spawn with a plug request sized to the function's
memory limit; scale-down couples keep-alive eviction with an unplug
request for the freed memory.
"""

from repro.faas.agent import Agent, FunctionDeployment, ShrinkEvent
from repro.faas.container import Container, ContainerState
from repro.faas.lifecycle import (
    ContainerStats,
    EvictionPolicy,
    get_policy,
    policy_names,
    register_policy,
    registered_policies,
)
from repro.faas.policy import KeepAlivePolicy
from repro.faas.records import EvictionRecord, InvocationRecord
from repro.faas.runtime import FaasRuntime

__all__ = [
    "Agent",
    "FunctionDeployment",
    "ShrinkEvent",
    "Container",
    "ContainerState",
    "ContainerStats",
    "EvictionPolicy",
    "EvictionRecord",
    "KeepAlivePolicy",
    "InvocationRecord",
    "FaasRuntime",
    "get_policy",
    "policy_names",
    "register_policy",
    "registered_policies",
]
