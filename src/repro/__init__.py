"""HotMem/Squeezy reproduction: rapid VM memory reclamation for serverless.

A full-stack discrete-event simulation of the paper "Fast and Efficient
Memory Reclamation For Serverless MicroVMs" (HotMem): a Linux-shaped
guest memory manager, virtio-mem hot(un)plug, a Cloud-Hypervisor-shaped
VMM, the HotMem partition mechanism, and an OpenWhisk-shaped serverless
runtime — plus harnesses regenerating every table and figure of the
paper's evaluation.

Quick start::

    from repro import MicrobenchRig, MicrobenchSetup
    from repro.units import MIB

    rig = MicrobenchRig(MicrobenchSetup(mode="hotmem",
                                        total_bytes=3072 * MIB,
                                        partition_bytes=384 * MIB))
    print(rig.run_single_reclaim(768 * MIB).latency_ms, "ms")

See ``examples/`` for runnable end-to-end scenarios; every table and
figure regenerates with ``python -m repro.experiments <name>``.
"""

from repro.cluster import (
    AdmissionResult,
    ArbitrationPolicy,
    DensityArbiter,
    Fleet,
    TraceRouter,
    VmHandle,
    VmSpec,
)
from repro.core import (
    HotMemBackend,
    HotMemBootParams,
    HotMemManager,
    HotMemPartition,
    PartitionState,
)
from repro.experiments import (
    FunctionLoad,
    MicrobenchRig,
    MicrobenchSetup,
    ReclaimMeasurement,
    ServerlessRun,
    ServerlessScenario,
    run_scenario,
)
from repro.faas import (
    Agent,
    ContainerStats,
    EvictionPolicy,
    EvictionRecord,
    FaasRuntime,
    FunctionDeployment,
    InvocationRecord,
    KeepAlivePolicy,
    get_policy,
    policy_names,
    register_policy,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.faults.recovery import RecoveryEvent, RecoveryLog
from repro.host import HostMachine
from repro.modes import (
    DeploymentBackend,
    ReclaimDatapath,
    get_mode,
    register_mode,
    registered_modes,
    resolve_modes,
)
from repro.obs import (
    MetricsRegistry,
    ObsContext,
    ObsScope,
    ObsSession,
    Span,
    TraceReport,
    Tracer,
    build_report,
    export_session,
    load_report,
    read_trace,
    traced,
)
from repro.sim import CostModel, CpuCore, Event, Process, Simulator, Timeout
from repro.vmm import VirtualMachine, VmConfig
from repro.workloads import (
    TABLE1_FUNCTIONS,
    AzureTraceGenerator,
    FunctionSpec,
    InvocationTrace,
    Memhog,
    bursty_trace,
    get_function,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core (the paper's contribution)
    "HotMemBackend",
    "HotMemBootParams",
    "HotMemManager",
    "HotMemPartition",
    "PartitionState",
    # simulation substrate
    "Simulator",
    "Event",
    "Process",
    "Timeout",
    "CpuCore",
    "CostModel",
    # host + VMM
    "HostMachine",
    "VirtualMachine",
    "VmConfig",
    # cluster layer (provisioning, routing, density arbitration)
    "Fleet",
    "VmSpec",
    "VmHandle",
    "TraceRouter",
    "DensityArbiter",
    "ArbitrationPolicy",
    "AdmissionResult",
    # deployment-mode registry
    "DeploymentBackend",
    "ReclaimDatapath",
    "get_mode",
    "register_mode",
    "registered_modes",
    "resolve_modes",
    # serverless runtime
    "Agent",
    "ContainerStats",
    "EvictionPolicy",
    "EvictionRecord",
    "FaasRuntime",
    "FunctionDeployment",
    "InvocationRecord",
    "KeepAlivePolicy",
    "get_policy",
    "policy_names",
    "register_policy",
    # workloads
    "TABLE1_FUNCTIONS",
    "FunctionSpec",
    "get_function",
    "Memhog",
    "AzureTraceGenerator",
    "InvocationTrace",
    "bursty_trace",
    # observability (spans, metrics, trace export + attribution)
    "Span",
    "Tracer",
    "MetricsRegistry",
    "ObsContext",
    "ObsScope",
    "ObsSession",
    "traced",
    "export_session",
    "read_trace",
    "TraceReport",
    "build_report",
    "load_report",
    # fault injection + recovery
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "RetryPolicy",
    "ResiliencePolicy",
    "RecoveryEvent",
    "RecoveryLog",
    # experiment harnesses
    "MicrobenchRig",
    "MicrobenchSetup",
    "ReclaimMeasurement",
    "FunctionLoad",
    "ServerlessScenario",
    "ServerlessRun",
    "run_scenario",
]
