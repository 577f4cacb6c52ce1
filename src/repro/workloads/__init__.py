"""Workloads: the Table 1 functions, memhog, and Azure-like traces."""

from repro.workloads.azure import (
    AzureTraceGenerator,
    RatePhase,
    bursty_trace,
    diurnal_phases,
)
from repro.workloads.functions import TABLE1_FUNCTIONS, FunctionSpec, get_function
from repro.workloads.memhog import Memhog
from repro.workloads.traces import InvocationTrace

__all__ = [
    "AzureTraceGenerator",
    "RatePhase",
    "bursty_trace",
    "diurnal_phases",
    "TABLE1_FUNCTIONS",
    "FunctionSpec",
    "get_function",
    "Memhog",
    "InvocationTrace",
]
