"""Invocation and eviction records produced by the runtime (inputs to
every latency metric in the evaluation, and to the trace report's
cold-start attribution)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["InvocationRecord", "EvictionRecord"]


@dataclass
class InvocationRecord:
    """The life of one request, timestamped by the runtime.

    ``latency_ns`` is end-to-end: arrival at the runtime to response,
    including queueing, cold-start work and any plug latency on the
    critical path — exactly what Figures 9 and 10 report.
    """

    function: str
    arrival_ns: int
    start_ns: int
    end_ns: int
    cold: bool
    ok: bool
    error: str = ""

    @property
    def cold_start(self) -> bool:
        """Whether serving this request required a cold start."""
        return self.cold

    @property
    def latency_ns(self) -> int:
        """End-to-end latency (arrival → completion)."""
        return self.end_ns - self.arrival_ns

    @property
    def queue_ns(self) -> int:
        """Time spent before a container started working on the request."""
        return self.start_ns - self.arrival_ns


@dataclass(frozen=True)
class EvictionRecord:
    """One container eviction, attributed to the policy that chose it.

    ``policy`` and ``rank`` say *which* lifecycle policy picked the
    victim and where in its eviction order the victim sat (0 = most
    evictable), so the trace report can tie later cold starts of
    ``function`` back to the eviction decision that caused them.
    ``pressure`` marks fleet-watermark sheds (as opposed to routine
    keep-alive expiry).
    """

    time_ns: int
    function: str
    cid: int
    policy: str
    rank: int
    idle_ns: int
    memory_bytes: int
    pressure: bool = False
