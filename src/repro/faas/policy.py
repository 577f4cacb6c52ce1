"""Scaling policy knobs for the serverless runtime.

Deployment modes live in :mod:`repro.modes`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import SEC

__all__ = ["KeepAlivePolicy"]


@dataclass(frozen=True)
class KeepAlivePolicy:
    """Idle-container recycling policy (Section 5.5).

    Containers idle longer than ``keep_alive_ns`` are evicted by a
    recycler that runs every ``recycle_interval_ns`` (the paper uses a
    120 s keep-alive for the interference experiment).

    ``spare_slots`` keeps that many instance-slots' worth of memory
    plugged past the target when shrinking — the idle-buffer idea of the
    memory-harvesting line of work the paper cites ([28]): the next cold
    start skips its plug entirely (and, under HotMem, attaches to an
    already-populated partition), trading host memory for cold-start
    latency.

    ``eviction`` names the :mod:`repro.faas.lifecycle` policy that
    orders evictions within a recycle pass (``ttl``, the default, is
    the historical pool-scan order; see ``docs/policies.md``).  The
    keep-alive window decides *when* a container becomes evictable; the
    eviction policy decides *which order* evictable containers die in.
    """

    keep_alive_ns: int = 120 * SEC
    recycle_interval_ns: int = 15 * SEC
    spare_slots: int = 0
    eviction: str = "ttl"

    def __post_init__(self) -> None:
        if self.keep_alive_ns < 0:
            raise ConfigError("keep_alive must be non-negative")
        if self.recycle_interval_ns <= 0:
            raise ConfigError("recycle interval must be positive")
        if self.spare_slots < 0:
            raise ConfigError("spare_slots must be non-negative")
        # Fail fast on unknown policy names (the agent would otherwise
        # only notice at construction time, deep inside a sweep cell).
        from repro.faas.lifecycle import get_policy

        get_policy(self.eviction)
