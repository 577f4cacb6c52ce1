"""Generic time-series collection for experiment instrumentation.

Two storage models live here:

- :class:`TimeSeries` — the exact append-only ``(time_ns, value)`` log.
  Memory grows with samples, so it is reserved for short-horizon rigs;
  the ``no-unbounded-series`` lint rule flags any new use inside
  simulator loops under ``cluster/``/``metrics/``.
- :class:`~repro.obs.rollup.RollupSeries` — the bounded-memory rollup
  the fleet collector records into: per-bucket aggregates with
  deterministic compaction, O(buckets) resident no matter the horizon.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.obs.rollup import RollupSeries
from repro.obs.session import context_for
from repro.sim.engine import Process, Simulator, Timeout
from repro.units import SEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.provision import Fleet

__all__ = ["TimeSeries", "PeriodicSampler", "FleetCollector"]


class TimeSeries:
    """An append-only ``(time_ns, value)`` series (exact, unbounded).

    ``kind`` names the measured quantity (``used``, ``committed``, ...)
    so rollup consumers never have to parse display names.
    """

    def __init__(self, name: str = "", kind: str = ""):
        self.name = name
        self.kind = kind
        self.samples: List[Tuple[int, float]] = []

    def record(self, time_ns: int, value: float) -> None:
        """Append one sample (times must be non-decreasing, values finite)."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(
                f"{self.name}: non-finite sample {value!r} at {time_ns}"
            )
        if self.samples and time_ns < self.samples[-1][0]:
            raise ValueError(
                f"{self.name}: sample at {time_ns} before {self.samples[-1][0]}"
            )
        self.samples.append((time_ns, value))

    def __len__(self) -> int:
        return len(self.samples)

    def values(self) -> List[float]:
        """Just the sampled values, in time order."""
        return [v for _, v in self.samples]

    def times_s(self) -> List[float]:
        """Sample times in seconds."""
        return [t / SEC for t, _ in self.samples]

    def last(self) -> Tuple[int, float]:
        """The most recent sample."""
        if not self.samples:
            raise ValueError(f"{self.name}: empty series")
        return self.samples[-1]

    def max_value(self) -> float:
        """Largest sampled value."""
        if not self.samples:
            raise ValueError(f"{self.name}: empty series")
        return max(v for _, v in self.samples)

    def delta(self) -> float:
        """Last value minus first value (useful for cumulative series)."""
        if not self.samples:
            return 0.0
        return self.samples[-1][1] - self.samples[0][1]


class PeriodicSampler:
    """Samples a callable into a :class:`TimeSeries` on a fixed period.

    Exact by design: small rigs want every sample back.  Long-horizon
    collection belongs to :class:`FleetCollector`.
    """

    def __init__(
        self,
        sim: Simulator,
        probe: Callable[[], float],
        period_ns: int,
        name: str = "sampler",
    ):
        if period_ns <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.probe = probe
        self.period_ns = period_ns
        self.series = TimeSeries(name)  # lint: allow[no-unbounded-series] exact-mode rig sampler, horizon-bounded
        self._stop = False
        self._process: Optional[Process] = None

    def start(self, until_ns: Optional[int] = None) -> Process:
        """Start sampling (one sample immediately, then every period)."""
        self._process = self.sim.spawn(self._loop(until_ns), name=self.series.name)
        return self._process

    def stop(self) -> None:
        """Stop after the current period elapses."""
        self._stop = True

    def _loop(self, until_ns: Optional[int]):
        while not self._stop:
            if until_ns is not None and self.sim.now > until_ns:
                break
            self.series.record(self.sim.now, float(self.probe()))  # lint: allow[no-unbounded-series] exact-mode rig sampler, horizon-bounded
            yield Timeout(self.period_ns)
        return self.series


class FleetCollector:
    """Aligned per-node memory timelines for a whole fleet.

    One sampling loop records, for every NUMA node of every host, both
    the *used* bytes (what VMs actually back right now) and the
    *committed* bytes (what admission has promised) at the same
    instants.

    Every series is a :class:`~repro.obs.rollup.RollupSeries` capped at
    ``max_buckets`` resident buckets, and per-host sums are recorded
    *at sample time*, in host→node order (the same float accumulation
    as an exact pointwise sum of the node series, so peaks agree
    bit-for-bit) — resident memory is O(hosts × nodes × buckets),
    independent of the simulated horizon.  All series register with the
    simulator's obs context, so ``--trace`` exports them as ``rollup``
    rows for ``python -m repro.experiments report``.
    """

    def __init__(
        self,
        sim: Simulator,
        fleet: "Fleet",
        period_ns: int,
        max_buckets: int = 256,
        labels: Optional[Dict[str, object]] = None,
    ):
        if period_ns <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.fleet = fleet
        self.period_ns = period_ns
        self.max_buckets = max_buckets
        self.labels: Dict[str, object] = dict(labels or {})
        #: (host_index, node_id) → used-bytes series.
        self.used: Dict[Tuple[int, int], RollupSeries] = {}
        #: (host_index, node_id) → committed-bytes series.
        self.committed: Dict[Tuple[int, int], RollupSeries] = {}
        #: host_index → directly-recorded host-sum series.
        self._host_used: Dict[int, RollupSeries] = {}
        self._host_committed: Dict[int, RollupSeries] = {}
        obs = context_for(sim)
        for host_index, host in enumerate(fleet.hosts):
            for node in host.nodes:
                key = (host_index, node.node_id)
                self.used[key] = self._rollup("used", host_index, node.node_id)
                self.committed[key] = self._rollup(
                    "committed", host_index, node.node_id
                )
                obs.register_rollup(self.used[key])
                obs.register_rollup(self.committed[key])
            self._host_used[host_index] = self._rollup("used", host_index, None)
            self._host_committed[host_index] = self._rollup(
                "committed", host_index, None
            )
            obs.register_rollup(self._host_used[host_index])
            obs.register_rollup(self._host_committed[host_index])
        self._stop = False
        self._process: Optional[Process] = None

    def _rollup(
        self, kind: str, host_index: int, node_id: Optional[int]
    ) -> RollupSeries:
        suffix = f"h{host_index}" if node_id is None else f"h{host_index}n{node_id}"
        labels: Dict[str, object] = dict(self.labels)
        labels["host"] = host_index
        if node_id is not None:
            labels["node"] = node_id
        return RollupSeries(
            f"{kind}-{suffix}",
            kind=kind,
            max_buckets=self.max_buckets,
            labels=labels,
        )

    def start(self, until_ns: Optional[int] = None) -> Process:
        """Start sampling (one sample immediately, then every period)."""
        self._process = self.sim.spawn(self._loop(until_ns), name="fleet-collector")
        return self._process

    def stop(self) -> None:
        """Stop after the current period elapses."""
        self._stop = True

    def _loop(self, until_ns: Optional[int]):
        while not self._stop:
            if until_ns is not None and self.sim.now > until_ns:
                break
            self._sample(self.sim.now)
            yield Timeout(self.period_ns)
        return None

    def _sample(self, now: int) -> None:
        """Record one aligned snapshot of every node and host sum."""
        for host_index, host in enumerate(self.fleet.hosts):
            used_total = 0.0
            committed_total = 0.0
            for node in host.nodes:
                key = (host_index, node.node_id)
                used = float(node.used_bytes)
                committed = float(
                    self.fleet.arbiter.committed_bytes(
                        host_index, node.node_id
                    )
                )
                self.used[key].record(now, used)
                self.committed[key].record(now, committed)
                used_total += used
                committed_total += committed
            self._host_used[host_index].record(now, used_total)
            self._host_committed[host_index].record(now, committed_total)

    # -- rollups -------------------------------------------------------
    def host_used_series(self, host_index: int) -> RollupSeries:
        """Summed used bytes across one host's nodes."""
        if host_index not in self._host_used:
            raise ValueError(f"no series for host {host_index}")
        return self._host_used[host_index]

    def host_committed_series(self, host_index: int) -> RollupSeries:
        """Summed committed bytes across one host's nodes."""
        if host_index not in self._host_committed:
            raise ValueError(f"no series for host {host_index}")
        return self._host_committed[host_index]

    def peak_used_bytes(self, host_index: int) -> float:
        """Peak of the host's summed used-bytes timeline."""
        return self.host_used_series(host_index).max_value()

    def bucket_count(self) -> int:
        """Total resident rollup buckets (the memory bound)."""
        series = [*self.used.values(), *self.committed.values()]
        series += [*self._host_used.values(), *self._host_committed.values()]
        return sum(s.bucket_count() for s in series)
