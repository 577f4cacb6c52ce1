"""Fleet failure recovery: evacuation, circuit breaking, watchdogging.

This module is the recovery half of the fleet failure domains
(:mod:`repro.faults.domains` is the injection half).  It owns four
pieces:

* :class:`CircuitBreaker` — the router's per-VM closed → open →
  half-open state machine.  Consecutive failures trip it open; after a
  reset timeout it admits a bounded number of probes half-open, and one
  probe outcome decides between closing and re-opening.  Every state
  change is a :class:`BreakerTransition` *value* the caller must check
  (the ``unchecked-result`` lint rule knows about it).
* :class:`EvacuationResult` — the outcome of re-provisioning a crashed
  host's VMs through normal placement/admission, evacuated and rejected
  names both spelled out.
* :class:`Watchdog` — detects wedged recyclers purely from heartbeat
  staleness (it never reads the wedge flag: detection must work the way
  a real control plane's would) and hands them to a remediation
  callback.
* :class:`FailoverCoordinator` — the :class:`~repro.faults.domains
  .DomainTarget` implementation that glues the above to the
  :class:`~repro.cluster.provision.Fleet` and
  :class:`~repro.cluster.routing.TraceRouter`: host crashes retire and
  fail over the victims' routes, kill the VMs atomically (ledger
  reconciled in the same callback) and evacuate the spec elsewhere;
  OOM-kills do the same for one VM; pressure spikes squeeze a node
  through the fleet's external accounts; link losses flip the router's
  link state and heal after an outage window.  Every failure window is
  a ``repro.obs`` span parented on the triggering fault's span, and
  every injected fault is eventually resolved (the ``unresolved() == 0``
  completeness gate holds across a whole storm).

See ``docs/faults.md`` ("Failure domains") for the full flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.faults.domains import DomainScheduler
from repro.faults.injector import FaultInjector, InjectedFault
from repro.faults.recovery import RecoveryLog
from repro.faults.sites import (
    AGENT_WEDGE,
    HOST_CRASH,
    HOST_PRESSURE_SPIKE,
    ROUTER_LINK_DOWN,
    VM_OOM_KILL,
)
from repro.obs.span import NULL_SPAN, SpanLike
from repro.sim.engine import Process, Simulator, Timeout
from repro.units import MS, SEC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.provision import Fleet, VmHandle
    from repro.cluster.routing import TraceRouter
    from repro.faas.agent import Agent

__all__ = [
    "BreakerPolicy",
    "BreakerTransition",
    "CircuitBreaker",
    "EvacuationResult",
    "FailoverPolicy",
    "Watchdog",
    "FailoverCoordinator",
]


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BreakerTransition:
    """One circuit-breaker state change — a value the caller must check."""

    vm: str
    from_state: str
    to_state: str
    time_ns: int
    #: Consecutive failures observed when the transition happened.
    consecutive_failures: int


@dataclass(frozen=True)
class BreakerPolicy:
    """Knobs for the router's per-VM circuit breakers."""

    #: Consecutive failures that trip the breaker open.
    failure_threshold: int = 3
    #: Open-state dwell before probing half-open.
    reset_timeout_ns: int = 500 * MS
    #: Probes admitted while half-open (further traffic is refused until
    #: a probe outcome decides the state).
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold <= 0:
            raise ConfigError(
                f"failure_threshold must be positive, got {self.failure_threshold}"
            )
        if self.reset_timeout_ns <= 0:
            raise ConfigError("reset_timeout_ns must be positive")
        if self.half_open_probes <= 0:
            raise ConfigError(
                f"half_open_probes must be positive, got {self.half_open_probes}"
            )


class CircuitBreaker:
    """Closed → open → half-open state machine for one VM's route.

    The router polls :meth:`poll` before eligibility checks (open
    breakers move to half-open once the reset timeout elapses), gates
    dispatch on :meth:`allows`, counts half-open probes via
    :meth:`on_dispatch`, and reports outcomes through
    :meth:`record_success` / :meth:`record_failure`.  The three
    outcome-bearing methods return the :class:`BreakerTransition` they
    caused (or ``None``); callers must inspect it — transitions are how
    breaker activity reaches traces and reports.
    """

    def __init__(self, vm: str, policy: BreakerPolicy):
        self.vm = vm
        self.policy = policy
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_ns: Optional[int] = None
        self.half_open_inflight = 0

    def _transition(self, to_state: str, now: int) -> BreakerTransition:
        transition = BreakerTransition(
            vm=self.vm,
            from_state=self.state,
            to_state=to_state,
            time_ns=now,
            consecutive_failures=self.consecutive_failures,
        )
        self.state = to_state
        return transition

    def poll(self, now: int) -> Optional[BreakerTransition]:
        """Advance open → half-open once the reset timeout elapses."""
        if self.state != "open" or self.opened_ns is None:
            return None
        if now - self.opened_ns < self.policy.reset_timeout_ns:
            return None
        self.half_open_inflight = 0
        return self._transition("half-open", now)

    def allows(self) -> bool:
        """Whether another dispatch may pass the breaker right now."""
        if self.state == "closed":
            return True
        if self.state == "half-open":
            return self.half_open_inflight < self.policy.half_open_probes
        return False

    def on_dispatch(self) -> None:
        """Count a dispatch that passed a half-open breaker (a probe)."""
        if self.state == "half-open":
            self.half_open_inflight += 1

    def record_success(self, now: int) -> Optional[BreakerTransition]:
        """A routed invocation succeeded; half-open closes on proof."""
        self.consecutive_failures = 0
        if self.state == "half-open":
            self.half_open_inflight = 0
            return self._transition("closed", now)
        return None

    def record_failure(self, now: int) -> Optional[BreakerTransition]:
        """A routed invocation failed; enough in a row trip the breaker."""
        self.consecutive_failures += 1
        if self.state == "half-open":
            self.half_open_inflight = 0
            self.opened_ns = now
            return self._transition("open", now)
        if (
            self.state == "closed"
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self.opened_ns = now
            return self._transition("open", now)
        return None

    def __repr__(self) -> str:
        return (
            f"<CircuitBreaker {self.vm} {self.state} "
            f"failures={self.consecutive_failures}>"
        )


# ----------------------------------------------------------------------
# Evacuation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvacuationResult:
    """Outcome of evacuating one crashed host — a value, never a raise."""

    host_index: int
    #: Replacement VM names successfully re-admitted elsewhere.
    evacuated: Tuple[str, ...]
    #: Victim VM names whose spec no surviving host would admit.
    rejected: Tuple[str, ...]
    completed_ns: int

    @property
    def ok(self) -> bool:
        """Whether every victim found a new home."""
        return not self.rejected


@dataclass(frozen=True)
class FailoverPolicy:
    """Timing knobs for the fleet's failure recovery machinery."""

    #: Per-VM re-provisioning penalty during an evacuation (boot + image
    #: pull on the new host; paid serially per victim).
    evacuation_coldstart_ns: int = 250 * MS
    #: Fraction of a node's *free* bytes a pressure spike squeezes.
    spike_fraction: float = 0.5
    #: How long a pressure spike squats on the node.
    spike_duration_ns: int = 1 * SEC
    #: How long a router↔VM link stays down before healing.
    link_outage_ns: int = 500 * MS
    #: Watchdog sampling cadence.
    watchdog_interval_ns: int = 250 * MS
    #: Heartbeat staleness that marks a recycler wedged.  Must exceed
    #: the agents' recycle interval or healthy recyclers get flagged.
    watchdog_timeout_ns: int = 2 * SEC

    def __post_init__(self) -> None:
        for name in (
            "evacuation_coldstart_ns",
            "spike_duration_ns",
            "link_outage_ns",
            "watchdog_interval_ns",
            "watchdog_timeout_ns",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 <= self.spike_fraction <= 1.0:
            raise ConfigError(
                f"spike_fraction must be in [0, 1], got {self.spike_fraction}"
            )


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------
class Watchdog:
    """Detect wedged recyclers from heartbeat staleness alone.

    Samples every live agent on a fixed cadence; an agent whose recycler
    should still be running but whose last heartbeat is older than the
    timeout is handed to ``on_wedge(vm_name, agent)``.  Detection never
    reads the agent's wedge flag — staleness is the only signal, exactly
    as an external control plane would see it.
    """

    def __init__(
        self,
        sim: Simulator,
        agents_fn: Callable[[], List["Agent"]],
        on_wedge: Callable[[str, "Agent"], None],
        interval_ns: int,
        timeout_ns: int,
        until_ns: int,
    ):
        if interval_ns <= 0 or timeout_ns <= 0:
            raise ConfigError("watchdog interval and timeout must be positive")
        self.sim = sim
        self.agents_fn = agents_fn
        self.on_wedge = on_wedge
        self.interval_ns = int(interval_ns)
        self.timeout_ns = int(timeout_ns)
        self.until_ns = int(until_ns)
        self.detections = 0
        self._stopped = False
        self.process: Optional[Process] = None

    def start(self) -> Process:
        """Spawn the sampling loop (idempotent)."""
        if self.process is None:
            self.process = self.sim.spawn(self._run(), name="fleet-watchdog")
        return self.process

    def stop(self) -> None:
        self._stopped = True

    def _run(self):
        while not self._stopped and self.sim.now + self.interval_ns <= self.until_ns:
            yield Timeout(self.interval_ns)
            if self._stopped:
                break
            now = self.sim.now
            for agent in self.agents_fn():
                if self._suspect(agent, now):
                    self.detections += 1
                    self.on_wedge(agent.vm.name, agent)
        return self.detections

    def _suspect(self, agent: "Agent", now: int) -> bool:
        if agent._stopped or not agent.vm._alive:
            return False
        if agent._recycler is None or agent.last_heartbeat_ns is None:
            return False
        until = agent._recycler_until
        if until is not None and now > until:
            # The recycler's horizon passed; silence is legitimate.
            return False
        return now - agent.last_heartbeat_ns > self.timeout_ns


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
class FailoverCoordinator:
    """The fleet's repair crew: turns injected domain faults into
    retire/fail-over/kill/evacuate/heal sequences.

    Implements :class:`~repro.faults.domains.DomainTarget`.  All state
    mutation that must be atomic from the sanitizer's point of view
    (killing VMs, reconciling the arbiter ledger) happens inside the
    fault-dispatch callback; only the *recovery* work that takes
    simulated time (evacuation cold starts, spike and outage windows)
    runs as spawned processes — each of which resolves its fault in a
    ``finally``, so the completeness gate survives truncation.
    """

    def __init__(
        self,
        fleet: "Fleet",
        router: "TraceRouter",
        injector: FaultInjector,
        policy: Optional[FailoverPolicy] = None,
    ):
        self.fleet = fleet
        self.router = router
        self.injector = injector
        self.policy = policy if policy is not None else FailoverPolicy()
        self.sim = fleet.sim
        #: Coordinator spans and metrics carry ``vm="fleet"``, which sets
        #: them apart from per-VM ones in the export (and its digest).
        self.obs = fleet._obs_context.scope(vm="fleet")
        self.recovery = RecoveryLog(obs=self.obs)
        self.injector.bind_sim(self.sim)
        self.injector.bind_obs(self.obs)
        #: Router-side recovery (deadline sheds, failovers) lands in the
        #: same fleet-level log.
        router.recovery = self.recovery
        #: vm name → unresolved ``agent.wedge`` fault awaiting detection.
        self._pending_wedges: Dict[str, InjectedFault] = {}
        self.evacuations: List[EvacuationResult] = []
        self.scheduler: Optional[DomainScheduler] = None
        self.watchdog: Optional[Watchdog] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, tick_ns: int, until_ns: int, seed: int = 0) -> None:
        """Arm the domain scheduler and the watchdog up to ``until_ns``."""
        self.scheduler = DomainScheduler(
            self.sim,
            self.injector,
            target=self,
            tick_ns=tick_ns,
            until_ns=until_ns,
            seed=seed,
        )
        self.scheduler.start()
        self.watchdog = Watchdog(
            self.sim,
            agents_fn=self.fleet.agents,
            on_wedge=self._on_wedge_detected,
            interval_ns=self.policy.watchdog_interval_ns,
            timeout_ns=self.policy.watchdog_timeout_ns,
            until_ns=until_ns,
        )
        self.watchdog.start()

    def finalize(self) -> None:
        """Wind the storm down; resolve wedges nobody got to detect."""
        if self.scheduler is not None:
            self.scheduler.stop()
        if self.watchdog is not None:
            self.watchdog.stop()
        for name in sorted(self._pending_wedges):
            self.injector.resolve(self._pending_wedges[name], "absorbed")
        self._pending_wedges.clear()

    # ------------------------------------------------------------------
    # DomainTarget: victim pools
    # ------------------------------------------------------------------
    def live_hosts(self) -> List[int]:
        return [
            index
            for index in range(len(self.fleet.hosts))
            if index not in self.fleet.down_hosts
        ]

    def live_vms(self) -> List[str]:
        return [
            h.name
            for h in self.fleet.handles
            if h.vm._alive and h.agent is not None
        ]

    # ------------------------------------------------------------------
    # DomainTarget: host crash
    # ------------------------------------------------------------------
    def crash_host(self, host_index: int, fault: InjectedFault) -> None:
        victims = self.fleet.residents(host_index)
        span = self.obs.span(
            "failover.host-crash",
            parent=self._fault_parent(fault),
            host=host_index,
            victims=len(victims),
        )
        names = [h.name for h in victims]
        # Retire every victim's route *before* failing any of them over,
        # so a failed-over invocation can never land on a doomed sibling
        # on the same host.
        for name in names:
            if self.router.is_registered(name):
                self.router.retire(name)
        for name in names:
            if self.router.is_registered(name):
                self.router.fail_over(name, "vm-lost")
        for name in names:
            pending = self._pending_wedges.pop(name, None)
            if pending is not None:
                self.injector.resolve(pending, "absorbed")
        # Atomic from the sim's viewpoint: VM deaths, host-down marking
        # and ledger reconciliation all land in this one callback.
        self.fleet.crash_host(host_index)
        self.sim.spawn(
            self._evacuate(host_index, victims, fault, span),
            name=f"evacuate-host{host_index}",
        )

    def _evacuate(
        self,
        host_index: int,
        victims: List["VmHandle"],
        fault: InjectedFault,
        span: SpanLike,
    ):
        evacuated = rejected = 0

        def on_replacement(dead: "VmHandle", replacement: "VmHandle") -> None:
            if self.router.is_registered(dead.name):
                self.router.register(replacement)
            self.recovery.record(
                site=HOST_CRASH,
                path="evacuated",
                detect_ns=fault.time_ns,
                resolve_ns=self.sim.now,
                parent=span,
            )

        try:
            result = yield from self.fleet.evacuate(
                host_index,
                victims,
                self.policy.evacuation_coldstart_ns,
                on_replacement=on_replacement,
            )
            for _ in result.rejected:
                self.recovery.record(
                    site=HOST_CRASH,
                    path="evacuation-rejected",
                    detect_ns=fault.time_ns,
                    resolve_ns=self.sim.now,
                    parent=span,
                )
            self.evacuations.append(result)
            evacuated, rejected = len(result.evacuated), len(result.rejected)
            return result
        finally:
            self.injector.resolve(
                fault, "evacuated", attempts=max(1, len(victims))
            )
            span.close(evacuated=evacuated, rejected=rejected)

    # ------------------------------------------------------------------
    # DomainTarget: per-VM faults
    # ------------------------------------------------------------------
    def oom_kill(self, vm_name: str, fault: InjectedFault) -> None:
        handle = self.fleet.handle(vm_name)
        if not handle.vm._alive:
            self.injector.resolve(fault, "absorbed")
            return
        span = self.obs.span(
            "failover.oom-kill", parent=self._fault_parent(fault), victim=vm_name
        )
        if self.router.is_registered(vm_name):
            self.router.retire(vm_name)
            self.router.fail_over(vm_name, "oom-kill")
        pending = self._pending_wedges.pop(vm_name, None)
        if pending is not None:
            self.injector.resolve(pending, "absorbed")
        self.fleet.kill_vm(vm_name)
        self.sim.spawn(
            self._reprovision_one(handle, fault, span),
            name=f"reprovision-{vm_name}",
        )

    def _reprovision_one(
        self, dead: "VmHandle", fault: InjectedFault, span: SpanLike
    ):
        resolution = "dropped"
        try:
            yield Timeout(self.policy.evacuation_coldstart_ns)
            replacement, admission = self.fleet.reprovision(dead)
            if replacement is None:
                self.recovery.record(
                    site=VM_OOM_KILL,
                    path="evacuation-rejected",
                    detect_ns=fault.time_ns,
                    resolve_ns=self.sim.now,
                    parent=span,
                )
                span.close(replacement="", reason=admission.reason)
                return None
            resolution = "reprovisioned"
            if self.router.is_registered(dead.name):
                self.router.register(replacement)
            self.recovery.record(
                site=VM_OOM_KILL,
                path="reprovisioned",
                detect_ns=fault.time_ns,
                resolve_ns=self.sim.now,
                parent=span,
            )
            span.close(replacement=replacement.name, reason="")
            return replacement
        finally:
            self.injector.resolve(fault, resolution)

    def wedge_agent(self, vm_name: str, fault: InjectedFault) -> None:
        handle = self.fleet.handle(vm_name)
        agent = handle.agent
        if (
            agent is None
            or not handle.vm._alive
            or agent._stopped
            or agent._recycler is None
            or agent.wedged
        ):
            self.injector.resolve(fault, "absorbed")
            return
        agent.wedge()
        self._pending_wedges[vm_name] = fault

    def _on_wedge_detected(self, vm_name: str, agent: "Agent") -> None:
        """Watchdog callback: force-recycle a heartbeat-stale agent."""
        if not agent.wedged:
            # Stale for some other reason (e.g. a horizon race); the
            # remediation below would double-start the recycler.
            return
        fault = self._pending_wedges.pop(vm_name, None)
        pass_process = agent.force_recycle()
        self.obs.event(
            "failover.force-recycle",
            victim=vm_name,
            remediated=pass_process is not None,
        )
        if fault is None:
            return
        self.injector.resolve(
            fault,
            "force-recycled" if pass_process is not None else "absorbed",
        )
        if pass_process is not None:
            self.recovery.record(
                site=AGENT_WEDGE,
                path="force-recycled",
                detect_ns=fault.time_ns,
                resolve_ns=self.sim.now,
                parent=self._fault_parent(fault),
            )

    def link_down(self, vm_name: str, fault: InjectedFault) -> None:
        if not self.router.is_registered(vm_name) or self.router.slot(
            vm_name
        ).retired:
            self.injector.resolve(fault, "absorbed")
            return
        span = self.obs.span(
            "failover.link-down", parent=self._fault_parent(fault), victim=vm_name
        )
        self.router.set_link(vm_name, False)
        self.sim.spawn(
            self._heal_link(vm_name, fault, span), name=f"heal-link-{vm_name}"
        )

    def _heal_link(self, vm_name: str, fault: InjectedFault, span: SpanLike):
        resolution = "absorbed"
        try:
            yield Timeout(self.policy.link_outage_ns)
            if (
                self.router.is_registered(vm_name)
                and not self.router.slot(vm_name).retired
            ):
                self.router.set_link(vm_name, True)
                resolution = "healed"
                self.recovery.record(
                    site=ROUTER_LINK_DOWN,
                    path="link-down",
                    detect_ns=fault.time_ns,
                    resolve_ns=self.sim.now,
                    parent=span,
                )
            return None
        finally:
            self.injector.resolve(fault, resolution)
            span.close(healed=resolution == "healed")

    # ------------------------------------------------------------------
    # DomainTarget: host pressure
    # ------------------------------------------------------------------
    def pressure_spike(self, host_index: int, fault: InjectedFault) -> None:
        node = self.fleet.hosts[host_index].nodes[0]
        want = int(self.policy.spike_fraction * node.free_bytes)
        granted = self.fleet.external_charge(host_index, node.node_id, want)
        if granted <= 0:
            self.injector.resolve(fault, "absorbed")
            return
        span = self.obs.span(
            "failover.pressure-spike",
            parent=self._fault_parent(fault),
            host=host_index,
            granted_bytes=granted,
        )
        self.sim.spawn(
            self._heal_spike(host_index, node.node_id, granted, fault, span),
            name=f"heal-spike-host{host_index}",
        )

    def _heal_spike(
        self,
        host_index: int,
        node_id: int,
        granted: int,
        fault: InjectedFault,
        span: SpanLike,
    ):
        try:
            yield Timeout(self.policy.spike_duration_ns)
            self.fleet.external_release(host_index, node_id, granted)
            self.recovery.record(
                site=HOST_PRESSURE_SPIKE,
                path="healed",
                detect_ns=fault.time_ns,
                resolve_ns=self.sim.now,
                parent=span,
            )
            return None
        finally:
            self.injector.resolve(fault, "healed")
            span.close()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _fault_parent(fault: InjectedFault) -> SpanLike:
        return fault.span if fault.span is not None else NULL_SPAN

    def __repr__(self) -> str:
        return (
            f"<FailoverCoordinator evacuations={len(self.evacuations)} "
            f"pending_wedges={len(self._pending_wedges)}>"
        )
