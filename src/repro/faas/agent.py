"""The in-VM Agent (Section 4.1 / Figure 4).

The Agent dispatches incoming requests to containers inside one VM:

* it keeps a per-function pool of idle containers (LIFO by default, so
  the coldest instances age out; the pool order is a property of the
  agent's :mod:`~repro.faas.lifecycle` eviction policy unless the
  deployment pins its own);
* when no idle container exists and the concurrency limit allows it, it
  scales up — in elastic modes this couples a plug request (sized to the
  function's memory limit) with the container spawn;
* a periodic recycler evicts containers idle past the keep-alive window
  — *which* evictable containers die, and in what order, is delegated
  to the pluggable eviction policy named by
  :attr:`KeepAlivePolicy.eviction` — and couples the eviction with an
  unplug request sized to the memory the recycle freed;
* instances are pinned to vCPUs according to the function's assigned
  vCPU weight (or an explicit pin list, as the interference experiment
  requires).

Resilience (see ``docs/faults.md``): with a
:class:`~repro.faults.ResiliencePolicy` the agent retries refused or
partial plug requests with backoff, falls back to *static* mode (stop
resizing, serve from what is plugged) when the backend stays
unavailable, and re-queues partial-unplug shortfalls through a
deferred-reclamation queue.  Every recovery and degradation lands in the
VM's :class:`~repro.metrics.recovery.RecoveryLog`.  The inert default
(:data:`~repro.faults.NO_RESILIENCE`) reproduces the non-resilient agent
exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigError, FaasError, OutOfMemory, SpawnFailed
from repro.faas.container import Container
from repro.faas.lifecycle import ContainerStats, get_policy
from repro.faas.policy import KeepAlivePolicy
from repro.faas.records import EvictionRecord, InvocationRecord
from repro.faults.injector import InjectedFault
from repro.faults.policy import NO_RESILIENCE, ResiliencePolicy
from repro.faults.sites import (
    AGENT_RECYCLE_RACE,
    AGENT_SPAWN_FAIL,
    AGENT_SPAWN_OOM,
)
from repro.mm.pagecache import CachedFile
from repro.modes import DeploymentBackend, get_mode
from repro.obs.span import NULL_SPAN, SpanLike
from repro.sim.engine import Event, Process, Simulator, Timeout
from repro.units import MEMORY_BLOCK_SIZE, bytes_to_blocks, bytes_to_pages
from repro.vmm.vm import VirtualMachine
from repro.workloads.functions import FunctionSpec

__all__ = ["Agent", "FunctionDeployment", "ShrinkEvent"]

#: Sentinel handed to a queued request whose queue-wait deadline expired
#: (distinct from ``None``, which means "retry acquisition").
_DEADLINE = object()


@dataclass(frozen=True)
class FunctionDeployment:
    """How one function is deployed inside a VM.

    ``vcpu_indices`` restricts instances to specific vCPUs (``None`` uses
    every vCPU); instances are pinned round-robin over the allowed set.
    """

    spec: FunctionSpec
    max_instances: int
    vcpu_indices: Optional[Tuple[int, ...]] = None
    #: Idle-pool reuse order override: ``"lifo"`` (stack; coldest
    #: instances age out and get recycled, the OpenWhisk default) or
    #: ``"fifo"`` (rotate through every instance, keeping the whole pool
    #: warm).  ``None`` defers to the agent's eviction policy
    #: (:attr:`repro.faas.lifecycle.EvictionPolicy.reuse`).
    reuse: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_instances <= 0:
            raise ConfigError(
                f"{self.spec.name}: max_instances must be positive"
            )
        if self.reuse not in (None, "lifo", "fifo"):
            raise ConfigError(f"{self.spec.name}: unknown reuse {self.reuse!r}")

    @property
    def partition_bytes(self) -> int:
        """The function's memory limit rounded up to whole blocks."""
        return bytes_to_blocks(self.spec.memory_limit_bytes) * MEMORY_BLOCK_SIZE


@dataclass
class ShrinkEvent:
    """One recycle pass that evicted instances and shrank the VM."""

    time_ns: int
    evicted: int
    unplug_requested_bytes: int
    #: Name of the lifecycle policy that ranked this pass's victims.
    policy: str = "ttl"


@dataclass
class _DeferredReclaim:
    """A partial-unplug shortfall queued for a later retry."""

    size_bytes: int
    attempt: int
    queued_ns: int
    #: The originating ``agent.unplug`` span: every deferred retry
    #: parents on it, so a shortfall's whole retry chain shares the
    #: original request's trace id (inert when tracing is off).
    parent: SpanLike = NULL_SPAN


@dataclass
class _FunctionState:
    """Mutable per-function bookkeeping."""

    deployment: FunctionDeployment
    deps_file: CachedFile
    idle: List[Container] = field(default_factory=list)
    live: int = 0
    waiters: Deque[Event] = field(default_factory=deque)
    next_pin: int = 0
    cold_starts: int = 0
    oom_failures: int = 0
    spawn_failures: int = 0


class Agent:
    """Dispatcher + scaler for one VM."""

    def __init__(
        self,
        sim: Simulator,
        vm: VirtualMachine,
        deployments: List[FunctionDeployment],
        policy: KeepAlivePolicy,
        mode: DeploymentBackend,
        resilience: Optional[ResiliencePolicy] = None,
    ):
        mode = get_mode(mode)
        mode.validate_vm(vm)
        self.sim = sim
        self.vm = vm
        self.policy = policy
        #: The pluggable eviction engine: a fresh policy instance per
        #: agent (stateful policies like greedy-dual keep a per-agent
        #: clock), resolved from :attr:`KeepAlivePolicy.eviction`.
        self.lifecycle = get_policy(policy.eviction)
        self.mode = mode
        self.resilience = resilience if resilience is not None else NO_RESILIENCE
        self.faults = vm.faults
        self.recovery = vm.recovery_log
        #: The VM's tracing scope (inert unless ``--trace`` is on): the
        #: agent opens the root ``faas.invoke`` span every datapath span
        #: of a request descends from.
        self.obs = vm.obs
        self.functions: Dict[str, _FunctionState] = {}
        for deployment in deployments:
            spec = deployment.spec
            if spec.name in self.functions:
                raise ConfigError(f"function {spec.name} deployed twice")
            deps = vm.page_cache.register(
                CachedFile(
                    f"{spec.name}-deps", bytes_to_pages(spec.shared_deps_bytes)
                )
            )
            self.functions[spec.name] = _FunctionState(deployment, deps)
        self.shrink_events: List[ShrinkEvent] = []
        #: Per-victim eviction log: which policy chose each container,
        #: and at what rank — the trace report joins this against cold
        #: starts to attribute them to eviction decisions.
        self.eviction_records: List[EvictionRecord] = []
        #: True once the agent gave up on the backend and stopped
        #: resizing (graceful degradation to a statically sized VM).
        self.degraded = False
        self._consecutive_plug_failures = 0
        self._plug_failing_since: Optional[int] = None
        self._deferred: List[_DeferredReclaim] = []
        self._pending_plug_bytes = 0
        self._pending_unplug_bytes = 0
        self._recycler: Optional[Process] = None
        self._recycler_until: Optional[int] = None
        self._stopped = False
        self._killed = False
        #: Fleet-pressure reclamation passes performed (see
        #: :meth:`request_reclaim`).
        self.pressure_reclaims = 0
        self._pressure_pass: Optional[Process] = None
        #: Background processes the agent spawned (recycler, pressure and
        #: shrink passes, deferred retries) so :meth:`kill` can end them.
        self._background: List[Process] = []
        #: Injected ``agent.wedge``: the recycler silently stops making
        #: progress (and stops beating) until the watchdog intervenes.
        self._wedged = False
        #: Last time the recycler proved liveness (None until started).
        self.last_heartbeat_ns: Optional[int] = None

    # ------------------------------------------------------------------
    # Sizing targets
    # ------------------------------------------------------------------
    def target_plugged_bytes(self) -> int:
        """Hotplugged memory the current live instances require."""
        total = sum(
            state.live * state.deployment.partition_bytes
            for state in self.functions.values()
        )
        if self.vm.is_hotmem and self.vm.hotmem.shared_partition is not None:
            total += self.vm.hotmem.params.shared_bytes
        return total

    @property
    def elastic(self) -> bool:
        """Whether the agent still resizes the VM (mode minus degradation)."""
        return self.mode.elastic and not self.degraded

    @property
    def max_concurrency(self) -> int:
        """Concurrent instances this VM can ever run (all functions)."""
        return sum(
            state.deployment.max_instances for state in self.functions.values()
        )

    def _unusable_plugged_bytes(self) -> int:
        """Plugged memory held hostage by quarantine.

        Quarantined blocks (and every block of a quarantined HotMem
        partition) stay plugged but can never serve instances or be
        unplugged, so the sizing math must write them off — otherwise the
        deficit guard would skip needed plugs and the recycler would
        chase unreclaimable excess forever.
        """
        indices = {block.index for block in self.vm.manager.quarantined_blocks}
        if self.vm.is_hotmem:
            for partition in self.vm.hotmem.partitions:
                if partition.quarantined:
                    indices.update(b.index for b in partition.zone.blocks)
        return len(indices) * MEMORY_BLOCK_SIZE

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def handle(
        self,
        function_name: str,
        arrival_ns: int,
        deadline_ns: Optional[int] = None,
    ):
        """Process generator: serve one request end to end.

        Returns an :class:`InvocationRecord`.  Requests queue when the
        function is at its concurrency limit; a finishing container is
        handed directly to the oldest waiter.  ``deadline_ns`` bounds the
        queue wait (measured from ``arrival_ns``): a request still queued
        past it fails with ``error="deadline"`` instead of waiting
        forever — the router turns that into a structured
        ``RouteRejection``.  The outer ``finally`` re-closes the root
        span (idempotently), so an invocation killed mid-flight by a
        host crash never leaks an open span.
        """
        state = self._state(function_name)
        span = self.obs.span(
            "faas.invoke", function=function_name, arrival_ns=arrival_ns
        )
        try:
            container: Optional[Container] = None
            cold = False
            while container is None:
                if state.idle:
                    if self._reuse(state) == "fifo":
                        container = state.idle.pop(0)
                    else:
                        container = state.idle.pop()
                elif state.live < state.deployment.max_instances:
                    state.live += 1
                    cold = True
                    try:
                        container = yield from self._spawn(state, parent=span)
                    except (OutOfMemory, SpawnFailed) as exc:
                        state.live -= 1
                        if isinstance(exc, OutOfMemory):
                            state.oom_failures += 1
                            error = "oom"
                        else:
                            state.spawn_failures += 1
                            error = "spawn-failed"
                        self._kick_one_waiter(state)
                        now = self.sim.now
                        return self._finish_invoke(
                            span,
                            InvocationRecord(
                                function=function_name,
                                arrival_ns=arrival_ns,
                                start_ns=now,
                                end_ns=now,
                                cold=True,
                                ok=False,
                                error=error,
                            ),
                        )
                else:
                    timer = None
                    gate = self.sim.event()
                    if deadline_ns is not None:
                        remaining = arrival_ns + deadline_ns - self.sim.now
                        if remaining <= 0:
                            handed = _DEADLINE
                        else:
                            state.waiters.append(gate)
                            timer = self.sim.schedule(
                                remaining, self._expire_waiter, state, gate
                            )
                            handed = yield gate
                            timer.cancel()
                    else:
                        state.waiters.append(gate)
                        handed = yield gate
                    if handed is _DEADLINE:
                        now = self.sim.now
                        return self._finish_invoke(
                            span,
                            InvocationRecord(
                                function=function_name,
                                arrival_ns=arrival_ns,
                                start_ns=now,
                                end_ns=now,
                                cold=False,
                                ok=False,
                                error="deadline",
                            ),
                        )
                    if handed is not None:
                        container = handed
            start_ns = self.sim.now
            try:
                yield from container.invoke()
            except OutOfMemory:
                state.live -= 1
                state.oom_failures += 1
                container.destroy_after_oom()
                self._kick_one_waiter(state)
                return self._finish_invoke(
                    span,
                    InvocationRecord(
                        function=function_name,
                        arrival_ns=arrival_ns,
                        start_ns=start_ns,
                        end_ns=self.sim.now,
                        cold=cold,
                        ok=False,
                        error="oom",
                    ),
                )
            self._release(state, container)
            return self._finish_invoke(
                span,
                InvocationRecord(
                    function=function_name,
                    arrival_ns=arrival_ns,
                    start_ns=start_ns,
                    end_ns=self.sim.now,
                    cold=cold,
                    ok=True,
                ),
            )
        finally:
            span.close()

    def _expire_waiter(self, state: _FunctionState, gate: Event) -> None:
        """Deadline timer callback: shed one still-queued request."""
        if gate.triggered:
            return
        try:
            state.waiters.remove(gate)
        except ValueError:
            pass
        gate.trigger(_DEADLINE)

    def _finish_invoke(
        self, span: SpanLike, record: InvocationRecord
    ) -> InvocationRecord:
        """Close the invocation's root span and count the outcome."""
        span.close(ok=record.ok, cold=record.cold, error=record.error)
        self.obs.inc(
            "invocations_total",
            function=record.function,
            error=record.error or "ok",
        )
        return record

    def _reuse(self, state: _FunctionState) -> str:
        """Effective idle-pool order: deployment override, else policy."""
        return state.deployment.reuse or self.lifecycle.reuse

    def _state(self, function_name: str) -> _FunctionState:
        try:
            return self.functions[function_name]
        except KeyError:
            raise FaasError(
                f"function {function_name!r} not deployed on {self.vm.name}"
            ) from None

    def _release(self, state: _FunctionState, container: Container) -> None:
        if state.waiters:
            state.waiters.popleft().trigger(container)
        else:
            state.idle.append(container)

    def _kick_one_waiter(self, state: _FunctionState) -> None:
        """Wake one queued request so it can retry acquisition."""
        if state.waiters:
            state.waiters.popleft().trigger(None)

    # ------------------------------------------------------------------
    # Scale up (Figure 4, right)
    # ------------------------------------------------------------------
    def _spawn(self, state: _FunctionState, parent: SpanLike = NULL_SPAN):
        deployment = state.deployment
        state.cold_starts += 1
        span = self.obs.span(
            "faas.spawn", parent=parent, function=deployment.spec.name
        )
        self.obs.inc("cold_starts_total", function=deployment.spec.name)
        try:
            fault = self.faults.fire(
                AGENT_SPAWN_OOM, parent=span, function=deployment.spec.name
            )
            if fault is not None:
                # Injected allocation failure during elastic scale-up: fail
                # fast exactly like a guest OOM; the request is re-queued by
                # the caller's OOM handling.
                self._resolve_and_record(fault, "oom-failfast", parent=span)
                raise OutOfMemory(
                    f"injected OOM during scale-up of {deployment.spec.name}"
                )
            fault = self.faults.fire(
                AGENT_SPAWN_FAIL, parent=span, function=deployment.spec.name
            )
            if fault is not None:
                self._resolve_and_record(fault, "invocation-failed", parent=span)
                raise SpawnFailed(
                    f"injected spawn failure for {deployment.spec.name}"
                )
            # Step 2: the runtime asks the hypervisor to plug memory matching
            # the instance's limit (elastic modes only).
            if self.elastic:
                yield from self._plug_for_spawn(parent=span)
            if self.degraded and self.vm.is_hotmem:
                # Static fallback: serve only from already populated
                # partitions — parking on the attach waitqueue would hang
                # forever with nobody plugging memory to wake it.
                if not self.vm.hotmem.populated_unassigned():
                    raise SpawnFailed(
                        "degraded to static mode and no populated partition free"
                    )
            # Step 4: spawn the container (HotMem attach happens inside).
            vcpu = self._next_vcpu(state)
            container = Container(self.vm, deployment.spec, state.deps_file, vcpu)
            yield from container.cold_start()
            return container
        finally:
            span.close()

    def _plug_for_spawn(self, parent: SpanLike = NULL_SPAN):
        """Process generator: grow the VM to cover the new instance.

        The deficit guard avoids over-plugging when earlier unplugs were
        partial or a populated partition awaits reuse; in-flight unplugs
        still count as plugged on the device but their memory is about to
        vanish, so they are subtracted (otherwise a spawn would skip its
        plug and park on the HotMem attach waitqueue with nothing coming
        to wake it).  The request is capped at what the region can hold
        once those unplugs finish; if one ends partial, the device grants
        its free blocks with ``"region-partial"``.  Refused (NACK) and
        partial plugs are retried per the resilience policy; persistent
        refusal degrades the agent to static mode.
        """
        policy = self.resilience
        attempt = 0
        pending: List[InjectedFault] = []
        detect_ns: Optional[int] = None
        span = self.obs.span("agent.plug", parent=parent)
        try:
            while True:
                effective_plugged = (
                    self.vm.elastic_bytes
                    - self._pending_unplug_bytes
                    - self._unusable_plugged_bytes()
                )
                deficit = (
                    self.target_plugged_bytes()
                    - effective_plugged
                    - self._pending_plug_bytes
                )
                # Never ask for more than the region can hold once the
                # in-flight unplugs finish (they may exceed what is plugged).
                region_free = self.vm.config.hotplug_region_bytes - max(
                    0, self.vm.elastic_bytes - self._pending_unplug_bytes
                )
                request = max(0, min(deficit, region_free))
                if request == 0:
                    break
                attempt += 1
                self._pending_plug_bytes += request
                plug_process = self.vm.request_plug(request, parent=span)
                yield plug_process
                self._pending_plug_bytes -= request
                result = plug_process.value
                if result.fault is not None:
                    pending.append(result.fault)
                if not result.error:
                    # Success (or a natural partial the device never reports
                    # today): same single-shot behaviour as before faults.
                    break
                if detect_ns is None:
                    detect_ns = self.sim.now
                if result.plugged_bytes == 0:
                    self._consecutive_plug_failures += 1
                    if self._plug_failing_since is None:
                        self._plug_failing_since = self.sim.now
                    self._maybe_degrade()
                else:
                    self._consecutive_plug_failures = 0
                    self._plug_failing_since = None
                if self.degraded or attempt > policy.plug_retries:
                    path = "static-fallback" if self.degraded else "plug-shortfall"
                    self._resolve_all(pending, path, attempt)
                    self.recovery.record(
                        site="agent.plug",
                        path=path,
                        detect_ns=detect_ns,
                        resolve_ns=self.sim.now,
                        attempts=attempt,
                        parent=span,
                    )
                    return None
                yield Timeout(policy.plug_backoff_ns)
            if pending or attempt > 1:
                self._consecutive_plug_failures = 0
                self._plug_failing_since = None
                self._resolve_all(pending, "retried", attempt)
                self.recovery.record(
                    site="agent.plug",
                    path="retried",
                    detect_ns=self.sim.now if detect_ns is None else detect_ns,
                    resolve_ns=self.sim.now,
                    attempts=max(1, attempt),
                    parent=span,
                )
            return None
        finally:
            span.close(attempts=attempt)

    def _maybe_degrade(self) -> None:
        """Fall back to static mode when the backend stays unavailable."""
        policy = self.resilience
        if (
            policy.degrade_after == 0
            or self.degraded
            or self._consecutive_plug_failures < policy.degrade_after
        ):
            return
        self.degraded = True
        self.recovery.record(
            site="agent.backend-unavailable",
            path="static-fallback",
            detect_ns=(
                self._plug_failing_since
                if self._plug_failing_since is not None
                else self.sim.now
            ),
            resolve_ns=self.sim.now,
            attempts=self._consecutive_plug_failures,
        )

    def _next_vcpu(self, state: _FunctionState) -> int:
        allowed = state.deployment.vcpu_indices
        if allowed is None:
            allowed = tuple(range(len(self.vm.vcpus)))
        index = allowed[state.next_pin % len(allowed)]
        state.next_pin += 1
        return index

    # ------------------------------------------------------------------
    # Scale down (Figure 4, left)
    # ------------------------------------------------------------------
    def start_recycler(self, until_ns: Optional[int] = None) -> Process:
        """Start the periodic keep-alive recycler."""
        if self._recycler is not None:
            raise FaasError("recycler already started")
        self._recycler_until = until_ns
        self.last_heartbeat_ns = self.sim.now
        self._recycler = self._spawn_background(
            self._recycle_loop(until_ns), name=f"{self.vm.name}-recycler"
        )
        return self._recycler

    def stop(self) -> None:
        """Stop the recycler loop after its current pass."""
        self._stopped = True

    def kill(self) -> None:
        """Abrupt death (host crash, OOM-kill): end all background work.

        In-flight *request* processes belong to the router, which fails
        them over before the fleet calls this; everything the agent
        itself spawned — recycler, pressure and shrink passes, deferred
        retries — is terminated here, ahead of the VM account closing.
        """
        self._stopped = True
        self._killed = True
        for process in self._background:
            process.kill()
        self._background = []

    def wedge(self) -> None:
        """Injected ``agent.wedge``: the recycler hangs silently.

        The loop parks without recycling or heartbeating; nothing inside
        the VM notices.  Detection is the fleet watchdog's job (stale
        :attr:`last_heartbeat_ns`), remediation is :meth:`force_recycle`.
        """
        self._wedged = True

    @property
    def wedged(self) -> bool:
        return self._wedged

    def force_recycle(self) -> Optional[Process]:
        """Watchdog remediation: replace a wedged recycler.

        Clears the wedge, starts a fresh recycler loop (same horizon as
        the one that hung) and runs one immediate catch-up pass so
        memory idle during the wedge window is reclaimed right away.
        """
        if self._stopped or not self.vm._alive:
            return None
        self._wedged = False
        self._recycler = None
        self.start_recycler(self._recycler_until)
        return self._spawn_background(
            self.recycle_pass(), name=f"{self.vm.name}-force-recycle"
        )

    def _spawn_background(self, generator, name: str) -> Process:
        self._background = [p for p in self._background if not p.finished]
        process = self.sim.spawn(generator, name=name)
        self._background.append(process)
        return process

    def _recycle_loop(self, until_ns: Optional[int]):
        while not self._stopped:
            yield Timeout(self.policy.recycle_interval_ns)
            if self._wedged:
                # Wedged: die silently *before* the heartbeat, so the
                # watchdog sees the staleness.
                return None
            self.last_heartbeat_ns = self.sim.now
            self.obs.event("agent.heartbeat")
            if until_ns is not None and self.sim.now > until_ns:
                return None
            yield from self.recycle_pass()
        return None

    def request_reclaim(
        self, need_bytes: Optional[int] = None
    ) -> Optional[Process]:
        """Fleet-pressure hook: run one immediate reclamation pass.

        Considers *every* idle container (``min_idle_ns=0``) rather than
        only those past the keep-alive window — the host is over its
        pressure watermark, so warmth is traded for memory.
        ``need_bytes`` bounds the shed: the eviction policy's ranking is
        cut to the prefix covering that much memory (``None`` keeps the
        historical evict-everything behaviour).  At most one pressure
        pass runs at a time; overlapping requests coalesce.
        """
        if self._stopped:
            return None
        if self._pressure_pass is not None and not self._pressure_pass.finished:
            return self._pressure_pass
        self.pressure_reclaims += 1
        self._pressure_pass = self._spawn_background(
            self.recycle_pass(min_idle_ns=0, need_bytes=need_bytes),
            name=f"{self.vm.name}-pressure-reclaim",
        )
        return self._pressure_pass

    def _candidate_stats(self, now_ns: int) -> List[ContainerStats]:
        """Snapshot every idle container as an eviction candidate.

        Scan order (function insertion order, then idle-pool position)
        is recorded as ``pool_index`` — the ``ttl`` policy orders by it,
        reproducing the pre-refactor recycler exactly.
        """
        candidates: List[ContainerStats] = []
        for state in self.functions.values():
            deployment = state.deployment
            for container in state.idle:
                candidates.append(
                    ContainerStats(
                        container=container,
                        function=deployment.spec.name,
                        cid=container.cid,
                        idle_ns=container.idle_for_ns(now_ns),
                        invocations=container.invocations,
                        lifetime_ns=now_ns - container.created_ns,
                        memory_bytes=deployment.partition_bytes,
                        spawn_cost_ns=deployment.spec.cold_start_cpu_ns,
                        pool_index=len(candidates),
                    )
                )
        return candidates

    def recycle_pass(
        self,
        min_idle_ns: Optional[int] = None,
        need_bytes: Optional[int] = None,
    ):
        """Process generator: evict idle-past-keep-alive containers, then
        shrink the VM to its new target size (steps 5-7 of Figure 4).

        Candidate *selection and ordering* is delegated to the agent's
        :mod:`~repro.faas.lifecycle` policy; this pass owns the
        mechanics (atomic pool removal, teardown, unplug coupling).
        ``min_idle_ns`` overrides the keep-alive threshold for this pass
        only (the fleet's pressure monitor passes 0 to consider
        everything idle right now); ``need_bytes`` caps the eviction at
        the ranked prefix freeing that much memory (bounded pressure
        shedding).
        """
        pressure = min_idle_ns is not None
        threshold = (
            min_idle_ns if min_idle_ns is not None else self.policy.keep_alive_ns
        )
        now = self.sim.now
        evicted = 0
        unplug_bytes = 0
        span = self.obs.span(
            "agent.recycle", pressure=pressure, policy=self.lifecycle.name
        )
        # Snapshot candidates and pick victims atomically (no yields) so
        # concurrent request handling never races with the eviction
        # below: a chosen victim leaves its pool before the first yield.
        chosen = self.lifecycle.victims(
            self._candidate_stats(now), now, threshold, need_bytes
        )
        victims: List[Tuple[_FunctionState, ContainerStats]] = []
        for stats in chosen:
            state = self.functions[stats.function]
            state.idle.remove(stats.container)
            victims.append((state, stats))
        try:
            for rank, (state, stats) in enumerate(victims):
                yield from stats.container.teardown()
                state.live -= 1
                evicted += 1
                self.lifecycle.note_eviction(stats, now)
                self.eviction_records.append(
                    EvictionRecord(
                        time_ns=now,
                        function=stats.function,
                        cid=stats.cid,
                        policy=self.lifecycle.name,
                        rank=rank,
                        idle_ns=stats.idle_ns,
                        memory_bytes=stats.memory_bytes,
                        pressure=pressure,
                    )
                )
                self.obs.event(
                    "agent.evict",
                    function=stats.function,
                    cid=stats.cid,
                    policy=self.lifecycle.name,
                    rank=rank,
                    idle_ns=stats.idle_ns,
                    pressure=pressure,
                )
                self.obs.inc(
                    "evictions_total",
                    function=stats.function,
                    policy=self.lifecycle.name,
                )
            if evicted and self.elastic:
                spare_bytes = self._spare_bytes()
                pending_unplug = self._pending_unplug_bytes
                race: Optional[InjectedFault] = None
                if pending_unplug > 0:
                    race = self.faults.fire(
                        AGENT_RECYCLE_RACE,
                        parent=span,
                        pending_unplug_bytes=pending_unplug,
                    )
                    if race is not None:
                        # The racing recycler misses the in-flight unplug and
                        # over-requests; the device serializes requests and
                        # clamps to what is actually plugged, and the deficit
                        # guard heals any overshoot on the next spawn.
                        pending_unplug = 0
                excess = (
                    self.vm.elastic_bytes
                    - pending_unplug
                    - self._unusable_plugged_bytes()
                    - self.target_plugged_bytes()
                    - spare_bytes
                )
                if race is not None:
                    self._resolve_and_record(race, "serialized", parent=span)
                if excess > 0:
                    unplug_bytes = excess
                    # Fire-and-forget: reclamation proceeds in the background
                    # while the agent keeps serving requests.
                    self._spawn_background(
                        self._unplug_async(excess, parent=span),
                        name=f"{self.vm.name}-shrink",
                    )
            if evicted:
                self.shrink_events.append(
                    ShrinkEvent(
                        time_ns=now,
                        evicted=evicted,
                        unplug_requested_bytes=unplug_bytes,
                        policy=self.lifecycle.name,
                    )
                )
            return evicted
        finally:
            span.close(evicted=evicted, unplug_requested_bytes=unplug_bytes)

    def _spare_bytes(self) -> int:
        return self.policy.spare_slots * max(
            state.deployment.partition_bytes
            for state in self.functions.values()
        )

    def _unplug_async(
        self,
        size_bytes: int,
        deferred_attempt: int = 0,
        parent: SpanLike = NULL_SPAN,
    ):
        """Issue one unplug and track it until the device completes it.

        A shortfall (partial unplug) is re-queued through the deferred-
        reclamation queue when the resilience policy allows, and dropped
        (with a ``dropped`` recovery record) once the attempt cap is hit.
        """
        start = self.sim.now
        span = self.obs.span(
            "agent.unplug",
            parent=parent,
            requested_bytes=size_bytes,
            deferred_attempt=deferred_attempt,
        )
        self._pending_unplug_bytes += size_bytes
        try:
            unplug = self.vm.request_unplug(size_bytes, parent=span)
            yield unplug
        finally:
            self._pending_unplug_bytes -= size_bytes
        result = unplug.value
        shortfall = result.requested_bytes - result.unplugged_bytes
        span.close(shortfall_bytes=shortfall)
        policy = self.resilience
        if shortfall > 0 and policy.deferred_attempts > 0:
            if deferred_attempt < policy.deferred_attempts:
                self._defer_reclaim(shortfall, deferred_attempt + 1, parent=span)
            else:
                self.recovery.record(
                    site="agent.reclaim",
                    path="dropped",
                    detect_ns=start,
                    resolve_ns=self.sim.now,
                    attempts=deferred_attempt,
                    parent=span,
                )
        elif deferred_attempt > 0 and shortfall == 0:
            self.recovery.record(
                site="agent.reclaim",
                path="deferred-done",
                detect_ns=start,
                resolve_ns=self.sim.now,
                attempts=deferred_attempt,
                parent=span,
            )
        return result

    def _defer_reclaim(
        self, size_bytes: int, attempt: int, parent: SpanLike = NULL_SPAN
    ) -> None:
        entry = _DeferredReclaim(
            size_bytes=size_bytes,
            attempt=attempt,
            queued_ns=self.sim.now,
            parent=parent,
        )
        self._deferred.append(entry)
        self.recovery.record(
            site="agent.reclaim",
            path="deferred",
            detect_ns=entry.queued_ns,
            resolve_ns=entry.queued_ns,
            attempts=attempt,
            parent=parent,
        )
        self._spawn_background(
            self._deferred_retry(entry), name=f"{self.vm.name}-deferred-reclaim"
        )

    def _deferred_retry(self, entry: _DeferredReclaim):
        yield Timeout(self.resilience.deferred_backoff_for(entry.attempt))
        if entry in self._deferred:
            self._deferred.remove(entry)
        if self.degraded:
            return None
        # Recompute how much is still actually excess: demand may have
        # grown (spawns reused the unreclaimed memory) or shrunk further
        # since the shortfall was queued — never unplug past the target.
        excess = (
            self.vm.elastic_bytes
            - self._pending_unplug_bytes
            - self._unusable_plugged_bytes()
            - self.target_plugged_bytes()
            - self._spare_bytes()
        )
        request = min(entry.size_bytes, max(0, excess))
        if request <= 0:
            # Demand came back for the memory; the shortfall healed itself.
            self.recovery.record(
                site="agent.reclaim",
                path="healed",
                detect_ns=entry.queued_ns,
                resolve_ns=self.sim.now,
                attempts=entry.attempt,
                parent=entry.parent,
            )
            return None
        yield from self._unplug_async(
            request, deferred_attempt=entry.attempt, parent=entry.parent
        )
        return None

    # ------------------------------------------------------------------
    # Fault accounting helpers
    # ------------------------------------------------------------------
    def _resolve_and_record(
        self,
        fault: InjectedFault,
        path: str,
        attempts: int = 1,
        parent: SpanLike = NULL_SPAN,
    ) -> None:
        self.faults.resolve(fault, path, attempts=attempts)
        self.recovery.record(
            site=fault.site,
            path=path,
            detect_ns=fault.time_ns,
            resolve_ns=self.sim.now,
            attempts=attempts,
            parent=parent,
        )

    def _resolve_all(
        self, pending: List[InjectedFault], path: str, attempts: int
    ) -> None:
        for fault in pending:
            self.faults.resolve(fault, path, attempts=attempts)
        pending.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def live_instances(self, function_name: Optional[str] = None) -> int:
        """Live containers for one function (or all)."""
        if function_name is not None:
            return self._state(function_name).live
        return sum(state.live for state in self.functions.values())

    def idle_instances(self, function_name: str) -> int:
        """Currently idle containers for one function."""
        return len(self._state(function_name).idle)

    def cold_start_count(self, function_name: str) -> int:
        """Cold starts performed for one function."""
        return self._state(function_name).cold_starts

    def deferred_reclaims(self) -> int:
        """Shortfalls currently queued for deferred reclamation."""
        return len(self._deferred)
