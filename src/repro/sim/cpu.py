"""Round-robin CPU core model.

A :class:`CpuCore` is the simulator's stand-in for one vCPU (or one pinned
host core).  Work is submitted as a number of CPU-nanoseconds plus a label;
the core time-slices all runnable work with a fixed quantum, so when the
virtio-mem driver migrates pages on the same vCPU that runs a function
instance, both slow down — this is the mechanism behind the interference
spikes of Figure 10 in the paper.

Per-label accounting mirrors the paper's use of the ``cpuacct`` cgroup
controller (Section 5.4): the evaluation isolates the vCPU that serves
virtio-mem interrupts and reports exactly the CPU time that the unplug
path consumed on it (Figure 7).

Round-robin handovers are re-armed inside the event loop (see
:class:`CpuCore`): every quantum boundary before the next completing
slice keeps its queue entry, so tie order is that of one event per
quantum, but no Python code runs at it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator, _ScheduledCall
from repro.units import MS

__all__ = ["CpuCore", "CpuWork"]

#: Default scheduling quantum (2 ms, in the ballpark of CFS slices).
DEFAULT_QUANTUM_NS = 2 * MS


class CpuWork:
    """A unit of work queued on a core.

    Attributes
    ----------
    label:
        Accounting label (e.g. ``"virtio-mem"`` or ``"fn:cnn"``).
    remaining:
        CPU-nanoseconds not yet charged (the on-core task's re-armed
        quanta are charged lazily, see :class:`CpuCore`).
    done:
        Event triggered (with this object) when the work completes.
    """

    __slots__ = ("label", "remaining", "done", "submitted_at", "completed_at")

    def __init__(self, label: str, work_ns: int, done: Event, submitted_at: int):
        self.label = label
        self.remaining = int(work_ns)
        self.done = done
        self.submitted_at = submitted_at
        self.completed_at: Optional[int] = None


class CpuCore:
    """A single core scheduled round-robin with a fixed quantum.

    The scheduler is non-preemptive within a slice: a newly submitted task
    waits at most one quantum before it first runs.  This is a faithful
    enough model of CFS for the per-second latency granularity the paper
    reports, while staying exactly deterministic.

    The on-core task and the run queue form a rotation of ``n`` tasks;
    the task at position ``p`` (0 on core, then queue order) runs the
    slices ``p``, ``p + n``, ``p + 2n``, ... after dispatch, so the first
    slice that completes a task is ``S = min_p (ceil(r_p / q) - 1) * n + p``
    for remaining work ``r_p`` and quantum ``q``.  Every boundary before
    ``S`` only hands a full quantum to the next task, so a task dispatched
    with more than one quantum left arms one slice-end with
    ``repeats = S - 1``: the event loop re-arms those boundaries and the
    callback runs at boundary ``S``, which dispatches the completing slice.
    Lone tasks are the case ``n = 1``.

    The passed boundaries are settled lazily: ``m`` of them are
    ``m // n`` quanta per task plus one for each of the first ``m % n``,
    charged in rotation order, after which the rotation turns by
    ``m % n``.  Accounting reads settle first; a boundary tied with the
    reader but not yet popped still sits at ``now`` and, like an unrun
    slice-end, is not counted.  A ``submit`` to the busy core settles,
    joins the back of the queue and zeroes the re-arms, so the next
    boundary hands over in round-robin order.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "cpu",
        quantum_ns: int = DEFAULT_QUANTUM_NS,
    ):
        if quantum_ns <= 0:
            raise SimulationError("quantum must be positive")
        self.sim = sim
        self.name = name
        self.quantum_ns = quantum_ns
        self._run_queue: Deque[CpuWork] = deque()
        self._current: Optional[CpuWork] = None
        #: The pending slice-end of ``_current``.
        self._slice: Optional[_ScheduledCall] = None
        self._busy_ns = 0
        self._busy_by_label: Dict[str, int] = {}
        self._slice_started_at = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, work_ns: int, label: str = "") -> Event:
        """Queue ``work_ns`` nanoseconds of CPU work; returns its done event.

        Zero-length work completes immediately (at the current time).
        """
        if work_ns < 0:
            raise SimulationError(f"negative work: {work_ns}")
        done = self.sim.event()
        if work_ns == 0:
            done.trigger(None)
            return done
        work = CpuWork(label, work_ns, done, self.sim.now)
        if self._current is None:
            self._run_queue.append(work)
            self._dispatch()
        else:
            self._settle()
            self._run_queue.append(work)
            self._slice.repeats = 0  # hand over at the next boundary
        return work.done

    def run(self, work_ns: int, label: str = ""):
        """Generator helper: ``yield from core.run(...)`` inside a process."""
        done = self.submit(work_ns, label)
        yield done

    # ------------------------------------------------------------------
    # Scheduling internals
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        if self._current is None and self._run_queue:
            self._arm(self._run_queue.popleft())

    def _arm(self, work: CpuWork) -> None:
        quantum = self.quantum_ns
        now = self.sim.now
        remaining = work.remaining
        slice_ns = min(quantum, remaining)
        self._current = work
        self._slice_started_at = now
        self._slice = call = self.sim.schedule_at(
            now + slice_ns, self._on_slice_end, work, slice_ns
        )
        if remaining > quantum:
            # ``first`` is S: the slice where the first task completes.
            queue = self._run_queue
            n = len(queue) + 1
            first = (-(-remaining // quantum) - 1) * n
            for position, queued in enumerate(queue, 1):
                if position >= first:
                    break
                last = (-(-queued.remaining // quantum) - 1) * n + position
                if last < first:
                    first = last
            call.period = quantum
            call.repeats = first - 1

    def _charge(self, work: CpuWork, ns: int) -> None:
        self._busy_ns += ns
        self._busy_by_label[work.label] = self._busy_by_label.get(work.label, 0) + ns
        work.remaining -= ns
        self._slice_started_at += ns

    def _settle(self) -> None:
        """Charge the quanta before the pending slice-end's boundary (none
        for a plain slice, which is at most one quantum long) and turn the
        rotation to the task now on core."""
        current = self._current
        if current is None:
            return
        quantum = self.quantum_ns
        passed = (self._slice.time - self._slice_started_at) // quantum - 1
        if passed <= 0:
            return
        queue = self._run_queue
        rounds, extra = divmod(passed, len(queue) + 1)
        for position, work in enumerate((current, *queue)):
            quanta = rounds + (position < extra)
            if not quanta:
                break
            self._charge(work, quanta * quantum)
        if extra:
            queue.append(current)
            queue.rotate(1 - extra)
            self._current = queue.popleft()

    def _on_slice_end(self, work: CpuWork, slice_ns: int) -> None:
        # ``work`` and ``slice_ns`` are what the slice-end was armed with.
        # Silent handovers (settled here, or by a ``submit`` since) may
        # have rotated another task on core, so after a settle only
        # ``_current`` counts.  An empty queue means no rotation since
        # the arm: ``work`` is on core, and one charge covers its re-armed
        # quanta too.
        if self._run_queue:
            self._settle()
            work = self._current
        self._charge(work, self.sim.now - self._slice_started_at)
        if work.remaining > 0 and not self._run_queue:
            self._arm(work)
            return
        self._current = None
        if work.remaining > 0:
            self._run_queue.append(work)
        else:
            work.completed_at = self.sim.now
            work.done.trigger(work)
        self._dispatch()

    # ------------------------------------------------------------------
    # Introspection / accounting
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """Whether a slice is currently executing."""
        return self._current is not None

    @property
    def queue_depth(self) -> int:
        """Number of tasks waiting (excluding the one on-core)."""
        return len(self._run_queue)

    @property
    def busy_ns(self) -> int:
        """Total CPU-nanoseconds executed on this core (completed slices)."""
        self._settle()
        return self._busy_ns

    def busy_ns_for(self, label: str) -> int:
        """CPU-nanoseconds charged to an exact accounting label."""
        self._settle()
        return self._busy_by_label.get(label, 0)

    def busy_ns_for_prefix(self, prefix: str) -> int:
        """CPU-nanoseconds charged to all labels starting with ``prefix``."""
        self._settle()
        return sum(
            ns for label, ns in self._busy_by_label.items() if label.startswith(prefix)
        )

    def accounting(self) -> Dict[str, int]:
        """A copy of the per-label CPU-time table (label → ns)."""
        self._settle()
        return dict(self._busy_by_label)

    def utilization(self) -> float:
        """Fraction of simulated time this core has been busy."""
        now = self.sim.now
        if now <= 0:
            return 0.0
        return min(1.0, self.busy_ns / now)

    def __repr__(self) -> str:
        state = "busy" if self.busy else "idle"
        return f"<CpuCore {self.name} {state} queue={self.queue_depth}>"
