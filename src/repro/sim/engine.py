"""Deterministic discrete-event simulation engine.

The engine is intentionally small: a binary-heap calendar queue with a
monotonic sequence number for stable ordering, plus a generator-coroutine
process layer.  A process is an ordinary Python generator that yields one
of three things:

* ``Timeout(ns)`` — resume after a simulated delay;
* ``Event`` — resume when the event is triggered (receives its value);
* another ``Process`` — resume when that process finishes (receives its
  return value).

Example
-------
>>> sim = Simulator()
>>> def worker():
...     yield Timeout(5)
...     return "done"
>>> proc = sim.spawn(worker())
>>> sim.run()
5
>>> proc.value
'done'
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

__all__ = ["Simulator", "Event", "Timeout", "Process", "AllOf"]


class Timeout:
    """A simulated delay, yielded by a process to sleep for ``delay`` ns."""

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = int(delay)

    def __repr__(self) -> str:
        return f"Timeout({self.delay})"


class Event:
    """A one-shot condition processes can wait on.

    An event is triggered at most once, carries an optional value, and
    resumes every waiter in FIFO order.  Waiting on an already-triggered
    event resumes the waiter immediately (at the current simulated time).
    """

    __slots__ = ("sim", "triggered", "value", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    def trigger(self, value: Any = None) -> None:
        """Fire the event, resuming all waiters with ``value``."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(value)

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Invoke ``callback(value)`` when the event fires (or now if fired)."""
        if self.triggered:
            callback(self.value)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<Event {state}>"


class AllOf:
    """Wait target that resumes once every child event has triggered.

    Yields the list of child values, in the order the children were given.
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]):
        self.events = list(events)


ProcessGenerator = Generator[Any, Any, Any]


class Process:
    """A running simulation process wrapping a generator coroutine.

    The process completes when the generator returns; its return value is
    exposed as :attr:`value` and its completion as :attr:`done_event`, so
    other processes can ``yield`` a :class:`Process` to join it.
    """

    __slots__ = ("sim", "name", "_generator", "done_event", "_finished")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self.done_event = Event(sim)
        self._finished = False

    @property
    def finished(self) -> bool:
        """Whether the generator has run to completion."""
        return self._finished

    @property
    def value(self) -> Any:
        """The generator's return value (``None`` until finished)."""
        return self.done_event.value

    def kill(self, value: Any = None) -> None:
        """Terminate the process abruptly (a crashed host, a dead VM).

        Closes the generator at its current yield point — ``finally``
        blocks run, so spans close and in-flight accounting unwinds —
        and completes :attr:`done_event` with ``value`` so joiners
        resume.  Killing a finished process is a no-op.  The generator
        must not yield from a ``finally`` block reached by a kill.
        """
        if self._finished:
            return
        self._finished = True
        self._generator.close()
        self.done_event.trigger(value)

    def _resume(self, sent_value: Any) -> None:
        if self._finished:
            # Killed while parked on a timeout/event that later fired;
            # the wakeup has nothing left to resume.
            return
        try:
            target = self._generator.send(sent_value)
        except StopIteration as stop:
            self._finished = True
            self.done_event.trigger(stop.value)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, Timeout):
            self.sim.schedule(target.delay, self._resume, None)
        elif isinstance(target, Event):
            target.add_callback(self._resume)
        elif isinstance(target, Process):
            target.done_event.add_callback(self._resume)
        elif isinstance(target, AllOf):
            self._wait_all(target.events)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {target!r}"
            )

    def _wait_all(self, events: list[Event]) -> None:
        remaining = len(events)
        if remaining == 0:
            self.sim.schedule(0, self._resume, [])
            return
        results: list[Any] = [None] * remaining
        state = {"left": remaining}

        def make_callback(index: int) -> Callable[[Any], None]:
            def on_fire(value: Any) -> None:
                results[index] = value
                state["left"] -= 1
                if state["left"] == 0:
                    self._resume(results)

            return on_fire

        for index, event in enumerate(events):
            event.add_callback(make_callback(index))

    def __repr__(self) -> str:
        state = "finished" if self._finished else "running"
        return f"<Process {self.name} {state}>"


class _ScheduledCall:
    """Handle for a scheduled callback; supports cancellation.

    A call with ``repeats`` left is *re-armed* instead of run when the
    loop reaches it: the clock moves to its time, the call goes back on
    the queue ``period`` ns later with the next sequence number (the one
    a callback re-scheduling itself right then would take), the probes
    run, and nothing is called.  ``time`` is always the time of the
    call's pending queue entry.  Zeroing ``repeats`` makes the callback
    run at that entry.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "period", "repeats")

    def __init__(self, time: int, callback: Callable[..., None], args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.period = 0
        self.repeats = 0

    def cancel(self) -> None:
        """Prevent the callback from running (safe after it already ran)."""
        self.cancelled = True


class Simulator:
    """The discrete-event loop: an integer-nanosecond virtual clock.

    Events scheduled for the same timestamp run in scheduling order, which
    makes every simulation in this repository fully deterministic given a
    fixed RNG seed.  Queue entries are ``(time, seq, call)`` tuples, so
    the heap compares them in C; ``seq`` is unique, so ``call`` is never
    compared.
    """

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._queue: list[tuple[int, int, _ScheduledCall]] = []
        self._running = False
        #: Observers invoked after every executed callback and re-armed
        #: boundary (e.g. the memory-state sanitizer's every-N-events
        #: checkpoint).  Probes must not schedule or mutate simulation state.
        self._probes: list[Callable[[], None]] = []

    def add_probe(self, probe: Callable[[], None]) -> None:
        """Invoke ``probe()`` after each executed event (see ``_probes``)."""
        self._probes.append(probe)

    def remove_probe(self, probe: Callable[[], None]) -> None:
        """Stop invoking ``probe`` (no-op if it was never added)."""
        if probe in self._probes:
            self._probes.remove(probe)

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    def schedule(
        self, delay: int, callback: Callable[..., None], *args: Any
    ) -> _ScheduledCall:
        """Run ``callback(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + int(delay), callback, *args)

    def schedule_at(
        self, time: int, callback: Callable[..., None], *args: Any
    ) -> _ScheduledCall:
        """Run ``callback(*args)`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        call = _ScheduledCall(int(time), callback, args)
        heapq.heappush(self._queue, (call.time, self._seq, call))
        self._seq += 1
        return call

    def event(self) -> Event:
        """Create a fresh (untriggered) :class:`Event` bound to this clock."""
        return Event(self)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a process immediately (its first step runs at the current time)."""
        process = Process(self, generator, name)
        self.schedule(0, process._resume, None)
        return process

    def step(self) -> bool:
        """Run the next pending callback or re-arm boundary (see
        :class:`_ScheduledCall`); return ``False`` if none is left."""
        queue = self._queue
        while queue:
            time, _, call = heapq.heappop(queue)
            if call.cancelled:
                continue
            self._now = time
            if call.repeats:
                call.repeats -= 1
                call.time = time + call.period
                heapq.heappush(queue, (call.time, self._seq, call))
                self._seq += 1
            else:
                call.callback(*call.args)
            for probe in self._probes:
                probe()
            return True
        return False

    def run(self, until: Optional[int] = None) -> int:
        """Drain the event queue (optionally stopping at time ``until``).

        Returns the simulated time when the run stopped.  With ``until``,
        the clock is advanced to exactly ``until`` even if the last event
        fires earlier, so back-to-back ``run(until=...)`` calls compose.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        # The hottest loop in the repository: locals for the queue, the
        # heap pop and the probe list shave an attribute lookup from
        # every event (probes is aliased, not copied, so probes attached
        # mid-run — e.g. by a sanitizer on a VM provisioned during the
        # run — are still picked up).
        queue = self._queue
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace
        probes = self._probes
        try:
            while queue:
                time, _, call = queue[0]
                if call.cancelled:
                    heappop(queue)
                    continue
                if until is not None and time > until:
                    break
                self._now = time
                if call.repeats:
                    # A silent boundary: re-arm one period on, call nothing.
                    call.repeats -= 1
                    call.time = time = time + call.period
                    heapreplace(queue, (time, self._seq, call))
                    self._seq += 1
                else:
                    heappop(queue)
                    call.callback(*call.args)
                if probes:
                    for probe in probes:
                        probe()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
        return self._now

    def run_process(self, generator: ProcessGenerator, name: str = "") -> Any:
        """Spawn a process, run the simulation to completion, return its value."""
        process = self.spawn(generator, name)
        self.run()
        if not process.finished:
            raise SimulationError(
                f"process {process.name!r} deadlocked (event queue drained)"
            )
        return process.value

    def pending_events(self) -> int:
        """Number of live (non-cancelled) calls still queued."""
        return sum(1 for _, _, call in self._queue if not call.cancelled)
