"""Per-layer tracing of the simulator, installed from outside ``src/``.

:class:`LayerTracer` patches the public entry points of each layer
(class attributes only, restored by :meth:`LayerTracer.uninstall`) so
that every call, every generator resume and every scheduled event
becomes a span: name, start, end and parent, kept in flat arrays in
memory and written out by :meth:`LayerTracer.write`.  A layer's self
time is the time its spans cover minus the time their children cover.

Three kinds of span make the attribution complete:

* ``event.<layer>`` — one scheduled callback, attributed to the layer
  that owns the callback's module (``cpu.slice`` for ``CpuCore``
  slice ends);
* ``step.<layer>`` — one resume of a process generator started with
  ``Simulator.spawn``, attributed to the generator's module;
* named entry points such as ``mm.alloc`` or ``virtio.unplug``.  For a
  generator entry point every resume is timed, not the generator's
  creation.

So ``sim`` self time is the engine loop itself: heap operations and
dispatch, with every callback's work claimed by its own layer.

Counts are taken at the same boundaries.  They depend only on the
simulation, so they repeat exactly from run to run.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
import weakref
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.provision import Fleet
from repro.cluster.routing import RoutingPolicy, TraceRouter
from repro.core.manager import HotMemManager
from repro.faas.agent import Agent
from repro.faas.lifecycle import EvictionPolicy
from repro.metrics.collector import TimeSeries
from repro.mm.manager import GuestMemoryManager
from repro.mm.placement import PlacementPolicy
from repro.modes.datapaths import ReclaimDatapath
from repro.obs.rollup import RollupSeries
from repro.sim.cpu import CpuCore
from repro.sim.engine import Process, Simulator
from repro.virtio.device import VirtioMemDevice
from repro.workloads.azure import AzureTraceGenerator

_now_ns = time.perf_counter_ns

def module_layer(module: Optional[str]) -> str:
    """The layer that owns a module: its ``repro`` subpackage, with the
    CPU model split out of the engine as ``cpu``."""
    if not module or not module.startswith("repro."):
        return "other"
    if module == "repro.sim.cpu":
        return "cpu"
    return module.split(".")[1]


def _callable_module(callback: Callable[..., Any]) -> Optional[str]:
    module = getattr(callback, "__module__", None)
    if module is None and hasattr(callback, "func"):  # functools.partial
        module = getattr(callback.func, "__module__", None)
    return module


def _subclasses_defining(base: type, attribute: str) -> List[type]:
    """``base`` and its subclasses that define ``attribute`` themselves."""
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if attribute in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class LayerTracer:
    """Spans and counts for one or more traced sweeps (see module doc)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("H")
        #: Per span name: summed self time (ns) and span count.
        self.self_ns: List[int] = []
        self.spans_by_name: List[int] = []
        self._stack: List[List[int]] = []
        #: Named counters (calls, outcomes); see :meth:`counts`.
        self.counters: Dict[str, int] = defaultdict(int)
        #: Executed events per layer.
        self.events: Dict[str, int] = defaultdict(int)
        self._scheduled = 0
        self._pending_at_end = 0
        self._sims: List[Simulator] = []
        self._process_layer: Dict[Process, str] = {}
        self._wrapper_layer: "weakref.WeakKeyDictionary[Any, str]" = (
            weakref.WeakKeyDictionary()
        )
        self._patches: List[Tuple[type, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.spans_by_name.append(0)
        return nid

    def begin(self, nid: int) -> None:
        stack = self._stack
        index = len(self.start)
        self.start.append(_now_ns())
        self.end.append(0)
        self.parent.append(stack[-1][0] if stack else -1)
        self.name.append(nid)
        stack.append([index, 0])

    def finish(self) -> None:
        index, child_ns = self._stack.pop()
        now = _now_ns()
        self.end[index] = now
        duration = now - self.start[index]
        nid = self.name[index]
        self.self_ns[nid] += duration - child_ns
        self.spans_by_name[nid] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` inside one span called ``name``."""
        self.begin(self.name_id(name))
        try:
            return fn(*args)
        finally:
            self.finish()

    def steps(
        self,
        inner: Any,
        nid: int,
        on_return: Optional[Callable[[Any], None]] = None,
    ) -> Any:
        """Wrap generator ``inner`` so that each resume is one span.

        Yields exactly what ``inner`` yields and forwards sends, throws
        and close, so processes and ``yield from`` callers see no
        difference.  ``on_return`` receives the generator's return
        value.
        """
        wrapper = self._steps(inner, nid, on_return)
        wrapper.__name__ = inner.__name__
        wrapper.__qualname__ = inner.__qualname__
        self._wrapper_layer[wrapper] = self._generator_layer(inner)
        return wrapper

    def _steps(self, inner, nid, on_return):
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            self.begin(nid)
            try:
                if error is None:
                    target = inner.send(value)
                else:
                    target = inner.throw(error)
            except StopIteration as stop:
                result = stop.value
                break
            finally:
                self.finish()
            error = None
            try:
                value = yield target
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # forwarded into ``inner``
                error, value = exc, None
        if on_return is not None:
            on_return(result)
        return result

    def _generator_layer(self, generator: Any) -> str:
        layer = self._wrapper_layer.get(generator)
        if layer is not None:
            return layer
        frame = getattr(generator, "gi_frame", None)
        if frame is None:
            return "other"
        return module_layer(frame.f_globals.get("__name__"))

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, cls: type, attribute: str, replacement: Any) -> None:
        self._patches.append((cls, attribute, cls.__dict__[attribute]))
        setattr(cls, attribute, replacement)

    def _wrap_call(
        self,
        cls: type,
        attribute: str,
        name: str,
        on_call: Optional[Callable[..., None]] = None,
        on_result: Optional[Callable[..., None]] = None,
    ) -> None:
        fn = cls.__dict__[attribute]
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer.counters[name] += 1
            if on_call is not None:
                on_call(*args, **kwargs)
            tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish()
            if on_result is not None:
                on_result(result, *args)
            return result

        traced.__wrapped__ = fn
        self._patch(cls, attribute, traced)

    def _wrap_generator(
        self,
        cls: type,
        attribute: str,
        name: Callable[[Any], str],
        on_return: Optional[Callable[[Any], None]] = None,
    ) -> None:
        fn = cls.__dict__[attribute]
        tracer = self

        def traced(self_, *args, **kwargs):
            span = name(self_)
            tracer.counters[span] += 1
            return tracer.steps(
                fn(self_, *args, **kwargs), tracer.name_id(span), on_return
            )

        traced.__wrapped__ = fn
        self._patch(cls, attribute, traced)

    def install(self) -> None:
        """Patch every traced entry point; :meth:`uninstall` undoes it."""
        counters = self.counters

        # --- sim: the event loop, event counts by owning layer ---------
        self._install_engine()

        # --- cpu -------------------------------------------------------
        def count_submit(core, work_ns, label=""):
            if work_ns > 0:
                counters["cpu.submits"] += 1

        self._wrap_call(CpuCore, "submit", "cpu.submit", on_call=count_submit)

        # --- mm --------------------------------------------------------
        self._wrap_call(GuestMemoryManager, "alloc_pages", "mm.alloc")
        self._wrap_call(GuestMemoryManager, "migrate_block_out", "mm.migrate")
        for cls in _subclasses_defining(PlacementPolicy, "plan"):
            self._wrap_call(cls, "plan", "mm.plan")

        # --- virtio ----------------------------------------------------
        def note_unplug(result):
            if not result.fully_unplugged:
                counters["virtio.partial_unplugs"] += 1
            counters["virtio.unplugs_done"] += 1

        self._wrap_generator(VirtioMemDevice, "plug", lambda _: "virtio.plug")
        self._wrap_generator(
            VirtioMemDevice, "unplug", lambda _: "virtio.unplug", note_unplug
        )

        # --- core (HotMem) ----------------------------------------------
        self._wrap_generator(HotMemManager, "attach", lambda _: "core.attach")
        self._wrap_call(HotMemManager, "process_exit", "core.exit")

        # --- modes: each datapath, named by its registry name ----------
        for cls in _subclasses_defining(ReclaimDatapath, "plug"):
            self._wrap_generator(
                cls, "plug", lambda dp: f"modes.{dp.name}.plug"
            )
        for cls in _subclasses_defining(ReclaimDatapath, "unplug"):
            self._wrap_generator(
                cls, "unplug", lambda dp: f"modes.{dp.name}.unplug"
            )

        # --- faas ------------------------------------------------------
        def note_invocation(record):
            counters["faas.completed"] += 1
            if record.cold:
                counters["faas.cold_starts"] += 1

        self._wrap_generator(
            Agent, "handle", lambda _: "faas.handle", note_invocation
        )
        self._wrap_generator(Agent, "recycle_pass", lambda _: "faas.recycle")
        for cls in _subclasses_defining(EvictionPolicy, "note_eviction"):
            self._wrap_call(cls, "note_eviction", "faas.evict")

        # --- cluster ---------------------------------------------------
        def note_admission(result, *args):
            if not result.admitted:
                counters["cluster.admit_rejects"] += 1

        def note_router(result, router, *args):
            counters["cluster.routed"] += len(router.records)
            counters["cluster.route_rejects"] += router.rejection_count

        self._wrap_call(Fleet, "try_provision", "cluster.provision")
        self._wrap_call(Fleet, "admit", "cluster.admit", on_result=note_admission)
        for cls in _subclasses_defining(RoutingPolicy, "select"):
            self._wrap_call(cls, "select", "cluster.route")
        self._wrap_call(TraceRouter, "run", "cluster.router_run", on_result=note_router)

        # --- metrics / obs ---------------------------------------------
        self._wrap_call(TimeSeries, "record", "metrics.record")
        self._wrap_call(RollupSeries, "record", "obs.rollup")

        # --- workloads -------------------------------------------------
        def note_trace(trace, *args):
            counters["workloads.invocations"] += len(trace)

        self._wrap_call(
            AzureTraceGenerator, "generate", "workloads.trace_gen",
            on_result=note_trace,
        )
        for attribute in ("bursty", "diurnal"):
            self._wrap_call(AzureTraceGenerator, attribute, "workloads.trace_gen")

    def _install_engine(self) -> None:
        tracer = self
        events = self.events
        counters = self.counters
        init = Simulator.__dict__["__init__"]
        schedule_at = Simulator.__dict__["schedule_at"]
        spawn = Simulator.__dict__["spawn"]
        run = Simulator.__dict__["run"]
        slice_nid = self.name_id("cpu.slice")
        run_nid = self.name_id("sim.run")
        process_layer = self._process_layer

        def traced_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            tracer._sims.append(sim)

        def traced_spawn(sim, generator, name=""):
            layer = tracer._generator_layer(generator)
            process = spawn(
                sim, tracer.steps(generator, tracer.name_id(f"step.{layer}")), name
            )
            process_layer[process] = layer
            return process

        def traced_schedule_at(sim, time_ns, callback, *args):
            tracer._scheduled += 1
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, Process):
                # The resumed generator's own step span does the timing.
                # Look the layer up when the event fires: ``spawn``
                # schedules the first resume before it returns the process.
                def fire(*fire_args):
                    events[process_layer.get(owner, "sim")] += 1
                    callback(*fire_args)

            elif isinstance(owner, CpuCore):
                core = owner

                def fire(work, slice_ns):
                    events["cpu"] += 1
                    counters["cpu.slice_events"] += 1
                    if core.queue_depth > 0:
                        counters["cpu.handover_slices"] += 1
                    elif work.remaining > slice_ns:
                        counters["cpu.lone_slices"] += 1
                    tracer.begin(slice_nid)
                    try:
                        callback(work, slice_ns)
                    finally:
                        tracer.finish()

            else:
                layer = module_layer(_callable_module(callback))
                nid = tracer.name_id(f"event.{layer}")

                def fire(*fire_args):
                    events[layer] += 1
                    tracer.begin(nid)
                    try:
                        callback(*fire_args)
                    finally:
                        tracer.finish()

            return schedule_at(sim, time_ns, fire, *args)

        def traced_run(sim, until=None):
            tracer.begin(run_nid)
            try:
                return run(sim, until)
            finally:
                tracer.finish()

        self._patch(Simulator, "__init__", traced_init)
        self._patch(Simulator, "schedule_at", traced_schedule_at)
        self._patch(Simulator, "spawn", traced_spawn)
        self._patch(Simulator, "run", traced_run)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            cls, attribute, original = self._patches.pop()
            setattr(cls, attribute, original)

    def end_cell(self) -> None:
        """Close the books on one cell: count the events its simulators
        left queued, and drop references to them."""
        self._pending_at_end += sum(sim.pending_events() for sim in self._sims)
        self._sims.clear()
        self._process_layer.clear()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer, in host seconds."""
        out: Dict[str, float] = defaultdict(float)
        for nid, name in enumerate(self.names):
            prefix = name.split(".", 1)[0]
            layer = name.split(".")[1] if prefix in ("event", "step") else prefix
            out[layer] += self.self_ns[nid] / 1e9
        return dict(out)

    def name_self_s(self, name: str) -> float:
        nid = self._name_ids.get(name)
        return self.self_ns[nid] / 1e9 if nid is not None else 0.0

    def span_count(self) -> int:
        return len(self.start)

    def spans_per_name(self) -> Dict[str, int]:
        """Closed spans by name: deterministic, like the counts."""
        return dict(zip(self.names, self.spans_by_name))

    def drop_spans(self) -> None:
        """Free the span arrays, keeping counts and self times."""
        self.start, self.end, self.parent, self.name = (
            array("q"), array("q"), array("q"), array("H"),
        )

    def counts(self) -> Dict[str, int]:
        """Every deterministic count of this trace, by name."""
        out = dict(self.counters)
        executed = sum(self.events.values())
        out["sim.events"] = executed
        out["sim.events_cancelled"] = (
            self._scheduled - executed - self._pending_at_end
        )
        for layer, count in self.events.items():
            out[f"sim.events.{layer}"] = count
        return out

    def write(self, path: str) -> None:
        """Write every span to ``path`` (gzip): one JSON header line
        naming the span names and array layout, then the raw arrays
        ``start_ns``, ``end_ns``, ``parent`` (int64, parent is a span
        index or -1) and ``name`` (uint16 index into ``names``)."""
        header = {
            "spans": len(self.start),
            "names": self.names,
            "arrays": [
                ["start_ns", "q"],
                ["end_ns", "q"],
                ["parent", "q"],
                ["name", "H"],
            ],
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.start, self.end, self.parent, self.name):
                column.tofile(out)
