"""Unit tests for causal spans: identity, parenting, close semantics,
and the inert NULL_SPAN."""

import gc
import tracemalloc

from repro.obs import NO_OBS
from repro.obs.span import NULL_SPAN, Span, Tracer
from repro.sim import Simulator, Timeout


def make_tracer(now_ns=0):
    sim = Simulator()
    tracer = Tracer()
    tracer.bind_sim(sim)
    if now_ns:
        sim.run_process(_advance(now_ns), name="advance")
    return sim, tracer


def _advance(ns):
    yield Timeout(ns)


class TestSpanIdentity:
    def test_root_starts_its_own_trace(self):
        _, tracer = make_tracer()
        root = tracer.span("device.unplug")
        assert root.trace_id == root.span_id
        assert root.parent_id is None

    def test_child_inherits_trace_and_links_parent(self):
        _, tracer = make_tracer()
        root = tracer.span("device.unplug")
        child = tracer.span("phase.offline", parent=root)
        grandchild = tracer.span("phase.migrate", parent=child)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.trace_id == root.trace_id
        assert grandchild.parent_id == child.span_id

    def test_null_span_parent_makes_a_root(self):
        _, tracer = make_tracer()
        span = tracer.span("agent.plug", parent=NULL_SPAN)
        assert span.parent_id is None
        assert span.trace_id == span.span_id

    def test_ids_are_dense_and_deterministic(self):
        _, tracer = make_tracer()
        ids = [tracer.span(f"s{i}").span_id for i in range(5)]
        assert ids == [1, 2, 3, 4, 5]


class TestSpanClose:
    def test_close_stamps_clock_and_fires_consumer_once(self):
        sim, tracer = make_tracer()
        span = tracer.span("faas.invoke")
        sim.run_process(_advance(100), name="t")
        span.close()
        span.close()  # idempotent: the span must not finish again
        assert span.end_ns == 100
        assert tracer.spans() == [span]

    def test_explicit_end_ns_and_close_attrs(self):
        _, tracer = make_tracer()
        span = tracer.span("device.plug", requested_bytes=4096)
        span.close(end_ns=77, completed_bytes=4096, error="")
        assert span.end_ns == 77
        assert span.duration_ns == 77
        assert span.attrs["completed_bytes"] == 4096

    def test_second_close_keeps_first_end(self):
        _, tracer = make_tracer()
        span = tracer.span("x").close(end_ns=5)
        span.close(end_ns=99)
        assert span.end_ns == 5

    def test_open_span_duration_is_zero(self):
        _, tracer = make_tracer()
        span = tracer.span("x")
        assert not span.closed
        assert span.duration_ns == 0

    def test_event_is_instant(self):
        sim, tracer = make_tracer()
        sim.run_process(_advance(42), name="t")
        event = tracer.event("partition.assign", partition=3)
        assert event.closed
        assert event.start_ns == event.end_ns == 42

    def test_context_manager_closes(self):
        _, tracer = make_tracer()
        with tracer.span("agent.recycle") as span:
            span.set(evicted=1)
        assert span.closed
        assert tracer.open_spans() == 0


class TestTracerRegistry:
    def test_open_bookkeeping(self):
        _, tracer = make_tracer()
        a = tracer.span("a")
        b = tracer.span("b")
        assert tracer.open_spans() == 2
        assert tracer.open_span_list() == [a, b]
        a.close()
        assert tracer.open_spans() == 1
        assert tracer.spans() == [a]
        b.close()
        assert tracer.spans() == [a, b]

    def test_close_open_closes_children_before_parents(self):
        _, tracer = make_tracer()
        root = tracer.span("faas.invoke")
        child = tracer.span("agent.plug", parent=root)
        closed = tracer.close_open(cut="run-end")
        assert closed == 2
        assert tracer.open_spans() == 0
        # Close order: the child (higher id) first, so the export never
        # shows a parent finished while its child is still open.
        assert tracer.spans() == [child, root]
        assert root.attrs["cut"] == "run-end"
        assert child.attrs["cut"] == "run-end"
        assert tracer.close_open() == 0  # idempotent


class TestDisabledTracer:
    def test_span_degrades_to_null(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("x") is NULL_SPAN
        assert tracer.event("y") is NULL_SPAN
        assert tracer.spans() == []
        assert tracer.open_spans() == 0


class TestNullSpan:
    def test_inert_and_falsy(self):
        assert not NULL_SPAN
        assert NULL_SPAN.closed
        assert NULL_SPAN.duration_ns == 0
        assert NULL_SPAN.set(a=1) is NULL_SPAN
        assert NULL_SPAN.close(end_ns=9) is NULL_SPAN
        assert NULL_SPAN.attrs == {}

    def test_usable_as_context_manager(self):
        with NULL_SPAN as span:
            assert span is NULL_SPAN

    def test_real_span_is_truthy(self):
        _, tracer = make_tracer()
        assert tracer.span("x")
        assert isinstance(tracer.span("y"), Span)


class TestUntracedPath:
    def test_untraced_bundle_retains_nothing(self):
        """With tracing off, the scope/span singletons hold onto no label
        dicts or span objects: net retained memory is ~0 bytes per op."""
        ops = 20_000
        scope = NO_OBS.scope(vm="vm-0", mode="hotmem", host="host-0")
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for index in range(ops):
                span = scope.span("driver.unplug_block", block=index)
                scope.inc("mm.blocks_unplugged")
                scope.observe("mm.unplug_latency_ns", 1_000)
                span.close()
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(0, after - before) / ops <= 1.0
