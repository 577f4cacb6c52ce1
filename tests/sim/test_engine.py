"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import AllOf, Event, Process, Simulator, Timeout


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_callback_runs_at_scheduled_time(self, sim):
        seen = []
        sim.schedule(10, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [10]

    def test_callbacks_run_in_time_order(self, sim):
        seen = []
        sim.schedule(30, seen.append, "c")
        sim.schedule(10, seen.append, "a")
        sim.schedule(20, seen.append, "b")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_same_timestamp_runs_in_scheduling_order(self, sim):
        seen = []
        for tag in range(5):
            sim.schedule(7, seen.append, tag)
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(42, seen.append, "x")
        sim.run()
        assert sim.now == 42
        assert seen == ["x"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_cancel_prevents_execution(self, sim):
        seen = []
        call = sim.schedule(10, seen.append, "x")
        call.cancel()
        sim.run()
        assert seen == []

    def test_cancel_after_run_is_harmless(self, sim):
        call = sim.schedule(1, lambda: None)
        sim.run()
        call.cancel()

    def test_run_until_stops_before_later_events(self, sim):
        seen = []
        sim.schedule(10, seen.append, "early")
        sim.schedule(100, seen.append, "late")
        sim.run(until=50)
        assert seen == ["early"]
        assert sim.now == 50

    def test_run_until_advances_clock_without_events(self, sim):
        sim.run(until=1234)
        assert sim.now == 1234

    def test_run_until_composes(self, sim):
        seen = []
        sim.schedule(10, seen.append, 1)
        sim.schedule(60, seen.append, 2)
        sim.run(until=50)
        sim.run(until=100)
        assert seen == [1, 2]
        assert sim.now == 100

    def test_step_executes_one_callback(self, sim):
        seen = []
        sim.schedule(1, seen.append, "a")
        sim.schedule(2, seen.append, "b")
        assert sim.step() is True
        assert seen == ["a"]

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_pending_events_excludes_cancelled(self, sim):
        call = sim.schedule(5, lambda: None)
        sim.schedule(6, lambda: None)
        call.cancel()
        assert sim.pending_events() == 1

    def test_callbacks_can_schedule_more(self, sim):
        seen = []
        sim.schedule(1, lambda: sim.schedule(1, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2]


class TestEvents:
    def test_trigger_resumes_callbacks_with_value(self, sim):
        event = sim.event()
        seen = []
        event.add_callback(seen.append)
        event.trigger("payload")
        assert seen == ["payload"]

    def test_callback_after_trigger_runs_immediately(self, sim):
        event = sim.event()
        event.trigger(5)
        seen = []
        event.add_callback(seen.append)
        assert seen == [5]

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.trigger()
        with pytest.raises(SimulationError):
            event.trigger()

    def test_callbacks_fifo(self, sim):
        event = sim.event()
        seen = []
        event.add_callback(lambda _: seen.append(1))
        event.add_callback(lambda _: seen.append(2))
        event.trigger()
        assert seen == [1, 2]


class TestProcesses:
    def test_process_return_value(self, sim):
        def body():
            yield Timeout(3)
            return "result"

        assert sim.run_process(body()) == "result"

    def test_timeout_advances_clock(self, sim):
        def body():
            yield Timeout(5)
            yield Timeout(7)
            return sim.now

        assert sim.run_process(body()) == 12

    def test_wait_on_event_receives_value(self, sim):
        event = sim.event()
        sim.schedule(10, event.trigger, "hello")

        def body():
            value = yield event
            return value, sim.now

        assert sim.run_process(body()) == ("hello", 10)

    def test_join_process_receives_return_value(self, sim):
        def child():
            yield Timeout(4)
            return 99

        def parent():
            value = yield sim.spawn(child())
            return value

        assert sim.run_process(parent()) == 99

    def test_allof_waits_for_every_event(self, sim):
        events = [sim.event() for _ in range(3)]
        for i, event in enumerate(events):
            sim.schedule(10 * (i + 1), event.trigger, i)

        def body():
            values = yield AllOf(events)
            return values, sim.now

        values, finished = sim.run_process(body())
        assert values == [0, 1, 2]
        assert finished == 30

    def test_allof_empty_resumes_immediately(self, sim):
        def body():
            values = yield AllOf([])
            return values

        assert sim.run_process(body()) == []

    def test_allof_with_triggered_events(self, sim):
        event = sim.event()
        event.trigger("done")

        def body():
            values = yield AllOf([event])
            return values

        assert sim.run_process(body()) == ["done"]

    def test_yielding_garbage_raises(self, sim):
        def body():
            yield 42

        sim.spawn(body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_deadlock_detected_by_run_process(self, sim):
        never = sim.event()

        def body():
            yield never

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_process(body())

    def test_process_finished_flag(self, sim):
        def body():
            yield Timeout(1)

        process = sim.spawn(body())
        assert not process.finished
        sim.run()
        assert process.finished

    def test_two_processes_interleave_deterministically(self, sim):
        seen = []

        def worker(tag, delay):
            for _ in range(3):
                yield Timeout(delay)
                seen.append((tag, sim.now))

        sim.spawn(worker("a", 2))
        sim.spawn(worker("b", 3))
        sim.run()
        # At t=6 both fire; "b" scheduled its timer first (at t=3), so it
        # resumes first (stable scheduling order).
        assert seen == [
            ("a", 2), ("b", 3), ("a", 4), ("b", 6), ("a", 6), ("b", 9),
        ]

    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-5)

    def test_run_not_reentrant(self, sim):
        def evil():
            sim.run()
            yield Timeout(1)

        sim.spawn(evil())
        with pytest.raises(SimulationError, match="reentrant"):
            sim.run()


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build():
            sim = Simulator()
            seen = []

            def worker(tag):
                for step in range(5):
                    yield Timeout((tag * 7 + step * 3) % 11 + 1)
                    seen.append((tag, sim.now))

            for tag in range(4):
                sim.spawn(worker(tag))
            sim.run()
            return seen

        assert build() == build()


class TestKill:
    def test_kill_runs_finally_blocks(self, sim):
        log = []

        def victim():
            try:
                yield Timeout(100)
                log.append("ran")
            finally:
                log.append("cleanup")

        process = sim.spawn(victim())
        sim.schedule(10, process.kill)
        sim.run()
        assert log == ["cleanup"]
        assert process.finished

    def test_joiner_receives_the_kill_value(self, sim):
        def victim():
            yield Timeout(100)
            return "never"

        def joiner(process, out):
            out.append((yield process))

        out = []
        process = sim.spawn(victim())
        sim.spawn(joiner(process, out))
        sim.schedule(5, process.kill, "killed")
        sim.run()
        assert out == ["killed"]

    def test_kill_after_completion_is_a_noop(self, sim):
        def body():
            yield Timeout(1)
            return "done"

        process = sim.spawn(body())
        sim.run()
        assert process.finished
        process.kill()  # must not raise or re-trigger the done event
        assert process.finished

    def test_dangling_wakeup_after_kill_is_absorbed(self, sim):
        # The parked Timeout's wakeup stays queued after the kill; when
        # it fires at t=100 the resume guard must absorb it silently.
        def victim():
            yield Timeout(100)

        process = sim.spawn(victim())
        sim.schedule(10, process.kill)
        sim.run()  # drains past t=100 without raising
        assert sim.now == 100

    def test_kill_mid_chain_kills_only_the_target(self, sim):
        log = []

        def worker(tag, delay):
            yield Timeout(delay)
            log.append(tag)

        doomed = sim.spawn(worker("doomed", 50))
        sim.spawn(worker("survivor", 60))
        sim.schedule(5, doomed.kill)
        sim.run()
        assert log == ["survivor"]


class TestRearm:
    """A call with ``repeats`` left is pushed back ``period`` ns later at
    each boundary, with the next sequence number, and runs nothing."""

    @staticmethod
    def repeating(sim, seen, time=10, period=10, repeats=3):
        call = sim.schedule_at(time, lambda: seen.append(sim.now))
        call.period, call.repeats = period, repeats
        return call

    def test_callback_runs_once_after_the_repeats(self, sim):
        seen = []
        self.repeating(sim, seen)
        sim.run()
        assert seen == [40]
        assert sim.now == 40

    def test_step_executes_one_silent_boundary_per_call(self, sim):
        seen = []
        call = self.repeating(sim, seen)
        for expected_now, expected_time in ((10, 20), (20, 30), (30, 40)):
            assert sim.step() is True
            assert (sim.now, call.time, seen) == (expected_now, expected_time, [])
        assert sim.step() is True
        assert seen == [40]
        assert sim.step() is False

    def test_run_until_stops_on_a_silent_boundary_and_resumes(self, sim):
        seen = []
        call = self.repeating(sim, seen)
        sim.run(until=20)
        assert (sim.now, call.time, call.repeats, seen) == (20, 30, 1, [])
        sim.run()
        assert seen == [40]

    def test_cancel_a_repeating_call(self, sim):
        seen = []
        call = self.repeating(sim, seen)
        sim.step()
        call.cancel()
        assert sim.pending_events() == 0
        sim.run()
        assert seen == []
        assert sim.now == 10

    def test_pending_events_counts_a_repeating_call_once(self, sim):
        seen = []
        self.repeating(sim, seen)
        sim.schedule(15, lambda: None)
        assert sim.pending_events() == 2
        sim.step()
        assert sim.pending_events() == 2
        sim.run(until=35)
        assert sim.pending_events() == 1

    def test_probes_fire_on_silent_boundaries(self, sim):
        seen, probed = [], []
        self.repeating(sim, seen)
        sim.add_probe(lambda: probed.append(sim.now))
        sim.run()
        assert probed == [10, 20, 30, 40]

    def test_zeroing_repeats_runs_the_callback_at_the_next_boundary(self, sim):
        seen = []
        call = self.repeating(sim, seen)
        sim.schedule_at(25, setattr, call, "repeats", 0)
        sim.run()
        assert seen == [30]

    def test_rearm_takes_the_next_sequence_number(self, sim):
        # At t=20 the boundary re-arm (queued at t=10) ties with a call
        # queued before it and one queued after it.
        seen = []
        self.repeating(sim, seen, repeats=1)
        sim.schedule_at(20, seen.append, "before")
        sim.schedule_at(15, sim.schedule_at, 20, seen.append, "after")
        sim.run()
        assert seen == ["before", 20, "after"]
