"""Re-armed round-robin in ``CpuCore`` against a per-quantum reference.

``CpuCore`` lets the event loop re-arm every quantum boundary before the
next completing slice, lone tasks and rotations of several alike, and
settles the passed quanta lazily.  ``PerQuantumCore`` is the plain
round-robin slicer: one scheduled ``_on_slice_end`` callback per
quantum, charged as it runs.  Both cores run on the same engine, so for
any schedule they must produce the same ordered trace of submits and
completions and the same accounting at every read, ties included.
"""

from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.cpu import CpuCore, CpuWork
from repro.sim.engine import Simulator
from repro.units import MS

QUANTUM = 2 * MS


class PerQuantumCore:
    """Reference slicer: one scheduled slice-end per quantum."""

    def __init__(self, sim, name="cpu", quantum_ns=QUANTUM):
        self.sim = sim
        self.name = name
        self.quantum_ns = quantum_ns
        self._run_queue = deque()
        self._current = None
        self._busy_ns = 0
        self._busy_by_label = {}

    def submit(self, work_ns, label=""):
        done = self.sim.event()
        if work_ns == 0:
            done.trigger(None)
            return done
        self._run_queue.append(CpuWork(label, work_ns, done, self.sim.now))
        if self._current is None:
            self._dispatch()
        return done

    def _dispatch(self):
        if self._current is not None or not self._run_queue:
            return
        work = self._run_queue.popleft()
        self._current = work
        slice_ns = min(self.quantum_ns, work.remaining)
        self.sim.schedule(slice_ns, self._on_slice_end, work, slice_ns)

    def _on_slice_end(self, work, slice_ns):
        self._busy_ns += slice_ns
        self._busy_by_label[work.label] = (
            self._busy_by_label.get(work.label, 0) + slice_ns
        )
        work.remaining -= slice_ns
        self._current = None
        if work.remaining > 0:
            self._run_queue.append(work)
        else:
            work.completed_at = self.sim.now
            work.done.trigger(work)
        self._dispatch()

    @property
    def busy_ns(self):
        return self._busy_ns

    def busy_ns_for(self, label):
        return self._busy_by_label.get(label, 0)

    def busy_ns_for_prefix(self, prefix):
        return sum(
            ns for label, ns in self._busy_by_label.items() if label.startswith(prefix)
        )

    def accounting(self):
        return dict(self._busy_by_label)

    def utilization(self):
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self._busy_ns / self.sim.now)


def _read(cores):
    """Every accounting view of every core; ``accounting()`` as a list
    so label insertion order is compared too."""
    return [
        (
            core.busy_ns,
            list(core.accounting().items()),
            core.busy_ns_for("a"),
            core.busy_ns_for_prefix("b"),
            core.utilization(),
        )
        for core in cores
    ]


def simulate(core_cls, n_cores, jobs, read_times):
    """Run ``jobs`` — ``(submit_ms, (core, work_ns, label, follow_ups))``,
    where follow-ups are jobs submitted from the done callback — with
    accounting reads at ``read_times`` and after every completion."""
    sim = Simulator()
    cores = [core_cls(sim, name=f"c{i}", quantum_ns=QUANTUM) for i in range(n_cores)]
    trace, reads = [], []

    def submit(job):
        core, work_ns, label, follow_ups = job
        trace.append((sim.now, core % n_cores, label, "submit"))
        done = cores[core % n_cores].submit(work_ns, label)
        done.add_callback(lambda _: finish(job))

    def finish(job):
        core, _, label, follow_ups = job
        trace.append((sim.now, core % n_cores, label, "done"))
        reads.append((sim.now, _read(cores)))
        for follow_up in follow_ups:
            submit(follow_up)

    def read():
        reads.append((sim.now, _read(cores)))

    for at_ms, job in jobs:
        sim.schedule_at(at_ms * MS, submit, job)
    for at in read_times:
        sim.schedule_at(at, read)
    sim.run()
    return trace, reads, _read(cores)


_work = st.one_of(
    st.integers(0, 12).map(lambda k: k * QUANTUM),
    st.tuples(st.integers(1, 12), st.sampled_from([-1, 1])).map(
        lambda kd: kd[0] * QUANTUM + kd[1]
    ),
    st.integers(1, 30 * QUANTUM),
)
_core = st.integers(0, 2)
_label = st.sampled_from(["a", "b1", "b2", "c"])
_leaf = st.tuples(_core, _work, _label, st.just(()))
_job = st.tuples(
    _core, _work, _label, st.lists(
        st.tuples(_core, _work, _label, st.lists(_leaf, max_size=1).map(tuple)),
        max_size=2,
    ).map(tuple),
)
_single = st.tuples(st.integers(0, 40), _job).map(lambda job: [job])
# 2-5 jobs submitted to one core in the same millisecond: rotations of
# three or more tasks, often with colliding labels.
_burst = st.builds(
    lambda at_ms, core, works: [
        (at_ms, (core, work_ns, label, ())) for work_ns, label in works
    ],
    st.integers(0, 40),
    _core,
    st.lists(st.tuples(_work, _label), min_size=2, max_size=5),
)
_schedule = st.lists(st.one_of(_single, _burst), min_size=1, max_size=8).map(
    lambda groups: [job for group in groups for job in group]
)
# Quantum boundaries of tasks submitted on whole milliseconds, and odd
# times between them.
_read_times = st.lists(
    st.one_of(
        st.integers(0, 60).map(lambda k: k * QUANTUM),
        st.integers(0, 60 * QUANTUM).map(lambda ns: ns | 1),
    ),
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(n_cores=st.integers(1, 3), jobs=_schedule, read_times=_read_times)
# Sibling vCPUs in phase: core 0's completion submits to core 1 at the
# very instant core 1's lone task crosses a quantum boundary.
@example(
    n_cores=2,
    jobs=[(0, (0, 10 * MS, "a", ((1, 3 * MS, "b1", ()),))), (0, (1, 20 * MS, "c", ()))],
    read_times=[10 * MS, 12 * MS],
)
# A stale slice-end: "b1" is armed at 2 ms with "a" behind it, the
# silent boundary at 4 ms hands "a" the core, and the submit at 5 ms
# settles that rotation.  The slice-end at 6 ms was armed with "b1" but
# must charge and hand over "a".
@example(
    n_cores=1,
    jobs=[
        (0, (0, 20 * MS, "a", ())),
        (0, (0, 20 * MS, "b1", ())),
        (5, (0, 3 * MS, "c", ())),
    ],
    read_times=[5 * MS, 7 * MS],
)
# A rotation of three settled two handovers in: "b1" is armed at 2 ms
# with "c" and "a" behind it, and the submit at 7 ms finds "a" on core.
@example(
    n_cores=1,
    jobs=[
        (0, (0, 20 * MS, "a", ())),
        (0, (0, 20 * MS, "b1", ())),
        (0, (0, 20 * MS, "c", ())),
        (7, (0, 3 * MS, "b2", ())),
    ],
    read_times=[],
)
def test_rearmed_core_matches_per_quantum_reference(n_cores, jobs, read_times):
    expected = simulate(PerQuantumCore, n_cores, jobs, read_times)
    assert simulate(CpuCore, n_cores, jobs, read_times) == expected


def _count_slice_ends(monkeypatch, core_cls, *works_ns):
    """Submit ``works_ns`` together; return the slice-end callback count
    and the time of every probe call."""
    calls = []
    original = core_cls._on_slice_end

    def counted(self, work, slice_ns):
        calls.append(slice_ns)
        original(self, work, slice_ns)

    monkeypatch.setattr(core_cls, "_on_slice_end", counted)
    sim = Simulator()
    probes = []
    sim.add_probe(lambda: probes.append(sim.now))
    core = core_cls(sim, quantum_ns=QUANTUM)
    for index, work_ns in enumerate(works_ns):
        core.submit(work_ns, f"t{index}")
    sim.run()
    assert sim.now == sum(works_ns)
    return len(calls), probes


class TestSliceEndCount:
    def test_lone_161ms_task_makes_two_callbacks(self, monkeypatch):
        rearmed, _ = _count_slice_ends(monkeypatch, CpuCore, 161 * MS)
        per_quantum, _ = _count_slice_ends(monkeypatch, PerQuantumCore, 161 * MS)
        assert (rearmed, per_quantum) == (2, 81)

    def test_probes_fire_on_every_boundary(self, monkeypatch):
        # The sanitizer counts probe calls, so its sweep count holds.
        _, rearmed = _count_slice_ends(monkeypatch, CpuCore, 161 * MS)
        _, per_quantum = _count_slice_ends(monkeypatch, PerQuantumCore, 161 * MS)
        assert rearmed == per_quantum
        assert len(rearmed) == 81

    def test_short_lone_task_is_not_rearmed(self, monkeypatch):
        count, _ = _count_slice_ends(monkeypatch, CpuCore, 2 * QUANTUM)
        assert count == 2

    @pytest.mark.parametrize("tasks, expected", [(2, (4, 100)), (3, (5, 150))])
    def test_contending_100ms_tasks(self, monkeypatch, tasks, expected):
        # One handover before the rotation forms, one callback where the
        # first completing slice starts, then one per completion.
        works = [100 * MS] * tasks
        rearmed, rearmed_probes = _count_slice_ends(monkeypatch, CpuCore, *works)
        per_quantum, per_quantum_probes = _count_slice_ends(
            monkeypatch, PerQuantumCore, *works
        )
        assert (rearmed, per_quantum) == expected
        assert rearmed_probes == per_quantum_probes


class TestLazyAccounting:
    def test_mid_run_reads_are_exact(self):
        sim = Simulator()
        core = CpuCore(sim, quantum_ns=QUANTUM)
        core.submit(20 * MS + 1, "t")
        seen = []
        for at in (1 * MS, 5 * MS, 7 * MS, 19 * MS):
            sim.schedule_at(at, lambda: seen.append(core.busy_ns_for("t")))
        sim.run()
        assert seen == [0, 4 * MS, 6 * MS, 18 * MS]
        assert core.busy_ns == 20 * MS + 1

    def test_boundary_tie_follows_scheduling_order(self):
        # The boundary at 4 ms is queued when the one at 2 ms re-arms.
        # A read queued before that runs first at 4 ms and must not see
        # the quantum ending there; a read queued after it must.
        sim = Simulator()
        core = CpuCore(sim, quantum_ns=QUANTUM)
        seen = []

        def read():
            seen.append(core.busy_ns)

        sim.schedule_at(4 * MS, read)
        core.submit(10 * MS, "t")
        sim.schedule_at(3 * MS, sim.schedule_at, 4 * MS, read)
        sim.run()
        assert seen == [2 * MS, 4 * MS]
