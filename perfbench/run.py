"""Experiment-level benchmark of the simulator (host time, not simulated time).

Usage::

    python3 perfbench/run.py --workload keepalive --seed 0 --seconds 40 --trace 0

Runs one workload's experiment sweep (see ``workloads.py``) serially
through ``repro.sweep.run_sweep`` again and again, starting another
sweep only while it still fits in ``--seconds``.  It checks every
cell's payload digest against ``references.json`` and prints every
metric by name and unit, then one JSON line::

    {"correct": ..., "attempted": <cells run>, "failed": <cells that raised
     or whose digest differed>, "metrics": {name: {"value": v, "unit": u}}}

``--trace 0`` reports the end-to-end metrics (``wall_s``,
``peak_rss_mib``, ``setup_s``), with one fresh-process set-up probe
after each sweep.  Each sweep and each probe is timed between two runs
of a fixed reference loop and scaled to the reference host speed, so
that the host's slow phases cancel out.  ``--trace 1`` spends a third
of the time on untraced sweeps and the rest on at least two sweeps
traced by ``layers.LayerTracer`` and reports the per-layer metrics.
Each run also writes a snapshot with every number (unscaled times
too), the slowest cell and the ``src/`` line count to
``perfbench/out/``; a traced run writes its spans there too.

Exit status: 0 when every digest matched, 1 on any failed cell or a
count that did not repeat, 2 on a usage or set-up error (for example
when ``src/`` is missing).
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"
#: Hex digits of each cell's payload digest kept as its reference.
DIGEST_CHARS = 16
#: Events of the reference loop (``_reference_s``), and the loop's time
#: on a quiet host: the fastest seen on a shared 2-vCPU VM, Python 3.11.
#: ``wall_s`` and ``setup_s`` are scaled to that host speed.
REFERENCE_EVENTS = 50_000
REFERENCE_S = 0.036
#: Datapaths reported under ``modes.<datapath>.*``.
DATAPATHS = ("virtio-mem", "balloon", "dimm", "fpr")
#: Layers whose scheduled-event counts are reported as ``sim.events.<layer>``.
#: The layers that own scheduled callbacks in these workloads; the
#: snapshot keeps every layer's count.
EVENT_LAYERS = ("cpu", "faas", "cluster", "baselines", "metrics", "obs")
#: The simulator's layers: the time ``trace.unclaimed_frac`` counts as
#: claimed.  The sweep runner, the cell functions (``experiments``) and
#: code outside ``repro`` are left unclaimed.
SIM_LAYERS = (
    "sim", "cpu", "mm", "virtio", "core", "modes", "baselines", "faas",
    "cluster", "metrics", "obs", "workloads", "faults", "host", "vmm",
)

_FAILED = object()


class SetupError(Exception):
    """The benchmark cannot run here (missing sources, unknown seed)."""


def load_references() -> Dict[str, Any]:
    with open(REFERENCES) as handle:
        return json.load(handle)


def _digest(payload: Any) -> str:
    from repro.sweep import payload_digest

    return payload_digest(payload)[:DIGEST_CHARS]


class Sweep:
    """One workload at one config seed, run serially in this process."""

    def __init__(self, workload: str, seed: int) -> None:
        from repro.sweep import RunContext

        self.config, self.grid, self.cell_fn = workloads.build(workload, seed)
        self.cells = self.grid.cells()
        self.context = RunContext(workers=1)
        self.errors: List[str] = []

    def run(self, tracer=None) -> Tuple[float, List[float], List[Any]]:
        """Run every cell once: ``(wall_s, per-cell seconds, payloads)``.

        A cell that raises yields ``_FAILED`` instead of a payload.
        """
        from repro.sweep import run_sweep

        cell_s = [0.0] * len(self.cells)
        cell_fn = self.cell_fn
        errors = self.errors

        def timed_cell(config, cell):
            start = time.perf_counter()
            try:
                if tracer is None:
                    return cell_fn(config, cell)
                try:
                    return tracer.call("experiments.cell", cell_fn, config, cell)
                finally:
                    tracer.end_cell()
            except Exception as exc:  # a raising cell is one failed operation
                errors.append(f"{cell.cell_id}: {exc!r}")
                return _FAILED
            finally:
                cell_s[cell.index] = time.perf_counter() - start

        gc.collect()
        start = time.perf_counter()
        if tracer is None:
            results = run_sweep(self.grid, timed_cell, self.config, self.context)
        else:
            results = tracer.call(
                "sweep.run", run_sweep, self.grid, timed_cell, self.config,
                self.context,
            )
        wall_s = time.perf_counter() - start
        return wall_s, cell_s, [result.payload for result in results]

    def digests(self, payloads: List[Any]) -> List[Optional[str]]:
        return [
            None if payload is _FAILED else _digest(payload)
            for payload in payloads
        ]


class Tally:
    """Cells attempted and failed across every sweep of a run."""

    def __init__(self, cell_ids: List[str], expected: List[str]) -> None:
        self.cell_ids = cell_ids
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def check(self, digests: List[Optional[str]]) -> None:
        for cell_id, got, want in zip(self.cell_ids, digests, self.expected):
            self.attempted += 1
            if got != want:
                self.failed += 1
                self.mismatches.append(f"{cell_id}: {got} != {want}")


def _setup_probe(workload: str, seed: int) -> float:
    """One set-up time, measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise SetupError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def _src_loc() -> int:
    return sum(
        sum(1 for _ in path.open(encoding="utf-8")) for path in SRC.rglob("*.py")
    )


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _cell_stats(sweep: Sweep, cell_samples: List[List[float]]) -> Dict[str, Any]:
    """Per-cell medians across sweeps, and the cell that bounds a
    sharded run."""
    medians = [statistics.median(times) for times in zip(*cell_samples)]
    slowest = max(range(len(medians)), key=medians.__getitem__)
    return {
        "cell_s": {c.cell_id: m for c, m in zip(sweep.cells, medians)},
        "slowest_cell": sweep.cells[slowest].cell_id,
        "cell_s_p50": statistics.median(medians),
        "cell_s_max": medians[slowest],
        "critical_cell_share": medians[slowest] / sum(medians),
    }


def _reference_s() -> float:
    """Host seconds a fixed pure-Python event loop takes right now.

    The loop has the simulator's shape (a heap of timed resumes of
    generators) but none of its code, so no change under ``src/`` moves
    it; only the host's speed does.
    """
    gc.collect()
    gc.disable()  # the loop makes no cycles; keep the heap size out of it
    start = time.perf_counter()
    tally: Dict[int, int] = {}

    def worker(k: int):
        x = k
        while True:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            tally[k & 15] = tally.get(k & 15, 0) + 1
            yield x % 2000 + 1

    workers = [worker(k) for k in range(64)]
    heap = []
    for k, gen in enumerate(workers):
        next(gen)
        heapq.heappush(heap, (k, k, k))
    seq = len(workers)
    for _ in range(REFERENCE_EVENTS):
        now, _, k = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, (now + workers[k].send(None), seq, k))
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


class Phase(NamedTuple):
    """What one measuring phase of a run collected."""

    walls: List[float]
    cell_samples: List[List[float]]
    #: One tracer per traced sweep; only the last keeps its spans.
    tracers: List[Any]
    setup_samples: List[float]
    #: ``_reference_s()`` around each sweep and each set-up probe: the
    #: mean of the one before and the one after.
    sweep_refs: List[float]
    setup_refs: List[float]


def _scaled(samples: List[float], refs: List[float]) -> float:
    """Median of ``samples``, each scaled to the reference host speed."""
    return statistics.median(
        sample * REFERENCE_S / ref for sample, ref in zip(samples, refs)
    )


def _run_sweeps(
    sweep: Sweep,
    tally: Tally,
    until: float,
    trace: bool = False,
    probe: Optional[Callable[[], float]] = None,
    min_rounds: int = 1,
) -> Phase:
    """Sweep (then ``probe()``) again and again while another round fits
    before ``until``; at least ``min_rounds`` times.  With a probe, each
    sweep and each probe is bracketed by ``_reference_s()``."""
    phase = Phase([], [], [], [], [], [])
    round_s = 0.0
    while (len(phase.walls) < min_rounds
           or time.perf_counter() + round_s <= until):
        round_start = time.perf_counter()
        if probe is not None:
            before = _reference_s()
        tracer = None
        if trace:
            from layers import LayerTracer

            tracer = LayerTracer()
            tracer.install()
        try:
            wall_s, cell_s, payloads = sweep.run(tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        tally.check(sweep.digests(payloads))
        phase.walls.append(wall_s)
        phase.cell_samples.append(cell_s)
        if tracer is not None:
            if phase.tracers:
                phase.tracers[-1].drop_spans()
            phase.tracers.append(tracer)
        if probe is not None:
            between = _reference_s()
            phase.setup_samples.append(probe())
            after = _reference_s()
            phase.sweep_refs.append((before + between) / 2)
            phase.setup_refs.append((between + after) / 2)
        round_s = time.perf_counter() - round_start
    return phase


def _layer_metrics(
    sweep: Sweep,
    tracers: List[Any],
    traced_walls: List[float],
    untraced_walls: List[float],
    cell_samples: List[List[float]],
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, Any], bool]:
    """Per-layer metrics from the traced sweeps of this run.

    Counts come from the first traced sweep (every later one, at least
    one, must repeat them exactly); times are medians over the traced
    sweeps.  The
    ``sweep.*`` cell times come from the untraced sweeps.
    """
    all_counts = [tracer.counts() for tracer in tracers]
    counts = all_counts[0]
    repeat = all(other == counts for other in all_counts[1:])
    layer_self = [tracer.layer_self_s() for tracer in tracers]
    self_s = {
        layer: statistics.median(each.get(layer, 0.0) for each in layer_self)
        for layer in sorted({layer for each in layer_self for layer in each})
    }

    def name_self(name: str) -> float:
        return statistics.median(tracer.name_self_s(name) for tracer in tracers)

    def c(name: str) -> int:
        return counts.get(name, 0)

    metrics: Dict[str, Tuple[float, str]] = {}
    metrics["sim.events"] = (c("sim.events"), "count")
    metrics["sim.events_cancelled"] = (c("sim.events_cancelled"), "count")
    for layer in EVENT_LAYERS:
        metrics[f"sim.events.{layer}"] = (c(f"sim.events.{layer}"), "count")
    metrics["sim.self_s"] = (self_s.get("sim", 0.0), "s")

    slices = c("cpu.slice_events")
    metrics["cpu.submits"] = (c("cpu.submits"), "count")
    metrics["cpu.slice_events"] = (slices, "count")
    metrics["cpu.slices_per_submit"] = (_frac(slices, c("cpu.submits")), "ratio")
    metrics["cpu.lone_slice_frac"] = (_frac(c("cpu.lone_slices"), slices), "ratio")
    metrics["cpu.handover_slice_frac"] = (
        _frac(c("cpu.handover_slices"), slices), "ratio",
    )
    metrics["cpu.self_s"] = (self_s.get("cpu", 0.0), "s")

    for short, name in (("alloc", "mm.alloc"), ("plan", "mm.plan"),
                        ("migrate", "mm.migrate")):
        metrics[f"mm.{short}_calls"] = (c(name), "count")
        metrics[f"mm.{short}_self_s"] = (name_self(name), "s")
    metrics["mm.self_s"] = (self_s.get("mm", 0.0), "s")

    metrics["virtio.plug_calls"] = (c("virtio.plug"), "count")
    metrics["virtio.unplug_calls"] = (c("virtio.unplug"), "count")
    metrics["virtio.partial_unplug_frac"] = (
        _frac(c("virtio.partial_unplugs"), c("virtio.unplugs_done")), "ratio",
    )
    metrics["virtio.self_s"] = (self_s.get("virtio", 0.0), "s")

    metrics["core.attach_calls"] = (c("core.attach"), "count")
    metrics["core.exit_calls"] = (c("core.exit"), "count")
    metrics["core.self_s"] = (self_s.get("core", 0.0), "s")

    for datapath in DATAPATHS:
        for op in ("plug", "unplug"):
            metrics[f"modes.{datapath}.{op}_calls"] = (
                c(f"modes.{datapath}.{op}"), "count",
            )
    metrics["modes.self_s"] = (self_s.get("modes", 0.0), "s")

    metrics["faas.invocations"] = (c("faas.handle"), "count")
    metrics["faas.cold_start_frac"] = (
        _frac(c("faas.cold_starts"), c("faas.completed")), "ratio",
    )
    metrics["faas.recycle_passes"] = (c("faas.recycle"), "count")
    metrics["faas.evictions"] = (c("faas.evict"), "count")
    metrics["faas.self_s"] = (self_s.get("faas", 0.0), "s")

    metrics["cluster.provision_calls"] = (c("cluster.provision"), "count")
    metrics["cluster.admit_reject_frac"] = (
        _frac(c("cluster.admit_rejects"), c("cluster.admit")), "ratio",
    )
    metrics["cluster.route_calls"] = (c("cluster.route"), "count")
    metrics["cluster.route_reject_frac"] = (
        _frac(c("cluster.route_rejects"), c("cluster.routed")), "ratio",
    )
    metrics["cluster.self_s"] = (self_s.get("cluster", 0.0), "s")

    metrics["metrics.samples"] = (c("metrics.record"), "count")
    metrics["obs.rollup_records"] = (c("obs.rollup"), "count")
    metrics["obs.self_s"] = (
        sum(self_s.get(layer, 0.0) for layer in ("metrics", "obs")), "s",
    )

    metrics["workloads.trace_gen_s"] = (self_s.get("workloads", 0.0), "s")
    metrics["workloads.invocations"] = (c("workloads.invocations"), "count")
    metrics["experiments.self_s"] = (self_s.get("experiments", 0.0), "s")

    stats = _cell_stats(sweep, cell_samples)
    overheads = [
        wall - sum(cells) for wall, cells in zip(untraced_walls, cell_samples)
    ]
    metrics["sweep.cells"] = (len(sweep.cells), "count")
    metrics["sweep.cell_s_p50"] = (stats["cell_s_p50"], "s")
    metrics["sweep.cell_s_max"] = (stats["cell_s_max"], "s")
    metrics["sweep.critical_cell_share"] = (stats["critical_cell_share"], "ratio")
    metrics["sweep.overhead_s"] = (statistics.median(overheads), "s")

    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
        "ratio",
    )
    metrics["trace.unclaimed_frac"] = (
        statistics.median(
            max(0.0, wall - sum(each.get(layer, 0.0) for layer in SIM_LAYERS))
            / wall
            for wall, each in zip(traced_walls, layer_self)
        ),
        "ratio",
    )
    metrics["trace.spans"] = (tracers[-1].span_count(), "count")
    src_loc = _src_loc()
    metrics["src.loc"] = (src_loc, "count")

    extra = {
        "src_loc": src_loc,
        "layer_self_s": self_s,
        "datapath_self_s": {
            datapath: name_self(f"modes.{datapath}.plug")
            + name_self(f"modes.{datapath}.unplug")
            for datapath in DATAPATHS
        },
        "counts": counts,
        "spans_per_name": tracers[-1].spans_per_name(),
        "traced_walls": traced_walls,
        **stats,
    }
    return metrics, extra, repeat


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no simulator sources under {SRC.name}/ next to {HERE.name}/")
    sys.path.insert(0, str(SRC))
    seed = workloads.config_seed(args.seed)
    references = load_references()["workloads"][args.workload]
    expected = references["digests"].get(str(seed))
    if expected is None:
        raise SetupError(f"no reference digests for config seed {seed}")

    import repro.experiments  # noqa: F401  (registers every experiment)

    sweep = Sweep(args.workload, seed)
    cell_ids = [cell.cell_id for cell in sweep.cells]
    if cell_ids != references["cells"]:
        raise SetupError("the workload's grid no longer matches references.json")
    tally = Tally(cell_ids, expected)

    start = time.perf_counter()
    repeat = True
    if args.trace:
        # A traced sweep takes about twice as long as an untraced one;
        # two of them at least, so that the counts are checked to repeat.
        untraced = _run_sweeps(sweep, tally, start + args.seconds / 3)
        traced = _run_sweeps(
            sweep, tally, start + args.seconds, trace=True, min_rounds=2,
        )
        metrics, extra, repeat = _layer_metrics(
            sweep, traced.tracers, traced.walls, untraced.walls,
            untraced.cell_samples,
        )
    else:
        def probe() -> float:
            return _setup_probe(args.workload, args.seed)

        probe()  # warm-up: the first probe may compile bytecode
        untraced = _run_sweeps(sweep, tally, start + args.seconds, probe=probe)
        metrics = {
            "wall_s": (_scaled(untraced.walls, untraced.sweep_refs), "s"),
            "peak_rss_mib": (_peak_rss_mib(), "MiB"),
            "setup_s": (
                _scaled(untraced.setup_samples, untraced.setup_refs), "s",
            ),
        }
        extra = {
            **_cell_stats(sweep, untraced.cell_samples),
            "src_loc": _src_loc(),
            "unscaled": {
                "wall_s": statistics.median(untraced.walls),
                "setup_s": statistics.median(untraced.setup_samples),
            },
        }

    correct = tally.failed == 0 and repeat
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    snapshot = {
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": seed,
        "seconds": args.seconds,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "mismatches": tally.mismatches[:20],
        "errors": sweep.errors[:20],
        "counts_repeat": repeat,
        "walls": untraced.walls,
        "cell_samples": untraced.cell_samples,
        "setup_samples": untraced.setup_samples,
        "sweep_refs": untraced.sweep_refs,
        "setup_refs": untraced.setup_refs,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **extra,
    }
    with open(OUT / f"{stem}.json", "w") as handle:
        json.dump(snapshot, handle, indent=1, sort_keys=True)
    if args.trace:
        traced.tracers[-1].write(str(OUT / f"spans-{args.workload}.bin.gz"))

    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(
        f"slowest cell: {extra['slowest_cell']} ({extra['cell_s_max']:.4f} s); "
        f"{len(untraced.walls)} untraced sweeps; src/ lines: {extra['src_loc']}"
    )
    if "unscaled" in extra:
        print("unscaled: " + ", ".join(
            f"{name} {value:.6g} s" for name, value in extra["unscaled"].items()
        ))
    for problem in (sweep.errors + tally.mismatches)[:10]:
        print(f"FAILED {problem}")
    if not repeat:
        print("FAILED per-layer counts differ between traced sweeps")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": snapshot["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
