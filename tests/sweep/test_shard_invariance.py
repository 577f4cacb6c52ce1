"""Worker-count invariance: payloads and trace exports are byte-identical.

The determinism contract of :mod:`repro.sweep`: for any worker count the
merged result payload and the exported trace/metrics stream match the
serial run bit for bit.  The fast test proves it on a scaled-down chaos
sweep for workers {1, 2}; the slow matrix covers density, chaos and
cluster-chaos for workers {1, 2, 8} (the CI cluster gate re-checks the
rendered output the same way).
"""

import hashlib

import pytest

from repro.experiments import chaos, cluster_chaos, density
from repro.sweep import RunContext, collecting, payload_digest

CHAOS_FAST = chaos.ChaosConfig(
    fault_rates=(0.0, 0.2),
    modes=("hotmem",),
    duration_s=10,
    keep_alive_s=4,
    recycle_interval_s=2,
)

DENSITY_FAST = density.DensityConfig(
    hosts=2,
    max_vms_per_host=3,
    duration_s=20,
    drain_s=10,
    stagger_s=10.0,
    keep_alive_s=5,
)

CLUSTER_FAST = cluster_chaos.ClusterChaosConfig(
    fault_rates=(0.0, 0.2),
    duration_s=16,
    drain_s=10,
    keep_alive_s=6,
    stagger_s=8.0,
    burst_len_s=4.0,
)


def _run_with_workers(run_fn, config, workers, trace_path):
    """One full experiment run; returns (payload digest, trace digest)."""
    with collecting(RunContext(workers=workers, trace=True)) as report:
        result = run_fn(config)
        report.write_trace(str(trace_path))
    return (
        payload_digest(result),
        hashlib.sha256(trace_path.read_bytes()).hexdigest(),
    )


def test_chaos_is_worker_count_invariant(tmp_path):
    digests = {
        workers: _run_with_workers(
            chaos.run, CHAOS_FAST, workers, tmp_path / f"chaos-{workers}.jsonl"
        )
        for workers in (1, 2)
    }
    assert digests[2] == digests[1]


def test_streaming_telemetry_is_worker_count_invariant(tmp_path):
    """Rollups, sketches and the report digest survive sharding.

    Trace byte-identity already implies this, but the report is the
    artifact CI gates on — so compare what ``report`` actually renders,
    and prove the trace carries telemetry rows at all.
    """
    from repro.obs.export import read_trace
    from repro.obs.report import load_report

    reports = {}
    for workers in (1, 2):
        path = tmp_path / f"density-{workers}.jsonl"
        _run_with_workers(density.run, DENSITY_FAST, workers, path)
        rows = read_trace(str(path))
        assert any(row["type"] == "rollup" for row in rows)
        assert any(row["type"] == "sketch" for row in rows)
        reports[workers] = load_report(str(path))
    assert reports[2].digest == reports[1].digest
    assert reports[1].sketches, "density trace must carry latency sketches"


@pytest.mark.slow
@pytest.mark.parametrize(
    "run_fn, config",
    [
        (density.run, DENSITY_FAST),
        (chaos.run, CHAOS_FAST),
        (cluster_chaos.run, CLUSTER_FAST),
    ],
    ids=["density", "chaos", "cluster-chaos"],
)
def test_full_matrix_is_worker_count_invariant(run_fn, config, tmp_path):
    digests = {
        workers: _run_with_workers(
            run_fn, config, workers, tmp_path / f"trace-{workers}.jsonl"
        )
        for workers in (1, 2, 8)
    }
    assert digests[2] == digests[1]
    assert digests[8] == digests[1]
