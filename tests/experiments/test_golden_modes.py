"""Byte-identical regression guard for the three original modes.

The mode-registry refactor (``repro.modes``) must not change a single
event of the fixed-seed serverless and density runs for ``hotmem``,
``vanilla`` and ``overprovisioned``.  These tests canonicalize every
artifact such a run produces (invocation records, shrink events, resize
events, CPU/fault accounting, admission commitments) into a stable
string and compare its SHA-256 against digests captured on the
pre-refactor tree.

If one of these digests moves, the refactor changed simulation
behaviour — that is a bug, not a test to update.  (Adding *new* modes
or experiments must never move them: the runs below only use the three
original modes.)
"""

import hashlib

import pytest

from repro.experiments.density import DensityConfig, _run_cell
from repro.experiments.serverless import (
    FunctionLoad,
    ServerlessScenario,
    run_scenario,
)
from repro.modes import get_mode

pytestmark = pytest.mark.slow

ORIGINAL_MODES = ("hotmem", "vanilla", "overprovisioned")

#: SHA-256 digests of the canonicalized artifacts, captured on the tree
#: *before* the deployment-mode registry existed.
SERVERLESS_GOLDEN = {
    "hotmem": "5c6a5ed43d3b32c2d7d3d420373002619170d18b204125c40f0dcdcae3acb7ab",
    "vanilla": "4c503a4ea1b4037c1a5b3902b502a9a8f893a63f1c04dc745eac5b821b8be76f",
    "overprovisioned": "d7ba421173506d860b13d7928f726a40d7627e11a54374181c18f562f89f6a64",
}
DENSITY_GOLDEN = {
    "hotmem": "fc1f2552b0f26d6c833a8e1dad32d73e012b0fae0c6ace47f2694b3e890a6ee3",
    "vanilla": "16c2e8dd1d390ccea9416d7c385c9d23f2f2a33f68eb1486717b341acd643b75",
    "overprovisioned": "82ebb94553488a42a8775ccdd7436a94828f0b1705e4de6de5413840cbf1a5c1",
}


def _digest(lines):
    payload = "\n".join(lines).encode()
    return hashlib.sha256(payload).hexdigest()


def _record_line(record):
    return (
        f"rec {record.function} {record.arrival_ns} {record.start_ns} "
        f"{record.end_ns} {int(record.cold)} {int(record.ok)} {record.error}"
    )


def serverless_digest(mode_name: str) -> str:
    """Canonical digest of one fixed-seed serverless run."""
    scenario = ServerlessScenario(
        mode=get_mode(mode_name),
        loads=(FunctionLoad.for_function("html", vm_vcpus=4),),
        duration_s=20,
        drain_s=10,
        keep_alive_s=5,
        recycle_interval_s=2,
        vm_vcpus=4,
        seed=7,
    )
    run = run_scenario(scenario)
    lines = [f"serverless {mode_name}"]
    lines += [_record_line(r) for r in run.records]
    lines += [
        f"shrink {e.time_ns} {e.evicted} {e.unplug_requested_bytes}"
        for e in run.shrink_events
    ]
    lines += [
        f"resize {e.kind} {e.start_ns} {e.end_ns} {e.requested_bytes} "
        f"{e.completed_bytes} {e.migrated_pages}"
        for e in run.resize_events
    ]
    lines.append(f"reclaim {run.reclaim_mib_per_s!r}")
    lines += [f"cold {name} {n}" for name, n in sorted(run.cold_starts.items())]
    lines.append(f"oom {run.oom_failures}")
    lines.append(f"virtio-cpu {run.virtio_cpu_ns}")
    lines.append(f"faults {run.injected_faults} {run.unresolved_faults}")
    lines.append(f"degraded {int(run.degraded)}")
    return _digest(lines)


def density_digest(mode_name: str) -> str:
    """Canonical digest of one fixed-seed density cell."""
    config = DensityConfig(
        hosts=1,
        functions=("html",),
        max_vms_per_host=2,
        duration_s=12,
        drain_s=6,
        seed=3,
    )
    cell = _run_cell(config, get_mode(mode_name), 2)
    lines = [f"density {mode_name} {cell.vms_per_host} {cell.total_vms}"]
    for name in sorted(cell.per_vm_records):
        lines += [
            f"{name} {_record_line(r)}" for r in cell.per_vm_records[name]
        ]
    lines.append(f"p50 {cell.p50_ms!r}")
    lines.append(f"p99 {cell.p99_ms!r}")
    lines.append(
        f"counts {cell.invocations} {cell.failures} {cell.rejections} "
        f"{cell.pressure_reclaims}"
    )
    lines.append(f"bytes {cell.peak_used_bytes} {cell.committed_bytes}")
    return _digest(lines)


@pytest.mark.parametrize("mode_name", ORIGINAL_MODES)
def test_serverless_artifacts_bit_identical(mode_name):
    assert serverless_digest(mode_name) == SERVERLESS_GOLDEN[mode_name]


@pytest.mark.parametrize("mode_name", ORIGINAL_MODES)
def test_density_artifacts_bit_identical(mode_name):
    assert density_digest(mode_name) == DENSITY_GOLDEN[mode_name]


if __name__ == "__main__":  # pragma: no cover - capture driver
    for name in ORIGINAL_MODES:
        print(f'    "{name}": "{serverless_digest(name)}",  # serverless')
    for name in ORIGINAL_MODES:
        print(f'    "{name}": "{density_digest(name)}",  # density')
