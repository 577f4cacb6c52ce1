"""Shared fixtures for the test suite.

Every VM fixture goes through the cluster provisioning layer
(:mod:`repro.cluster.provision`) — the same admission-checked path the
experiments use — so host accounting and fleet context are always wired.
"""

from __future__ import annotations

import os

import pytest

from repro.cluster.provision import Fleet, VmSpec
from repro.core import HotMemBootParams
from repro.host import HostMachine
from repro.modes import HOTMEM
from repro.sim import CostModel, Simulator
from repro.units import GIB, MIB
from repro.vmm import VirtualMachine


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--sanitize",
        action="store_true",
        default=False,
        help="attach the memory-state sanitizer to every guest memory "
        "manager constructed during the tests (see docs/analysis.md)",
    )


@pytest.fixture(autouse=True)
def _memory_sanitizer(request):
    """Run every test under the sanitizer when --sanitize (or
    REPRO_SANITIZE=1) is given; a no-op otherwise and for tests marked
    ``no_autosanitize``."""
    enabled = request.config.getoption("--sanitize") or os.environ.get(
        "REPRO_SANITIZE"
    )
    if not enabled or request.node.get_closest_marker("no_autosanitize"):
        yield
        return
    from repro.analysis import sanitizer

    if sanitizer.is_installed():  # a sanitizer test already installed one
        yield
        return
    with sanitizer.sanitized(sanitizer.SanitizerConfig(every_n_events=64)):
        yield


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def fleet(sim) -> Fleet:
    """A single-host fleet on the paper's evaluation host."""
    return Fleet(sim)


@pytest.fixture
def host(fleet) -> HostMachine:
    """The paper's evaluation host (2 nodes × 10 cores × 128 GiB)."""
    return fleet.hosts[0]


@pytest.fixture
def vanilla_vm(fleet) -> VirtualMachine:
    """A vanilla VM with a 4 GiB hotplug region."""
    return fleet.provision(
        VmSpec("vanilla-test", region_bytes=4 * GIB)
    ).vm


@pytest.fixture
def hotmem_params() -> HotMemBootParams:
    """8 × 384 MiB partitions plus a 256 MiB shared partition."""
    return HotMemBootParams.for_function(
        384 * MIB, concurrency=8, shared_bytes=256 * MIB
    )


@pytest.fixture
def hotmem_vm(fleet, hotmem_params) -> VirtualMachine:
    """A HotMem VM sized exactly for its partitions."""
    return fleet.provision(
        VmSpec(
            "hotmem-test",
            mode=HOTMEM,
            partition_bytes=hotmem_params.partition_bytes,
            concurrency=hotmem_params.concurrency,
            shared_bytes=hotmem_params.shared_bytes,
        )
    ).vm


@pytest.fixture
def costs() -> CostModel:
    """The calibrated default cost model."""
    return CostModel()
