"""Unit tests for scaling policy objects."""

import pytest

from repro.errors import ConfigError
from repro.faas.policy import KeepAlivePolicy
from repro.modes import HOTMEM, OVERPROVISIONED, VANILLA
from repro.units import SEC


def test_paper_default_keep_alive():
    policy = KeepAlivePolicy()
    assert policy.keep_alive_ns == 120 * SEC


def test_negative_keep_alive_rejected():
    with pytest.raises(ConfigError):
        KeepAlivePolicy(keep_alive_ns=-1)


def test_zero_recycle_interval_rejected():
    with pytest.raises(ConfigError):
        KeepAlivePolicy(recycle_interval_ns=0)


def test_elastic_modes():
    assert HOTMEM.elastic
    assert VANILLA.elastic
    assert not OVERPROVISIONED.elastic


def test_mode_values_stable():
    assert HOTMEM.name == "hotmem"
    assert VANILLA.name == "vanilla"
    assert OVERPROVISIONED.name == "overprovisioned"
