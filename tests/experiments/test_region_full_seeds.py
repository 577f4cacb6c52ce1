"""Hotmem cells whose spawns plug into a region that in-flight unplugs
were counted as emptying.

On these config seeds an unplug ended partial, or the unplugs pending
exceeded what was plugged, and the next spawn asked for more blocks
than the region had free; the device used to raise ``HotplugError``.
Now the agent caps its request at what the region can hold and the
device grants its free blocks with ``"region-partial"``.
"""

import dataclasses

from repro.experiments import density, keepalive


def _hotmem_cells(module, config):
    cells = [
        cell for cell in module._grid(config).cells() if cell["mode"] == "hotmem"
    ]
    assert cells
    return cells


def test_density_hotmem_cell_at_config_seed_7_completes():
    config = dataclasses.replace(density.DensityConfig(), seed=7)
    [cell] = _hotmem_cells(density, config)
    result = density._cell(config, cell)
    assert result.admitted_vms_per_host >= 1
    assert result.best is not None and result.best.invocations > 0


def test_keepalive_hotmem_cells_at_config_seed_10_complete():
    config = dataclasses.replace(keepalive.KeepAliveConfig(), seed=10)
    for cell in _hotmem_cells(keepalive, config):
        result = keepalive._cell(config, cell)
        assert result.invocations > 0
        assert result.failures == 0
