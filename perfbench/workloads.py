"""The benchmark's workloads: which experiment sweep each one runs.

Each workload is one registered experiment's ``SweepGrid`` at its
default scale, with only the config seed (and, for ``density-6mode``,
the swept modes) changed.  Importing this module imports nothing from
``repro``; :func:`build` does, so the set-up probe can time that import.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Callable, Dict, NamedTuple, Tuple

#: Config seeds with a recorded reference digest; ``--seed n`` runs
#: ``CONFIG_SEEDS[n % len(CONFIG_SEEDS)]``.  These are seeds 0-23 without
#: 7, 10, 13 and 17: on those, a ``hotmem`` cell raises ``HotplugError``
#: ("plug ... exceeds device region") in ``density-6mode`` (7, 17) or
#: ``keepalive`` (10, 13), and a workload must run without failures.
#: The last four (``--seed 16`` .. ``19``) were not used while the
#: benchmark was tuned; a change that claims a gain confirms it on one.
CONFIG_SEEDS = (
    0, 1, 2, 3, 4, 5, 6, 8, 9, 11, 12, 14, 15, 16, 18, 19, 20, 21, 22, 23,
)

#: Every registered deployment mode, the three default ones first.
SIX_MODES = ("overprovisioned", "vanilla", "hotmem", "balloon", "dimm", "fpr")


class Workload(NamedTuple):
    name: str
    module: str
    config_class: str
    overrides: Tuple[Tuple[str, Any], ...] = ()


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "keepalive",
            "repro.experiments.keepalive",
            "KeepAliveConfig",
        ),
        Workload(
            "tracking",
            "repro.experiments.tracking",
            "TrackingConfig",
        ),
        Workload(
            "density-6mode",
            "repro.experiments.density",
            "DensityConfig",
            (("modes", SIX_MODES),),
        ),
    )
}


def config_seed(seed: int) -> int:
    """The experiment config seed a ``--seed`` argument selects."""
    return CONFIG_SEEDS[seed % len(CONFIG_SEEDS)]


def build(name: str, seed: int) -> Tuple[Any, Any, Callable[[Any, Any], Any]]:
    """``(config, grid, cell_fn)`` for one workload at one config seed.

    The grid and cell function are the experiment module's own sweep
    declaration (``_grid`` / ``_cell``), the pair its ``run()`` hands to
    :func:`repro.sweep.run_sweep`.
    """
    workload = WORKLOADS[name]
    module = importlib.import_module(workload.module)
    config = dataclasses.replace(
        getattr(module, workload.config_class)(),
        seed=seed,
        **dict(workload.overrides),
    )
    return config, module._grid(config), module._cell
