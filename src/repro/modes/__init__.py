"""Deployment modes: a pluggable backend registry.

Every way this repo can run a serverless VM — the paper's three
evaluated configurations plus the related-work baselines of Section 7 —
is a :class:`~repro.modes.base.DeploymentBackend` registered by name.
``VmSpec``/``Fleet`` provisioning, the agent's plug/unplug + resilience
path, the density arbiter and every experiment resolve modes through
:func:`get_mode`, so a newly registered mode is immediately sweepable
everywhere (``--modes`` on the CLI).  See ``docs/modes.md``.
"""

from repro.modes.base import DeploymentBackend, ReclaimDatapath
from repro.modes.builtin import (
    HOTMEM,
    OVERPROVISIONED,
    VANILLA,
    HotMemMode,
    OverprovisionedMode,
    VanillaMode,
)
from repro.modes.datapaths import (
    BalloonDatapath,
    DimmDatapath,
    FprDatapath,
    VirtioMemDatapath,
)
from repro.modes.registry import (
    get_mode,
    names,
    register_mode,
    registered_modes,
    resolve_modes,
)
from repro.modes.related import (
    BALLOON,
    DIMM,
    FPR,
    BalloonMode,
    DimmMode,
    FprMode,
)

__all__ = [
    # interface
    "DeploymentBackend",
    "ReclaimDatapath",
    # registry
    "register_mode",
    "get_mode",
    "names",
    "registered_modes",
    "resolve_modes",
    # datapaths
    "VirtioMemDatapath",
    "BalloonDatapath",
    "DimmDatapath",
    "FprDatapath",
    # built-in modes
    "HotMemMode",
    "VanillaMode",
    "OverprovisionedMode",
    "BalloonMode",
    "DimmMode",
    "FprMode",
    "HOTMEM",
    "VANILLA",
    "OVERPROVISIONED",
    "BALLOON",
    "DIMM",
    "FPR",
]
