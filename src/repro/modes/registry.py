"""The string-keyed deployment-mode registry.

Modes register one singleton each under a unique lowercase name;
everything that accepts a mode — ``VmSpec``, ``Agent``, experiment
configs, the ``--modes`` CLI flag — resolves it through :func:`get_mode`,
which passes already-resolved backends straight through.  Registering a
custom mode makes it sweepable everywhere with no further wiring (see
``docs/modes.md``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple, Union

from repro.errors import ConfigError
from repro.modes.base import DeploymentBackend

__all__ = ["register_mode", "get_mode", "names", "registered_modes", "resolve_modes"]

_REGISTRY: Dict[str, DeploymentBackend] = {}


def register_mode(mode: DeploymentBackend, replace: bool = False) -> DeploymentBackend:
    """Register a mode singleton under ``mode.name``.

    Validates the declarative contract every consumer relies on; pass
    ``replace=True`` to overwrite an existing registration (tests).
    """
    name = mode.name
    if not isinstance(name, str) or not name or name != name.lower():
        raise ConfigError(f"mode name must be a non-empty lowercase string: {name!r}")
    if not 0.0 <= mode.reclaim_credit <= 1.0:
        raise ConfigError(
            f"{name}: reclaim_credit must be in [0, 1], got {mode.reclaim_credit}"
        )
    if not mode.elastic and not mode.reclaim_semantics:
        raise ConfigError(
            f"{name}: non-elastic modes must document their reclaim_semantics"
        )
    if name in _REGISTRY and not replace:
        raise ConfigError(f"mode {name!r} already registered")
    _REGISTRY[name] = mode
    return mode


def get_mode(mode: Union[str, DeploymentBackend]) -> DeploymentBackend:
    """Resolve a mode by name; backend instances pass through."""
    if isinstance(mode, DeploymentBackend):
        return mode
    try:
        return _REGISTRY[mode]
    except (KeyError, TypeError):
        raise ConfigError(
            f"unknown deployment mode {mode!r} (registered: {', '.join(names())})"
        ) from None


def names() -> Tuple[str, ...]:
    """Registered mode names, in registration order."""
    return tuple(_REGISTRY)


def registered_modes() -> Tuple[DeploymentBackend, ...]:
    """Registered mode singletons, in registration order."""
    return tuple(_REGISTRY.values())


def resolve_modes(
    modes: Iterable[Union[str, DeploymentBackend]],
) -> Tuple[DeploymentBackend, ...]:
    """Resolve a sweep list (config field or ``--modes`` flag)."""
    resolved = tuple(get_mode(mode) for mode in modes)
    if not resolved:
        raise ConfigError("empty mode list")
    return resolved
