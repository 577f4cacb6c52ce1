"""Self-registration of experiments into one declarative dispatch table.

Each experiment module ends with a :func:`register_experiment` call
naming itself, its one-line description, and either its ``(Config,
run)`` pair — from which the standard CLI runner (``--paper-scale`` /
``--modes`` handling, ``.render()``) is derived — or a custom ``render``
callable for the few non-standard entries (table1, ablations,
baselines).  The config class states the rest: an experiment sweeps
deployment modes when its config has a ``modes`` field, and
``--paper-scale`` uses ``Config.paper_scale()`` when the class defines
one.  ``python -m repro.experiments`` then builds its dispatch
table by importing the modules in canonical order and reading
:func:`registry`; the cross-cutting flags (``--modes``, ``--sanitize``,
``--trace``, ``--workers``) are applied uniformly by the CLI through
:func:`repro.sweep.runner.collecting` instead of being re-parsed per
experiment.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

__all__ = ["ExperimentSpec", "register_experiment", "registry"]

#: runner(paper_scale, modes) -> rendered output
RunnerFn = Callable[[bool, Optional[Tuple[str, ...]]], str]


@dataclass(frozen=True)
class ExperimentSpec:
    """One dispatch-table entry."""

    name: str
    description: str
    runner: RunnerFn
    #: Accepts ``--modes`` (its config has a ``modes`` field).
    mode_sweeping: bool = False


_REGISTRY: Dict[str, ExperimentSpec] = {}


def _config_runner(
    config_cls: type, run_fn: Callable[..., object]
) -> RunnerFn:
    def runner(paper_scale: bool, modes: Optional[Tuple[str, ...]]) -> str:
        config = (
            config_cls.paper_scale()  # type: ignore[attr-defined]
            if paper_scale and hasattr(config_cls, "paper_scale")
            else config_cls()
        )
        if modes is not None:
            config = dataclasses.replace(config, modes=modes)
        result = run_fn(config)
        return result.render() if hasattr(result, "render") else str(result)

    return runner


def register_experiment(
    name: str,
    description: str,
    *,
    config: Optional[type] = None,
    run: Optional[Callable[..., object]] = None,
    render: Optional[RunnerFn] = None,
) -> None:
    """Register one experiment (idempotent per name: latest wins, so
    module re-imports under test harnesses stay harmless).

    Standard experiments pass ``config=`` and ``run=``; bespoke ones
    pass ``render=`` taking ``(paper_scale, modes)`` directly.
    """
    mode_sweeping = False
    if render is not None:
        runner = render
    elif config is not None and run is not None:
        runner = _config_runner(config, run)
        mode_sweeping = any(
            f.name == "modes" for f in dataclasses.fields(config)
        )
    else:
        raise ValueError(
            f"experiment {name!r} needs either render= or config=+run="
        )
    _REGISTRY[name] = ExperimentSpec(
        name=name,
        description=description,
        runner=runner,
        mode_sweeping=mode_sweeping,
    )


def registry() -> Dict[str, ExperimentSpec]:
    """The registered experiments, in registration order."""
    return dict(_REGISTRY)
