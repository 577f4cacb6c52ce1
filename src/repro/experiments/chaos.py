"""Chaos experiment: the hotplug datapath under injected faults.

Replays the Figure 8 trace while a deterministic
:class:`~repro.faults.injector.FaultInjector` fires faults across every
named site (device NACKs, partial plugs, slow responses, unmovable
pages, migration failures, block timeouts, spawn failures, recycler
races) at a swept per-opportunity rate.  For each (mode, rate) cell the
experiment reports reclamation throughput and invocation P99 alongside
the fault accounting: how many faults fired, how many were recovered
(retry, defer, absorb) vs degraded (quarantine, partial unplug, static
fallback), and — the completeness check — how many were never claimed
by any recovery path.  A healthy datapath leaves ``unresolved == 0`` at
every rate; rate 0.0 is the control row and is byte-identical to a run
without the fault plane.

Determinism: per-site RNG streams are derived only from the scenario
seed, so two runs at the same seed produce bit-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.experiments.serverless import (
    FunctionLoad,
    ServerlessScenario,
    run_scenario,
)
from repro.faults.injector import FaultPlan
from repro.faults.policy import ResiliencePolicy, RetryPolicy
from repro.faults.recovery import RecoveryLog
from repro.faults.sites import DATAPATH_SITES
from repro.modes import DeploymentBackend, get_mode, resolve_modes
from repro.metrics.latency import p99_ms
from repro.metrics.report import render_table
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sweep import Cell, SweepGrid, register_experiment, run_sweep
from repro.units import MS

__all__ = ["ChaosConfig", "ChaosCell", "ChaosResult", "run"]


@dataclass(frozen=True)
class ChaosConfig:
    """Fault-rate sweep over the trace-replay scenario."""

    #: Per-opportunity fire probability per site; 0.0 is the control.
    fault_rates: Tuple[float, ...] = (0.0, 0.05, 0.2)
    #: Swept modes (registry names or backend objects).
    modes: Tuple[Union[str, DeploymentBackend], ...] = ("vanilla", "hotmem")
    function: str = "html"
    duration_s: int = 30
    keep_alive_s: int = 10
    recycle_interval_s: int = 5
    seed: int = 0
    costs: CostModel = DEFAULT_COSTS
    #: Driver-side recovery: per-block retry budget and quarantine
    #: threshold (consecutive give-ups before a block is quarantined).
    max_retries: int = 3
    quarantine_after: int = 2
    #: Agent-side recovery: plug retry budget, consecutive-failure
    #: threshold for static fallback, deferred-reclamation retry budget.
    plug_retries: int = 2
    degrade_after: int = 4
    deferred_attempts: int = 3
    #: Latency injected by ``device.response.delay`` when it fires.
    response_delay_ns: int = 2 * MS

    @classmethod
    def paper_scale(cls) -> "ChaosConfig":
        """Longer traces and a finer rate sweep."""
        return cls(
            fault_rates=(0.0, 0.01, 0.05, 0.1, 0.2),
            duration_s=120,
            keep_alive_s=30,
            recycle_interval_s=10,
        )

    def plan(
        self, rate: float, mode: Optional[DeploymentBackend] = None
    ) -> "FaultPlan | None":
        """The fault plan for one sweep cell (None at the control rate).

        With a ``mode``, only that mode's applicable fault sites are
        armed — the related-work baselines bypass the virtio-mem
        device/driver, so injecting there would silently never fire.
        """
        if rate <= 0.0:
            return None
        sites = mode.fault_sites if mode is not None else DATAPATH_SITES
        return FaultPlan.uniform(rate, sites=sites, delay_ns=self.response_delay_ns)

    def resilience(self) -> ResiliencePolicy:
        """The recovery policy exercised by every faulted cell."""
        return ResiliencePolicy(
            retry=RetryPolicy(
                max_retries=self.max_retries,
                quarantine_after=self.quarantine_after,
            ),
            plug_retries=self.plug_retries,
            degrade_after=self.degrade_after,
            deferred_attempts=self.deferred_attempts,
        )


@dataclass
class ChaosCell:
    """One (mode, rate) cell of the sweep."""

    mode: str
    rate: float
    reclaim_mib_s: float
    p99_ms: float
    invocations: int
    injected: int
    recovered: int
    degraded: int
    unresolved: int
    #: Whether the agent fell back to static (no-elastic) mode.
    static_fallback: bool
    #: Per-site recovery rollup (site → counts by outcome + MTTR).
    recovery_summary: Dict[str, Dict[str, object]] = field(
        default_factory=dict
    )


@dataclass
class ChaosResult:
    """The full sweep, row per (mode, rate)."""

    config: ChaosConfig
    cells: List[ChaosCell] = field(default_factory=list)

    def cell(self, mode: str, rate: float) -> ChaosCell:
        """The cell for one (mode, rate) pair."""
        for c in self.cells:
            if c.mode == mode and c.rate == rate:
                return c
        raise KeyError(f"no cell for ({mode}, {rate})")

    def total_unresolved(self) -> int:
        """Faults no recovery path claimed, across the whole sweep."""
        return sum(c.unresolved for c in self.cells)

    def p99_degradation(self, mode: str, rate: float) -> float:
        """P99(rate) / P99(control) for one mode (1.0 = no impact)."""
        control = self.cell(mode, 0.0).p99_ms
        return self.cell(mode, rate).p99_ms / control if control else 0.0

    def rows(self) -> List[List[object]]:
        out: List[List[object]] = []
        for c in self.cells:
            out.append(
                [
                    c.mode,
                    c.rate,
                    c.reclaim_mib_s,
                    c.p99_ms,
                    c.invocations,
                    c.injected,
                    c.recovered,
                    c.degraded,
                    c.unresolved,
                    "yes" if c.static_fallback else "no",
                ]
            )
        return out

    def recovery_rows(self) -> List[List[object]]:
        """Per-site recovery rollup rows across the faulted cells."""
        out: List[List[object]] = []
        for c in self.cells:
            for site, stats in c.recovery_summary.items():
                out.append(
                    [
                        c.mode,
                        c.rate,
                        site,
                        stats["events"],
                        stats["recovered"],
                        stats["failed_over"],
                        stats["degraded"],
                        round(float(stats["mttr_ms"]), 2),  # type: ignore[arg-type]
                    ]
                )
        return out

    def render(self) -> str:
        table = render_table(
            "Chaos: reclamation throughput and P99 under injected faults",
            [
                "mode",
                "rate",
                "reclaim_mib_s",
                "p99_ms",
                "invocations",
                "injected",
                "recovered",
                "degraded",
                "unresolved",
                "static",
            ],
            self.rows(),
        )
        recovery = self.recovery_rows()
        if not recovery:
            return table
        summary = render_table(
            "Recovery paths by failure site",
            [
                "mode",
                "rate",
                "site",
                "events",
                "recovered",
                "failed_over",
                "degraded",
                "mttr ms",
            ],
            recovery,
        )
        return table + "\n\n" + summary


def _run_cell(
    config: ChaosConfig, mode: DeploymentBackend, rate: float
) -> ChaosCell:
    """One (mode, rate) point: fresh scenario, fresh simulator."""
    scenario = ServerlessScenario(
        mode=mode,
        loads=(FunctionLoad.for_function(config.function),),
        duration_s=config.duration_s,
        keep_alive_s=config.keep_alive_s,
        recycle_interval_s=config.recycle_interval_s,
        seed=config.seed,
        costs=config.costs,
        faults=config.plan(rate, mode),
        resilience=config.resilience() if rate > 0.0 else None,
    )
    run_result = run_scenario(scenario)
    records = run_result.records_for(config.function)
    recovered = sum(1 for e in run_result.recovery_events if e.recovered)
    log = RecoveryLog()
    log.events.extend(run_result.recovery_events)
    return ChaosCell(
        mode=mode.name,
        rate=rate,
        reclaim_mib_s=run_result.reclaim_mib_per_s,
        p99_ms=p99_ms(records) if records else 0.0,
        invocations=len(records),
        injected=run_result.injected_faults,
        recovered=recovered,
        degraded=len(run_result.recovery_events) - recovered,
        unresolved=run_result.unresolved_faults,
        static_fallback=run_result.degraded,
        recovery_summary=log.summary(),
    )


def _cell(config: ChaosConfig, cell: Cell) -> ChaosCell:
    return _run_cell(config, get_mode(cell["mode"]), cell["rate"])


def _grid(config: ChaosConfig) -> SweepGrid:
    return (
        SweepGrid("chaos")
        .axis("mode", tuple(m.name for m in resolve_modes(config.modes)))
        .axis("rate", config.fault_rates)
    )


def run(config: ChaosConfig = ChaosConfig()) -> ChaosResult:
    """Sweep fault rates for each deployment mode."""
    result = ChaosResult(config)
    for cell_result in run_sweep(_grid(config), _cell, config):
        result.cells.append(cell_result.payload)
    return result


register_experiment(
    "chaos",
    "R1 fault-rate sweep: recovery paths and degradation",
    config=ChaosConfig,
    run=run,
)
