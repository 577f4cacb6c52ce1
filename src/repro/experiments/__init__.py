"""Experiment harnesses regenerating every table and figure of the paper.

One module per evaluation artifact (see DESIGN.md's experiment index):

* :mod:`~repro.experiments.table1` — the function resource limits;
* :mod:`~repro.experiments.fig5_unplug_latency` — reclaim latency vs size;
* :mod:`~repro.experiments.fig6_usage_sweep` — reclaim latency vs usage;
* :mod:`~repro.experiments.fig7_cpu_usage` — unplug-path CPU time;
* :mod:`~repro.experiments.fig8_reclaim_throughput` — trace-driven MiB/s;
* :mod:`~repro.experiments.fig9_p99_latency` — P99 across configurations;
* :mod:`~repro.experiments.fig10_interference` — co-location spikes;
* :mod:`~repro.experiments.ablations` — A1-A4 design-choice ablations
  and A6 batched unplug.

Shared harnesses: :mod:`~repro.experiments.microbench` (memhog fleets,
Figures 5-7) and :mod:`~repro.experiments.serverless` (trace replay,
Figures 8-10).
"""

from repro.experiments.microbench import (
    MicrobenchRig,
    MicrobenchSetup,
    ReclaimMeasurement,
)
from repro.experiments.serverless import (
    FunctionLoad,
    ServerlessRun,
    ServerlessScenario,
    run_scenario,
)

__all__ = [
    "MicrobenchRig",
    "MicrobenchSetup",
    "ReclaimMeasurement",
    "FunctionLoad",
    "ServerlessRun",
    "ServerlessScenario",
    "run_scenario",
]
