"""Command-line experiment runner.

Regenerate any table or figure of the paper from the shell::

    python -m repro.experiments list
    python -m repro.experiments fig5
    python -m repro.experiments fig10 --paper-scale
    python -m repro.experiments all --sanitize
    python -m repro.experiments density --workers 8

``--paper-scale`` switches to the full-size configuration where one is
defined (the defaults are scaled down to run in seconds).

``--modes`` restricts mode-sweeping experiments (those whose config has
a ``modes`` field: chaos, cluster-chaos, density, keepalive) to a
comma-separated list of registered deployment modes, e.g.
``--modes hotmem,vanilla,balloon,dimm,fpr``.

``--workers N`` shards each experiment's sweep cells across ``N``
processes (:mod:`repro.sweep`).  Results merge in cell order, so the
output — including ``--trace`` export digests and ``--sanitize``
summaries — is byte-identical for any worker count.

``--sanitize`` attaches the memory-state sanitizer
(:mod:`repro.analysis.sanitizer`) to every guest memory manager the
experiments construct: the run aborts with a structured
:class:`~repro.analysis.invariants.InvariantViolation` report the moment
any mm invariant breaks, instead of quietly producing wrong figures.

``--trace`` installs the tracing session (:mod:`repro.obs`): every
simulator the experiments build gets causal spans across the whole
hotplug datapath plus a labeled metrics registry, exported after the run
as deterministic JSONL (``--trace-file``, default ``trace.jsonl``).
Analyze the export with one report (:mod:`repro.obs.report`)::

    python -m repro.experiments fig5 --trace
    python -m repro.experiments report

The dispatch table itself is declarative: every experiment module ends
with a :func:`repro.sweep.register_experiment` call, and this entry
point only imports the modules in canonical order and reads the
registry.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Optional, Tuple

# Imported for self-registration side effects, in the canonical display
# order of the dispatch table (the paper's table/figure order).
from repro.experiments import (  # noqa: F401  (registration imports)
    table1,
    fig2_interleaving,
    fig5_unplug_latency,
    fig6_usage_sweep,
    fig7_cpu_usage,
    fig8_reclaim_throughput,
    fig9_p99_latency,
    fig10_interference,
    ablations,
    baselines_comparison,
    stranding,
    policy_tradeoff,
    tracking,
    chaos,
    cluster_chaos,
    density,
    keepalive,
)
from repro.sweep import RunContext, collecting, registry

__all__ = ["main", "EXPERIMENTS", "MODE_SWEEPING"]

#: name → (description, runner(paper_scale, modes) -> str), from the
#: self-registration calls at the bottom of each experiment module.
EXPERIMENTS: Dict[str, Tuple[str, Callable[..., str]]] = {
    spec.name: (spec.description, spec.runner)
    for spec in registry().values()
}

#: Experiments whose config sweeps deployment modes (accept ``--modes``).
MODE_SWEEPING = frozenset(
    spec.name for spec in registry().values() if spec.mode_sweeping
)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment name, 'list', 'all', or 'report'",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the full-size configuration where one exists",
    )
    parser.add_argument(
        "--modes",
        type=str,
        default=None,
        metavar="NAMES",
        help="comma-separated registered deployment modes to sweep "
        "(experiments with a mode sweep only), e.g. "
        "hotmem,vanilla,overprovisioned,balloon,dimm,fpr",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="shard sweep cells across N processes (default 1: serial; "
        "output is byte-identical for any worker count)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="attach the memory-state sanitizer to every guest memory "
        "manager (abort on the first mm invariant violation)",
    )
    parser.add_argument(
        "--sanitize-every",
        type=int,
        default=256,
        metavar="N",
        help="periodic sanitizer sweep interval in mm mutations "
        "(default 256; 0 disables periodic sweeps)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="install the tracing session: causal spans + labeled "
        "metrics across the hotplug datapath, exported as "
        "deterministic JSONL after the run",
    )
    parser.add_argument(
        "--trace-file",
        type=str,
        default="trace.jsonl",
        metavar="PATH",
        help="where --trace writes its export, and what report reads "
        "(default trace.jsonl)",
    )
    args = parser.parse_args(argv)

    modes: Optional[Tuple[str, ...]] = None
    if args.modes is not None:
        from repro.modes import names as registered_names

        modes = tuple(
            name.strip() for name in args.modes.split(",") if name.strip()
        )
        unknown_modes = [n for n in modes if n not in registered_names()]
        if not modes or unknown_modes:
            print(
                f"unknown mode(s): {', '.join(unknown_modes) or '(empty)'}; "
                f"registered: {', '.join(registered_names())}",
                file=sys.stderr,
            )
            return 2

    if args.experiment == "list":
        for name, (description, _) in EXPERIMENTS.items():
            print(f"{name:12} {description}")
        print(f"{'report':12} unplug attribution and fleet telemetry from a --trace export")
        return 0

    if args.experiment == "report":
        from repro.obs import load_report

        try:
            report = load_report(args.trace_file)
        except FileNotFoundError:
            print(
                f"no trace export at {args.trace_file!r}; run an "
                f"experiment with --trace first",
                file=sys.stderr,
            )
            return 2
        print(report.render())
        print(report.summary_line(args.trace_file))
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("use 'list' to see what is available", file=sys.stderr)
        return 2
    if modes is not None and not any(n in MODE_SWEEPING for n in names):
        print(
            f"--modes only applies to: {', '.join(sorted(MODE_SWEEPING))}",
            file=sys.stderr,
        )
        return 2

    context = RunContext(
        workers=max(1, args.workers),
        sanitize=args.sanitize,
        sanitize_every=args.sanitize_every,
        trace=args.trace,
    )
    with collecting(context) as report:
        for name in names:
            description, runner = EXPERIMENTS[name]
            started = time.time()  # lint: allow[no-wallclock] progress display only
            output = runner(args.paper_scale, modes if name in MODE_SWEEPING else None)
            elapsed = time.time() - started  # lint: allow[no-wallclock] progress display only
            print(output)
            print(f"[{name}: {elapsed:.1f}s]")
            print()
        if args.sanitize:
            print(report.sanitizer_line())
        if args.trace:
            print(report.write_trace(args.trace_file).render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
