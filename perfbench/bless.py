"""Record the reference payload digests in ``references.json``.

Usage::

    python3 perfbench/bless.py [--workload NAME ...]

Runs each workload's sweep once per config seed in
``workloads.CONFIG_SEEDS`` and stores the first ``run.DIGEST_CHARS`` hex
digits of each cell's ``repro.sweep.payload_digest``, in grid order.
Re-blessing is a deliberate change of the benchmark: the references pin
the simulator's determinism contract, so a change that is meant to keep
every simulated output identical never re-blesses.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    import repro.experiments  # noqa: F401

    try:
        references = run.load_references()
    except FileNotFoundError:
        references = {"workloads": {}}
    for name in args.workload or sorted(workloads.WORKLOADS):
        entry = {"cells": None, "digests": {}}
        for seed in workloads.CONFIG_SEEDS:
            sweep = run.Sweep(name, seed)
            _, _, payloads = sweep.run()
            if sweep.errors:
                raise SystemExit(f"{name} seed {seed}: {sweep.errors}")
            entry["cells"] = [cell.cell_id for cell in sweep.cells]
            entry["digests"][str(seed)] = sweep.digests(payloads)
            print(f"{name} seed {seed}: {len(payloads)} cells", flush=True)
        references["workloads"][name] = entry
    with open(run.REFERENCES, "w") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
