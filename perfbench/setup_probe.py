"""Time one fresh-process set-up of a benchmark workload.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``

Prints the host seconds from this script's first line to a built
config and ``SweepGrid``: importing ``repro.experiments`` (which
registers every experiment) dominates.  ``run.py`` starts several of
these and reports their median, scaled to the reference host speed, as
``setup_s``.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import repro.experiments  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], workloads.config_seed(int(sys.argv[2])))
print(repr(time.perf_counter() - START))
