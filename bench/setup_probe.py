"""Print the set-up seconds of one fresh process for a workload.

Usage: python3 bench/setup_probe.py <workload> <seed>

Set-up is importing the engine, parsing the specs of a pass with
``cli.parse_problem`` and building their rings and ValPolys.  Prints the
set-up seconds, then the median seconds of three reference kernels run after it.
"""

import os
import statistics
import sys
import time

import reference
import workloads

ops = workloads.pass_ops(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), 0)
t0 = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from genpuiseux import cli  # noqa: E402

for op in ops:
    spec = cli.parse_problem(op.text)
    cli.build_valpoly(spec, cli.build_ring(spec))
setup_s = time.perf_counter() - t0

kernel_s = statistics.median(reference.timed() for _ in range(3))
print(setup_s, kernel_s)
