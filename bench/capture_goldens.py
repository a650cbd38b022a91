"""Write bench/goldens/<workload>.json: the output of every op a workload can issue.

Usage, from the root of a checkout: python3 bench/capture_goldens.py [workload ...]

A change that deliberately alters the engine's output bytes reruns this and
commits the new goldens with its benchmark change.
"""

import json
import os
import sys

import workloads
from run import BENCH, import_engine, run_op


def main(names):
    cli = import_engine()
    for name in names or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        goldens = {}
        for op in workloads.all_ops(workload):
            code, out = run_op(cli, op)
            goldens[op.key] = {"code": code, "out": out}
        path = os.path.join(BENCH, "goldens", f"{name}.json")
        with open(path, "w") as fh:
            json.dump(goldens, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{path}: {len(goldens)} ops", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
