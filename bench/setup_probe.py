"""One set-up measurement: a fresh interpreter imports nlasim and runs the
workload's first op, with its check. Exits nonzero if the op fails.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys

from run import import_nlasim, run_ops

import workloads

if __name__ == "__main__":
    modules = import_nlasim()
    first = next(workloads.cycles(sys.argv[1], int(sys.argv[2])))[:1]
    _, failures = run_ops(first, modules)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    sys.exit(1 if failures else 0)
