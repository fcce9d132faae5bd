"""Record the reference tables that runs at the default seed compare
against: the first cycles of each workload's op stream.

    python3 bench/record_reference.py [workload ...]

Rerun only when the op streams change; the recorded values pin the
numbers of the commit they were recorded at.
"""

import json
import sys

from run import import_nlasim

import workloads

#: Cycles recorded per workload, enough for a default-length run.
REFERENCE_CYCLES = {"distill_dense": 5, "amplify_pure": 50, "oracle": 10}

if __name__ == "__main__":
    modules = import_nlasim()
    for name in sys.argv[1:] or workloads.WORKLOADS:
        stream = workloads.cycles(name, workloads.DEFAULT_SEED)
        ops = []
        for _ in range(REFERENCE_CYCLES[name]):
            for op in next(stream):
                columns, rows = workloads.execute(op, modules)
                workloads.check(op, (columns, rows))
                ops.append({"args": list(op.args), "columns": list(columns), "rows": rows})
        workloads.REFERENCE_DIR.mkdir(exist_ok=True)
        with open(workloads.reference_path(name), "w", encoding="utf-8") as handle:
            json.dump({"workload": name, "seed": workloads.DEFAULT_SEED, "ops": ops},
                      handle, separators=(",", ":"))
            handle.write("\n")
        print(f"{name}: {len(ops)} ops")
