"""Record the gates' reference outputs (benchmarks/reference/).

Run from the checkout root, at the commit whose outputs define "correct":

    PYTHONPATH=src python3 benchmarks/make_reference.py [workload ...]

Each workload runs once, in-process, at seed 0; only outputs that do not
depend on the seed are stored.
"""

import shutil
import sys
from pathlib import Path

import gates
import workloads


def main(names) -> int:
    for workload in names or sorted(workloads.WORKLOADS):
        out_dir = Path(".bench_run") / f"reference-{workload}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        try:
            for op in workloads.WORKLOADS[workload]:
                workloads.run_op(op, out_dir, seed=0)
            path = gates.save_reference(workload, gates.reference_values(workload, out_dir))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        print(f"{workload}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
