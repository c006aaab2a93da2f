"""Run-to-run spread of the end-to-end metrics over several seeds.

From the checkout root:

    python3 benchmarks/spread.py --runs 10 [--workload drive-scan ...] [--out FILE]

Runs run.py (untraced, ``run_seconds`` of BENCHMARK.json) once per seed for
each workload, then prints per metric the median, the quartiles and the
spread (interquartile distance over the median) against the metric's bound,
and the same for the raw (unscaled) iteration wall and setup times that
run.py prints.  ``--out`` writes the figures as JSON, the form of
baseline.json.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {name: [] for name in bounds}
        values.update(raw_wall_s=[], raw_setup_s=[])
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: gates failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            walls = re.search(r"raw iteration wall s ([\d. ]+)", proc.stdout).group(1).split()
            values["raw_wall_s"].append(statistics.median(map(float, walls)))
            values["raw_setup_s"].append(float(re.search(r"raw setup s ([\d.]+)", proc.stdout).group(1)))
        summary[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals), "values": vals}
            bound = f"bound {bounds[name]:.2f}" if name in bounds else "(raw, no bound)"
            print(f"{workload:18s} {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  {bound}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
