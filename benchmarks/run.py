"""strongdrive benchmark: one workload, one fresh worker process, one result.

Usage, from the root of a checkout (the strongdrive sources under ./src):

    python3 benchmarks/run.py --workload drive-scan --seed 1 --seconds 20 --trace 0

Closed loop, one client: the worker runs the workload's operations back to
back through ``strongdrive.cli.main`` at the default config (threads = 1,
one BLAS thread) until ``--seconds`` have passed, then every operation's
outputs are checked by the gates.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of BENCHMARK.json.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; error rate is
failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gates
import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
#: Fresh processes timed for setup_s besides the worker itself.
SETUP_PROBES = 6
#: Wall-clock budget for the worker; a run must end within 180 s.
WORKER_TIMEOUT_S = 165.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _checkout() -> Path:
    root = Path.cwd()
    if not (root / "src" / "strongdrive" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no strongdrive sources under {root / 'src'}; run from a checkout root")
    return root


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _spawn(argv, env, **kw):
    started = time.monotonic()
    return started, subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], env=env, **kw)


def _finish(proc, timeout):
    """Wait for ``proc``; kill it (and wait) if it overruns."""
    try:
        return proc.wait(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _setup_sample(started: float, setup: dict) -> dict:
    raw = setup["ready"] - started
    return {"raw_s": raw, "scaled_s": hostspeed.scaled(raw, setup["handler_s"], setup["kernel_s"])}


def _setup_samples(env) -> list[dict]:
    samples = []
    for _ in range(SETUP_PROBES):
        started, proc = _spawn(["--setup-only"], env, stdout=subprocess.PIPE, text=True)
        with proc.stdout:
            rc = _finish(proc, 60)
            out = proc.stdout.read()
        if rc != 0:
            raise SystemExit(f"benchmark: setup probe exited with code {rc}")
        samples.append(_setup_sample(started, json.loads(out)))
    return samples


def _gate(workload: str, iterations) -> tuple[int, int]:
    reference = gates.load_reference(workload)
    attempted = failed = 0
    for k, it in enumerate(iterations):
        for record in it["ops"]:
            attempted += 1
            problems = gates.check(record["op"], Path(it["dir"]), reference, record)
            for p in problems:
                print(f"GATE FAIL iteration {k} {record['op']}: {p}", file=sys.stderr)
            failed += bool(problems)
    return attempted, failed


def _metrics(result, setup) -> dict:
    """End-to-end metrics from the untraced iterations, plus the per-layer
    metrics when the run traced some iterations."""
    plain = [it for it in result["iterations"] if not it["traced"]]
    values = {
        "ref_wall_s": statistics.median(it["scaled_wall_s"] for it in plain),
        "setup_s": statistics.median(s["scaled_s"] for s in setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    traced = [it for it in result["iterations"] if it["traced"]]
    if traced:
        values.update({k: statistics.median(it["layers"][k] for it in traced) for k in traced[0]["layers"]})
        values["process.cpu_s"] = statistics.median(it["cpu_s"] for it in plain)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = _checkout()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = _env(root)
    bench_dir = root / ".bench_run"
    run_dir = bench_dir / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    trace_file = bench_dir / f"trace-{args.workload}-seed{args.seed}.json"
    run_dir.mkdir(parents=True)
    try:
        setup = _setup_samples(env)
        started, proc = _spawn(
            ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(run_dir), "--trace-file", str(trace_file)],
            env, stdout=sys.stderr,
        )
        rc = _finish(proc, WORKER_TIMEOUT_S)
        if rc != 0:
            print(f"benchmark: worker exited with code {rc}", file=sys.stderr)
            return 1
        result = json.loads((run_dir / "result.json").read_text())
        setup.append(_setup_sample(started, result["setup"]))
        attempted, failed = _gate(args.workload, result["iterations"])
        values = _metrics(result, setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = {m["name"] for m in wanted} - values.keys()
    if missing:
        raise SystemExit(f"benchmark: metrics not measured: {sorted(missing)}")
    walls = " ".join(f"{it['wall_s']:.3f}{'t' if it['traced'] else ''}" for it in result["iterations"])
    legend = " (t: traced)" if args.trace else ""
    print(f"{args.workload} seed {args.seed}: raw iteration wall s {walls}{legend}")
    plain = [it for it in result["iterations"] if not it["traced"]]
    print(f"  raw setup s {statistics.median(s['raw_s'] for s in setup):.4f} (median of {len(setup)} processes); "
          f"probe kernel {1e3 * statistics.median(it['kernel_s'] for it in plain):.4f} ms, "
          f"reference {1e3 * hostspeed.REFERENCE_KERNEL_S:g} ms")
    # a traced run prints the end-to-end figures of its untraced iterations
    # too; its peak_rss_mb includes the spans held in memory
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] in values:
            print(f"  {m['name']:28s} {values[m['name']]:>16.6g} {m['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    verdict = "PASS" if failed == 0 else "FAIL"
    print(f"  gates: {verdict} ({failed} of {attempted} operations failed, error rate {failed / attempted:.3g})")
    if args.trace:
        print(f"  spans: {trace_file.relative_to(root)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _terminate(signum, frame):
    # turn SIGTERM into SystemExit so the finally blocks stop the worker
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
