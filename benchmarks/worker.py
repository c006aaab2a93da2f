"""One workload run in a fresh process, started by run.py.

The process imports strongdrive (with numpy and scipy) and resolves the
default config first, then reports the monotonic time at which the first
iteration could begin; run.py subtracts the time it started the process.
With ``--setup-only`` it stops there.  Otherwise it runs workload iterations
until ``--seconds`` have passed and writes one JSON record per iteration.
With ``--trace 1`` it alternates untraced and traced iterations and writes
the spans of every traced iteration to ``--trace-file``.

The host speed probe (hostspeed.py) runs from the first line through every
untraced iteration; it is stopped while an iteration is traced, so it adds
nothing to the spans.
"""

import sys
import time

import hostspeed

PROBE = hostspeed.Probe()
PROBE.start()


def _setup() -> dict:
    import strongdrive.cli  # noqa: F401  (imports numpy and scipy)
    from strongdrive.config import load_config

    load_config(None)
    ready = time.monotonic()
    handler_s, kernel_s = PROBE.since((0, 0.0))
    return {"ready": ready, "handler_s": handler_s, "kernel_s": kernel_s}


def _run_iteration(ops, out_dir, seed, tracer, failures):
    import contextlib
    import traceback

    import tracing
    import workloads

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    out_dir.mkdir(parents=True)
    records = []
    bytes_written = 0
    if tracer:
        PROBE.stop()
        tracer.install()
    mark = PROBE.mark()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with span("bench.iteration"):
            for op in ops:
                name = workloads.op_name(op)
                failures.clear()
                # the calibration call is the one entry point the benchmark
                # makes below the CLI, so it gets its span here
                calib = op == "calibration"
                try:
                    with span("tomography.prerotation_pulses") if calib else contextlib.nullcontext():
                        workloads.run_op(op, out_dir, seed)
                    error = None
                except Exception as exc:  # an operation failure is counted, not fatal
                    traceback.print_exc()
                    error = f"{type(exc).__name__}: {exc}"
                if tracer and error is None and not calib:
                    bytes_written += workloads.bytes_written(out_dir)
                records.append({"op": name, "error": error, "bootstrap_failures": list(failures)})
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if tracer:
            tracer.uninstall()
    it = {"traced": tracer is not None, "dir": str(out_dir), "wall_s": wall, "ops": records}
    if tracer:
        extra = {
            "tomography.mle_failures": sum(sum(r["bootstrap_failures"]) for r in records),
            "cli.bytes_written": bytes_written,
        }
        it["layers"] = tracing.layer_metrics(tracer, extra)
        it["self_s_by_layer"] = dict(tracing.by_layer(tracing.self_times(tracer.spans)))
        PROBE.start()
    else:
        handler_s, kernel_s = PROBE.since(mark)
        it.update(cpu_s=cpu - handler_s, kernel_s=kernel_s, scaled_wall_s=hostspeed.scaled(wall, handler_s, kernel_s))
    return it


def main(setup: dict) -> int:
    import argparse
    import json
    import resource
    from pathlib import Path

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="directory for outputs and result.json")
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args()
    if args.setup_only:
        PROBE.stop()
        print(json.dumps(setup))
        return 0

    import functools

    import tracing
    import workloads
    from strongdrive import tomography
    from strongdrive.errors import NumericError

    # bootstrap_errors drops failed MLE reconstructions without reporting
    # them; the state-tomography gate needs their number per call (one call
    # per prepared state).
    failures: list[int] = []
    mle_reconstruct, bootstrap_errors = tomography.mle_reconstruct, tomography.bootstrap_errors

    @functools.wraps(mle_reconstruct)
    def counted(*args, **kwargs):
        try:
            return mle_reconstruct(*args, **kwargs)
        except NumericError:
            if failures:
                failures[-1] += 1
            raise

    @functools.wraps(bootstrap_errors)
    def per_call(*args, **kwargs):
        failures.append(0)
        return bootstrap_errors(*args, **kwargs)

    tomography.mle_reconstruct, tomography.bootstrap_errors = counted, per_call

    ops = workloads.WORKLOADS[args.workload]
    iterations, traces = [], []
    start = time.monotonic()
    while True:
        for traced in (False, True) if args.trace else (False,):
            tracer = tracing.Tracer() if traced else None
            out_dir = args.out / f"iter-{len(iterations)}"
            iterations.append(_run_iteration(ops, out_dir, args.seed, tracer, failures))
            if tracer:
                it = iterations[-1]
                t0 = tracer.spans[0][1]
                traces.append({
                    "wall_s": it["wall_s"],
                    "self_s_by_layer": it["self_s_by_layer"],
                    "spans": [[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans],
                })
        if time.monotonic() - start >= args.seconds:
            break
    PROBE.stop()

    if args.trace:
        args.trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "iterations": traces,
        }))
    result = {
        "setup": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iterations": iterations,
    }
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(_setup()))
