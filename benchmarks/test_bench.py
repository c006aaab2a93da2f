"""Tests of the benchmark itself; not part of the Tier-1 suite.

Run from the checkout root (about 5 minutes, most of it in two traced runs
of each workload):

    python3 -m pytest benchmarks -q
"""

import json
import shutil
import time
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Counts that depend only on the code and the default config.
EXACT_COUNTS = (
    "magnus.step_updates",
    "magnus.segment_calls",
    "floquet.matrix_builds",
    "tomography.mle_calls",
)
#: Layer self times must add up to the traced iteration's wall time within
#: this share: the only time outside the spans is entering and leaving the
#: root span.
SELF_TIME_RTOL = 1e-3


def _traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    trace = json.loads((ROOT / ".bench_run" / f"trace-{workload}-seed{seed}.json").read_text())
    return result, trace


@pytest.fixture(scope="module")
def traced_runs():
    return {w: [_traced_run(w, seed) for seed in (11, 12)] for w in workloads.WORKLOADS}


def test_traced_runs_report_every_layer_metric(traced_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    for runs in traced_runs.values():
        for result, _ in runs:
            assert result["correct"] and result["failed"] == 0
            assert set(result["metrics"]) == names


def test_exact_counts_repeat_across_traced_runs(traced_runs):
    for workload, ((first, _), (second, _)) in traced_runs.items():
        for name in EXACT_COUNTS:
            assert first["metrics"][name] == second["metrics"][name], (workload, name)
    assert traced_runs["quasienergy-sweep"][0][0]["metrics"]["floquet.matrix_builds"]["value"] > 0
    assert traced_runs["drive-scan"][0][0]["metrics"]["magnus.step_updates"]["value"] > 0
    assert traced_runs["state-tomography"][0][0]["metrics"]["tomography.mle_calls"]["value"] > 0


def test_layer_self_times_sum_to_traced_wall(traced_runs):
    for runs in traced_runs.values():
        for _, trace in runs:
            for it in trace["iterations"]:
                selfs = it["self_s_by_layer"]
                assert min(selfs.values()) >= 0.0
                assert sum(selfs.values()) == pytest.approx(it["wall_s"], rel=SELF_TIME_RTOL)


def test_trace_overhead_is_small_and_positive(traced_runs):
    for workload, runs in traced_runs.items():
        for result, trace in runs:
            overhead = result["metrics"]["trace.overhead_s"]["value"]
            assert 0.0 < overhead < 0.05 * min(it["wall_s"] for it in trace["iterations"]), workload


def test_host_speed_probe_samples_and_scales():
    probe = hostspeed.Probe()
    probe.start()
    try:
        mark = probe.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            sum(range(1000))
    finally:
        probe.stop()
    handler_s, kernel_s = probe.since(mark)
    assert len(probe.samples) >= 5
    assert 0.0 < handler_s < 0.25 and kernel_s > 0.0
    assert hostspeed.scaled(2.0, 0.1, 2.0 * hostspeed.REFERENCE_KERNEL_S) == pytest.approx(0.95)


def test_tracer_patches_every_namespace_that_imported_by_value():
    from strongdrive import _magnus, evolve, floquet, tomography

    originals = {
        "strongdrive.evolve.magnus_segment": _magnus.magnus_segment,
        "strongdrive.floquet.magnus_segment": _magnus.magnus_segment,
        "strongdrive.tomography.propagate": evolve.propagate,
        "strongdrive.tomography.propagate_train": evolve.propagate_train,
        "strongdrive.evolve.quasienergy_sweep": floquet.quasienergy_sweep,
    }
    modules = {"strongdrive.evolve": evolve, "strongdrive.floquet": floquet, "strongdrive.tomography": tomography}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert set(originals) <= tracer.patched()
        for qualified, original in originals.items():
            module, attr = qualified.rsplit(".", 1)
            assert getattr(modules[module], attr) is not original
    finally:
        tracer.uninstall()
    for qualified, original in originals.items():
        module, attr = qualified.rsplit(".", 1)
        assert getattr(modules[module], attr) is original


def test_self_times_subtract_direct_children():
    spans = [("a.root", 0.0, 10.0, -1), ("b.x", 1.0, 4.0, 0), ("c.y", 2.0, 3.0, 1), ("b.x", 5.0, 6.0, 0)]
    assert tracing.self_times(spans) == {"a.root": 6.0, "b.x": 3.0, "c.y": 1.0}
    assert tracing.inclusive_times(spans)["b.x"] == 4.0


# ---------------------------------------------------------------------------
# Gates reject corrupted outputs
# ---------------------------------------------------------------------------


def _run_ops(workload, out_dir):
    out_dir.mkdir()
    for op in workloads.WORKLOADS[workload]:
        workloads.run_op(op, out_dir, seed=0)
    return out_dir


def _problems(workload, out_dir, bootstrap_failures=(0, 0)):
    reference = gates.load_reference(workload)
    return {
        workloads.op_name(op): gates.check(
            workloads.op_name(op), out_dir, reference, {"error": None, "bootstrap_failures": list(bootstrap_failures)}
        )
        for op in workloads.WORKLOADS[workload]
    }


def _perturb_csv(path, row, column, delta):
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[row + 1].rstrip("\n").split(",")
    fields[column] = f"{float(fields[column]) + delta:.17g}"
    lines[row + 1] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


@pytest.fixture(scope="module")
def drive_scan_outputs(tmp_path_factory):
    return _run_ops("drive-scan", tmp_path_factory.mktemp("drive-scan") / "out")


def test_drive_scan_gates_pass_at_seed(drive_scan_outputs):
    assert _problems("drive-scan", drive_scan_outputs) == {op: [] for op in ("rabi-scan", "edge-study", "tomography-trace")}


@pytest.mark.parametrize(
    "op, filename, column",
    [("rabi-scan", "rabi_p1.csv", 2), ("edge-study", "edge_traces.csv", 3), ("tomography-trace", "bloch_trace.csv", 5)],
)
def test_drive_scan_gate_rejects_p1_perturbed_by_1e_4(drive_scan_outputs, tmp_path, op, filename, column):
    out = shutil.copytree(drive_scan_outputs, tmp_path / "out")
    _perturb_csv(out / filename, row=1234, column=column, delta=1e-4)
    problems = _problems("drive-scan", out)
    assert problems[op] and filename in problems[op][0]
    assert all(not p for name, p in problems.items() if name != op)


def test_quasienergy_gate_rejects_shifted_branch(tmp_path):
    out = _run_ops("quasienergy-sweep", tmp_path / "out")
    assert _problems("quasienergy-sweep", out) == {"quasienergies": []}
    # 1e-8 GHz is 6.3e-8 rad/ns: over the tolerance against both the oracle and the reference
    _perturb_csv(out / "quasienergies.csv", row=150, column=2, delta=1e-8)
    problems = _problems("quasienergy-sweep", out)["quasienergies"]
    assert len(problems) == 2


def _state_tomography_outputs(out_dir, **changes):
    """Outputs that match the reference, with ``changes`` applied to excited."""
    ref = gates.load_reference("state-tomography")
    out_dir.mkdir()
    (out_dir / "calibration.json").write_text(json.dumps(ref["calibration"]))
    prep = {
        name: {
            "pulse": {"total_ns": r["total_ns"], "carrier_phase_rad": r["carrier_phase_rad"]},
            "unitary_fidelity": r["unitary_fidelity"],
            "reconstructed_fidelity": 0.99995,
            "fidelity_stderr": 2e-5,
            "bootstrap_b": 200,
        }
        for name, r in ref["state_prep"].items()
    }
    for key, value in changes.items():
        target = prep["excited"]["pulse"] if key in ("total_ns", "carrier_phase_rad") else prep["excited"]
        target[key] = value
    (out_dir / "state_prep.json").write_text(json.dumps(prep))
    return out_dir


def test_state_tomography_gates(tmp_path):
    ref = gates.load_reference("state-tomography")["state_prep"]["excited"]
    assert _problems("state-tomography", _state_tomography_outputs(tmp_path / "ok")) == {"calibration": [], "state-prep": []}
    bad = [
        {"total_ns": ref["total_ns"] + 1e-3},
        {"carrier_phase_rad": ref["carrier_phase_rad"] + 0.02},
        {"unitary_fidelity": ref["unitary_fidelity"] - 1e-5},
        {"reconstructed_fidelity": 0.998},
        {"fidelity_stderr": 0.0},
    ]
    for k, changes in enumerate(bad):
        problems = _problems("state-tomography", _state_tomography_outputs(tmp_path / f"bad{k}", **changes))
        assert problems["calibration"] == [] and len(problems["state-prep"]) == 1, changes
    ok = _state_tomography_outputs(tmp_path / "resamples")
    assert _problems("state-tomography", ok, bootstrap_failures=(1, 1))["state-prep"] == []
    assert len(_problems("state-tomography", ok, bootstrap_failures=(0, 2))["state-prep"]) == 1
    assert len(_problems("state-tomography", ok, bootstrap_failures=(0,))["state-prep"]) == 1
    calib = _state_tomography_outputs(tmp_path / "calib")
    shifted = json.loads((calib / "calibration.json").read_text())
    shifted["rx90"]["t_plateau_ns"] += 1e-5
    (calib / "calibration.json").write_text(json.dumps(shifted))
    assert len(_problems("state-tomography", calib)["calibration"]) == 1


def test_gate_counts_a_failed_command():
    assert gates.check("rabi-scan", ROOT, {}, {"error": "RuntimeError: boom", "bootstrap_failures": []})
