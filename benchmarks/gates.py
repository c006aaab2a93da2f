"""Correctness gates: each operation's outputs against invariants and the
reference recorded at the seed commit (``reference/``).

``check(op, out_dir, reference, record)`` returns a list of problems, empty
when the operation passed.  Seed-independent outputs are compared with the
reference; outputs that depend on the shot seed are checked by invariants
only, so the gates hold on any seed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
TWO_PI = 2.0 * np.pi

#: Quasienergy agreement, rad/ns: the monodromy oracle tolerance (criterion 01).
EPS_TOL = 1e-8
#: P1 and fast-component amplitudes: 15x the measured Magnus step error
#: (6.6e-7), so an exact (spectral) propagator still passes.
P1_TOL = 1e-5
BLOCH_NORM_TOL = 1e-9
CALIBRATION_TOL = 1e-6
#: Prepared pulses: one fine-grid step of prepare_state's scans.
PULSE_TOTAL_TOL_NS = 5e-4
PULSE_PHASE_TOL = 0.01
UNITARY_FIDELITY_TOL = 1e-6
MIN_RECONSTRUCTED_FIDELITY = 0.999
MAX_ODD_SCORE = 0.02
#: Failed bootstrap reconstructions per prepared state (of b = 200).  Zero
#: does not hold on every shot seed: at the seed commit about one seed in
#: five has one resample fail the MLE gradient tolerance, and none of 17
#: seeds tried had more than one per state.  bootstrap_errors itself accepts
#: up to 10.  The total is reported as tomography.mle_failures.
MAX_BOOTSTRAP_FAILURES = 1


def _table(path: Path) -> dict:
    """Numeric CSV columns by header name."""
    with open(path) as f:
        header = f.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return dict(zip(header, data.T))


def _close(what: str, got, ref, tol: float) -> list[str]:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{what}: shape {got.shape}, reference {ref.shape}"]
    err = float(np.max(np.abs(got - ref))) if got.size else 0.0
    return [] if err <= tol else [f"{what}: max |diff| {err:.3g} > {tol:g}"]


def _mod_gap(a, b, period):
    """|a - b| reduced to [0, period/2]."""
    return np.abs(np.remainder(np.asarray(a) - b + 0.5 * period, period) - 0.5 * period)


# ---------------------------------------------------------------------------
# Reference values: what make_reference.py stores and the gates compare
# ---------------------------------------------------------------------------


def reference_values(workload: str, out_dir: Path) -> dict:
    """The seed-independent outputs of one iteration, as stored in reference/."""
    if workload == "quasienergy-sweep":
        q = _table(out_dir / "quasienergies.csv")
        return {"eps0_numeric": q["eps0_numeric"].tolist(), "eps1_numeric": q["eps1_numeric"].tolist()}
    if workload == "drive-scan":
        fast = _table(out_dir / "edge_fast_amplitudes.csv")
        return {
            "rabi_p1": _table(out_dir / "rabi_p1.csv")["p1"],
            "edge_p1": _table(out_dir / "edge_traces.csv")["p1"],
            "fast_amplitudes": np.stack([fast["amp_2w_minus_de"], fast["amp_2w_plus_de"]], axis=1),
            "bloch_p1": _table(out_dir / "bloch_trace.csv")["p1"],
        }
    if workload == "state-tomography":
        prep = json.loads((out_dir / "state_prep.json").read_text())
        return {
            "calibration": json.loads((out_dir / "calibration.json").read_text()),
            "state_prep": {
                name: {
                    "total_ns": r["pulse"]["total_ns"],
                    "carrier_phase_rad": r["pulse"]["carrier_phase_rad"],
                    "unitary_fidelity": r["unitary_fidelity"],
                }
                for name, r in prep.items()
            },
        }
    raise ValueError(f"unknown workload {workload!r}")


def reference_path(workload: str) -> Path:
    suffix = ".npz" if workload == "drive-scan" else ".json"
    return REFERENCE_DIR / f"{workload}{suffix}"


def load_reference(workload: str) -> dict:
    path = reference_path(workload)
    if path.suffix == ".npz":
        with np.load(path) as z:
            return {k: z[k].astype(float) for k in z.files}
    return json.loads(path.read_text())


def save_reference(workload: str, values: dict) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    if path.suffix == ".npz":
        # float32 keeps P1 to ~6e-8, far inside P1_TOL, at half the size
        np.savez_compressed(path, **{k: np.asarray(v, dtype=np.float32) for k, v in values.items()})
    else:
        path.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# Gates, one per operation
# ---------------------------------------------------------------------------


def _quasienergies(out_dir, ref, record):
    q = _table(out_dir / "quasienergies.csv")
    omega = TWO_PI * q["omega_ghz"]
    e0, e1 = TWO_PI * q["eps0_numeric"], TWO_PI * q["eps1_numeric"]
    m0, m1 = TWO_PI * q["eps0_monodromy"], TWO_PI * q["eps1_monodromy"]
    # the oracle's pair is sorted within the zone; match either pairing
    gap = np.minimum(
        np.maximum(_mod_gap(e0, m0, omega), _mod_gap(e1, m1, omega)),
        np.maximum(_mod_gap(e0, m1, omega), _mod_gap(e1, m0, omega)),
    )
    problems = _close("numeric vs monodromy mod omega (rad/ns)", gap, np.zeros_like(gap), EPS_TOL)
    for col in ("eps0_numeric", "eps1_numeric"):
        problems += _close(f"{col} vs reference (rad/ns)", TWO_PI * q[col], TWO_PI * np.asarray(ref[col]), EPS_TOL)
    return problems


def _rabi_scan(out_dir, ref, record):
    problems = _close("rabi_p1.csv p1", _table(out_dir / "rabi_p1.csv")["p1"], ref["rabi_p1"], P1_TOL)
    with open(out_dir / "rabi_peaks.csv", newline="") as f:
        peaks = list(csv.DictReader(f))
    unassigned = sum(p["classification"] == "unassigned" for p in peaks)
    if unassigned:
        problems.append(f"rabi_peaks.csv: {unassigned} unassigned peaks")
    odd = max((float(p["odd_score"]) for p in peaks), default=0.0)
    if not odd < MAX_ODD_SCORE:
        problems.append(f"rabi_peaks.csv: odd-n score {odd:.3g} >= {MAX_ODD_SCORE}")
    return problems


def _edge_study(out_dir, ref, record):
    fast = _table(out_dir / "edge_fast_amplitudes.csv")
    amps = np.stack([fast["amp_2w_minus_de"], fast["amp_2w_plus_de"]], axis=1)
    return _close("edge_traces.csv p1", _table(out_dir / "edge_traces.csv")["p1"], ref["edge_p1"], P1_TOL) + _close(
        "edge_fast_amplitudes.csv", amps, ref["fast_amplitudes"], P1_TOL
    )


def _tomography_trace(out_dir, ref, record):
    b = _table(out_dir / "bloch_trace.csv")
    norm = np.sqrt(b["sx"] ** 2 + b["sy"] ** 2 + b["sz"] ** 2)
    return _close("bloch_trace.csv p1", b["p1"], ref["bloch_p1"], P1_TOL) + _close(
        "bloch_trace.csv |Bloch|", norm, np.ones_like(norm), BLOCH_NORM_TOL
    )


def _calibration(out_dir, ref, record):
    got = json.loads((out_dir / "calibration.json").read_text())
    problems = []
    for name, r in ref["calibration"].items():
        problems += _close(f"{name} t_plateau_ns", got[name]["t_plateau_ns"], r["t_plateau_ns"], CALIBRATION_TOL)
        gap = _mod_gap(got[name]["carrier_phase_rad"], r["carrier_phase_rad"], TWO_PI)
        problems += _close(f"{name} carrier_phase_rad", gap, 0.0, CALIBRATION_TOL)
    return problems


def _state_prep(out_dir, ref, record):
    got = json.loads((out_dir / "state_prep.json").read_text())
    problems = []
    for name, r in ref["state_prep"].items():
        g = got[name]
        problems += _close(f"{name} total_ns", g["pulse"]["total_ns"], r["total_ns"], PULSE_TOTAL_TOL_NS)
        gap = _mod_gap(g["pulse"]["carrier_phase_rad"], r["carrier_phase_rad"], TWO_PI)
        problems += _close(f"{name} carrier_phase_rad", gap, 0.0, PULSE_PHASE_TOL)
        problems += _close(f"{name} unitary_fidelity", g["unitary_fidelity"], r["unitary_fidelity"], UNITARY_FIDELITY_TOL)
        if not g["reconstructed_fidelity"] > MIN_RECONSTRUCTED_FIDELITY:
            problems.append(f"{name} reconstructed_fidelity {g['reconstructed_fidelity']} <= {MIN_RECONSTRUCTED_FIDELITY}")
        if not g["fidelity_stderr"] > 0.0:
            problems.append(f"{name} fidelity_stderr {g['fidelity_stderr']} is not positive")
    per_state = record["bootstrap_failures"]
    if len(per_state) != len(got):
        problems.append(f"{len(per_state)} bootstrap runs for {len(got)} prepared states")
    if max(per_state, default=0) > MAX_BOOTSTRAP_FAILURES:
        problems.append(f"bootstrap MLE reconstructions failed per state: {per_state} (at most {MAX_BOOTSTRAP_FAILURES})")
    return problems


GATES = {
    "quasienergies": _quasienergies,
    "rabi-scan": _rabi_scan,
    "edge-study": _edge_study,
    "tomography-trace": _tomography_trace,
    "calibration": _calibration,
    "state-prep": _state_prep,
}


def check(op: str, out_dir: Path, reference: dict, record: dict) -> list[str]:
    """Problems with one operation's outputs; ``record`` is the worker's
    record of the operation (``error``, ``bootstrap_failures``: failed
    reconstructions per bootstrap_errors call)."""
    if record["error"] is not None:
        return [f"failed: {record['error']}"]
    try:
        return GATES[op](Path(out_dir), reference, record)
    except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
