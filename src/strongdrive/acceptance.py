"""Acceptance checks: one callable per shipped criterion.

Each check returns a CheckResult with a pass flag and a detail line, so the
CLI ``check`` command and the test suite share one implementation.  All
checks are deterministic for a fixed seed and sized for a laptop run.
Criteria 04-06 score the tables that ``rabi-scan``, ``state-prep`` and
``edge-study`` write at the default config (``cli.cmd_*``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import cli, evolve, floquet, spectral, tomography
from .config import ExperimentConfig, default_config
from .model import PulseSpec, QubitParams, StateVector
from .units import TWO_PI


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.details}"


DELTA = TWO_PI * 2.288
OMEGA_FACTORS = (1.0, 0.6, 1.4)


def check_quasienergy_oracle() -> CheckResult:
    """1: Floquet-matrix quasienergies match monodromy eigenphases mod omega."""
    t0 = time.time()
    amps = np.linspace(0.0, 2.1, 100) * DELTA
    worst = step_error = 0.0
    for factor in OMEGA_FACTORS:
        omega = factor * DELTA
        specs = floquet.quasienergy_sweep(DELTA, omega, amps)
        oracle, error = floquet._monodromy_oracle(DELTA, amps, omega)
        step_error = max(step_error, error)
        for s, pair in zip(specs, oracle):
            ours = s.mod_omega()
            d = max(
                min(floquet.zone_distance(x, y, omega) for y in pair) for x in ours
            )
            worst = max(worst, d)
    dt = time.time() - t0
    ok = worst < 1e-8 and dt < 120.0
    return CheckResult(
        "quasienergy oracle equivalence",
        ok,
        f"max mod-omega mismatch {worst:.2e} rad/ns (tol 1e-8), oracle step error "
        f"{step_error:.2e} rad/ns, runtime {dt:.1f}s",
    )


def check_analytic_limits() -> CheckResult:
    """2: closed-form quasienergy difference against its quoted limits."""
    msgs = []
    ok = True

    exact = all(
        floquet.analytic_delta_epsilon(DELTA, 0.0, f * DELTA) == abs(f * DELTA - DELTA)
        for f in OMEGA_FACTORS
    )
    ok &= exact
    msgs.append(f"A=0 exact |w-D|: {'ok' if exact else 'FAIL'}")

    worst_weak = 0.0
    for f in (1.0, 1.02, 0.98):
        omega = f * DELTA
        for a in np.linspace(1e-4, 0.1, 25) * omega:
            full = floquet.analytic_delta_epsilon(DELTA, a, omega)
            weak = np.hypot(omega - DELTA, a)
            worst_weak = max(worst_weak, abs(full - weak) / full)
    ok &= worst_weak < 0.01
    msgs.append(f"weak limit rel dev {worst_weak:.4f} (tol 0.01)")

    worst_strong = 0.0
    worst_at = 0.0
    for f in OMEGA_FACTORS:
        omega = f * DELTA
        for a in np.linspace(3.0, 6.0, 13) * omega:
            full = floquet.analytic_delta_epsilon(DELTA, a, omega)
            strong = omega - DELTA * floquet.j0(2.0 * a / omega)
            rel = abs(full - strong) / abs(strong)
            if rel > worst_strong:
                worst_strong, worst_at = rel, a / omega
    ok &= worst_strong < 0.01
    msgs.append(
        f"strong limit rel dev {worst_strong:.4f} at A={worst_at:.2f}w (tol 0.01)"
    )
    return CheckResult("analytic formula limits", bool(ok), "; ".join(msgs))


def check_fig_s1() -> CheckResult:
    """3: numeric vs closed-form quasienergy curves over the scanned range."""
    msgs = []
    ok = True
    mid_devs = []
    for f in OMEGA_FACTORS:
        omega = f * DELTA
        amps = np.linspace(0.0, 2.1 * DELTA, 85)
        specs = floquet.quasienergy_sweep(DELTA, omega, amps)
        dev = np.empty(len(amps))
        for i, (a, s) in enumerate(zip(amps, specs)):
            e0a, e1a = floquet.analytic_quasienergies(DELTA, a, omega)
            dev[i] = max(abs(s.eps0 - e0a), abs(s.eps1 - e1a)) / omega
        lo = amps <= 0.3 * omega
        hi = amps >= 3.0 * omega
        mid = (amps >= 0.5 * omega) & (amps <= 1.5 * omega)
        lo_dev = dev[lo].max()
        ok &= lo_dev < 0.01
        part = f"w={f}D: low-A dev {lo_dev:.4f}"
        if hi.any():
            hi_dev = dev[hi].max()
            ok &= hi_dev < 0.01
            part += f", A>=3w dev {hi_dev:.4f}"
        mid_devs.append(dev[mid].max())
        part += f", A~w dev {mid_devs[-1]:.4f}"
        msgs.append(part)
    # the deviation region near A ~ w must exist (reported above, not hidden)
    ok &= max(mid_devs) > 1e-3
    return CheckResult(
        "quasienergy curves, numeric vs closed form (tol 0.01 of w outside A~w)",
        bool(ok),
        "; ".join(msgs),
    )


def check_fig2() -> CheckResult:
    """4: classified peak lines with even n, odd-n violation score < 0.02, from
    ``rabi_peaks.csv`` at the default carrier and at 1.373 GHz."""
    default = default_config()
    off_resonant = ExperimentConfig({
        **default.values,
        "rabi": {**default["rabi"], "omega_ghz": 1.373, "amp_min_ghz": 0.30,
                 "amp_max_ghz": 4.30, "amp_points": 9},
    })
    ok = True
    msgs = []
    for config in (default, off_resonant):
        _, peaks = cli.cmd_rabi_scan(config)["rabi_peaks.csv"]
        unassigned = sum(1 for p in peaks if p[3] == "unassigned")
        worst_score = max((p[5] for p in peaks), default=0.0)
        ok &= unassigned == 0 and worst_score < 0.02
        msgs.append(
            f"w={config['rabi']['omega_ghz']:.3f} GHz: {len(peaks)} peaks, "
            f"{unassigned} unassigned, worst odd-n score {worst_score:.4f}"
        )
    return CheckResult("driven-oscillation peak classification (1 bin, even n)", bool(ok), "; ".join(msgs))


def check_state_prep() -> CheckResult:
    """5: fast state preparation fidelities at the quoted durations, from
    ``state_prep.json``."""
    config = default_config()
    report = cli.cmd_state_prep(config, 0, config["run"]["seed"])["state_prep.json"]
    y, e = report["minus_y"], report["excited"]
    fid_y, total_y = y["unitary_fidelity"], y["pulse"]["total_ns"]
    fid_1, total_1 = e["unitary_fidelity"], e["pulse"]["total_ns"]
    ok_y = fid_y >= 0.9997 - 0.001 and abs(total_y - 0.48) <= 0.05
    ok_1 = fid_1 >= 0.9976 - 0.001 and abs(total_1 - 1.08) <= 0.05
    return CheckResult(
        "state preparation (target durations +- 0.05 ns)",
        bool(ok_y and ok_1),
        f"-Y: F={fid_y:.5f} at {total_y:.3f} ns (want >=0.9987 at ~0.48); "
        f"|1>: F={fid_1:.5f} at {total_1:.3f} ns (want >=0.9966 at ~1.08)",
    )


def check_fig4() -> CheckResult:
    """6: fast-component suppression with edge time, and rise/fall asymmetry,
    from ``edge_fast_amplitudes.csv``."""
    config = default_config()
    _, rows = cli.cmd_edge_study(config)["edge_fast_amplitudes.csv"]
    amps = {(t_r, t_f): (lo, hi) for t_r, t_f, lo, hi in rows}
    lo, hi = np.array([amps[(e, e)] for e in config["edges"]["edge_times_ns"]]).T
    monotone = bool(np.all(np.diff(lo) <= 0.01) and np.all(np.diff(hi) <= 0.01))
    suppressed = lo[-1] < 0.1 * lo[0] and hi[-1] < 0.1 * hi[0]
    num = np.hypot(*amps[(4.0, 0.0)])  # slow rise
    den = max(np.hypot(*amps[(0.0, 4.0)]), 1e-12)  # slow fall
    asym = num / den
    ok = monotone and suppressed and asym > 5.0
    return CheckResult(
        "edge-time fast-component suppression",
        bool(ok),
        f"amps(2w-de) {np.array2string(lo, precision=4)}, "
        f"amps(2w+de) {np.array2string(hi, precision=4)}, asym ratio {asym:.1f}",
    )


def check_printed_matrices() -> CheckResult:
    """7: fidelities recomputed from the published density matrices."""
    rho_my = tomography.DensityMatrix.from_matrix(
        [[0.511048, -0.0145217 + 0.499667j], [-0.0145217 - 0.499667j, 0.488952]],
        normalize=True,
    )
    rho_e = tomography.DensityMatrix.from_matrix(
        [[0.00590452, -0.0709229 + 0.0289758j], [-0.0709229 - 0.0289758j, 0.994095]],
        normalize=True,
    )
    f_my = tomography.fidelity(rho_my, tomography.DensityMatrix.from_state(StateVector.minus_y()))
    f_e = tomography.fidelity(rho_e, tomography.DensityMatrix.from_state(StateVector.excited()))
    ok = abs(f_my - 0.9998) <= 0.0005 and abs(f_e - 0.9970) <= 0.0005
    return CheckResult(
        "printed-matrix fidelities",
        bool(ok),
        f"F(-Y)={f_my:.5f} (0.9998+-0.0005), F(|1>)={f_e:.5f} (0.9970+-0.0005)",
    )


def check_tomography_roundtrip(n_states: int = 100, seed: int = 20240901) -> CheckResult:
    """8: MLE round-trip median fidelity and bootstrap-vs-MC stderr."""
    rng = np.random.default_rng(seed)
    fids = []
    for k in range(n_states):
        v = rng.standard_normal(4)
        psi = v[:2] + 1j * v[2:]
        psi /= np.linalg.norm(psi)
        st = StateVector.from_array(psi)
        recs = [
            tomography.simulate_shots(st, b, 16384, seed=seed + 7 * k + i)
            for i, b in enumerate(tomography.BASES)
        ]
        rho = tomography.mle_reconstruct(recs)
        fids.append(tomography.fidelity(rho, tomography.DensityMatrix.from_state(st)))
    med = float(np.median(fids))

    ratios = []
    for k in range(3):
        v = rng.standard_normal(4)
        psi = v[:2] + 1j * v[2:]
        psi /= np.linalg.norm(psi)
        st = StateVector.from_array(psi)
        target = tomography.DensityMatrix.from_state(st)
        recs = [
            tomography.simulate_shots(st, b, 16384, seed=seed + 1000 + 7 * k + i)
            for i, b in enumerate(tomography.BASES)
        ]
        res = tomography.bootstrap_errors(recs, target, b=200, seed=seed + k)
        mc = []
        for m in range(200):
            r2 = [
                tomography.simulate_shots(st, b, 16384, seed=seed + 5000 + 91 * k + 3 * m + i)
                for i, b in enumerate(tomography.BASES)
            ]
            mc.append(tomography.fidelity(tomography.mle_reconstruct(r2), target))
        mc_err = float(np.std(mc, ddof=1))
        ratios.append(res.fidelity_stderr / mc_err if mc_err > 0 else np.inf)
    ratio_ok = all(0.5 <= r <= 2.0 for r in ratios)
    ok = med > 0.999 and ratio_ok
    return CheckResult(
        "tomography round-trip",
        bool(ok),
        f"median fidelity {med:.5f} over {n_states} states (tol >0.999); "
        f"bootstrap/MC stderr ratios {[f'{r:.2f}' for r in ratios]} (tol [0.5, 2])",
    )


def check_calibration_slopes() -> CheckResult:
    """9: amplified recovery of injected angle and axis errors."""
    par = QubitParams()
    pulses = tomography.prerotation_pulses(par)
    rx, ry = pulses["rx90"], pulses["ry90"]
    n = 5

    def angle_est(delta_err):
        scale = (np.pi / 2 + delta_err) / (np.pi / 2)
        scaled = PulseSpec(
            rx.amplitude_max * scale, par.delta, rx.t_rise, rx.t_plateau, rx.t_fall, 0.0
        )
        return tomography.angle_calibration_sequence(par, scaled, n)

    d = 0.005
    angle_slope = (2 * n + 1) * (angle_est(d) - angle_est(-d)) / (2 * d)
    ok_angle = abs(angle_slope - 11.0) <= 1.1

    def axis_est(phi_err):
        # carrier phase -phi tilts the rotation axis by +phi
        tilted = PulseSpec(
            ry.amplitude_max, par.delta, ry.t_rise, ry.t_plateau, ry.t_fall,
            ry.carrier_phase - phi_err,
        )
        return tomography.axis_calibration_sequence(par, rx, tilted, n)

    p = 0.004
    recovery = (axis_est(p) - axis_est(-p)) / (2 * p)
    axis_slope = (2 * n) * recovery
    ok_axis = abs(axis_slope - 10.0) <= 1.0
    ok = ok_angle and ok_axis
    return CheckResult(
        "calibration error amplification",
        bool(ok),
        f"angle slope {angle_slope:.3f} (11 +- 10%); "
        f"axis recovered slope {axis_slope:.3f} = 2n x {recovery:.4f} (10 +- 10%; "
        f"exact sequence response is x(2n+1))",
    )


def check_numerical_hygiene() -> CheckResult:
    """10: norm conservation, composition, Parseval, MLE physicality,
    determinism under a fixed seed."""
    par = QubitParams()
    msgs = []
    ok = True

    pulse = PulseSpec(TWO_PI * 1.0, DELTA, 0.5, 8.0, 0.5)
    traj = evolve.propagate(par, pulse, sample_dt=0.01)
    norm_dev = float(np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)))
    ok &= norm_dev < 1e-9
    msgs.append(f"norm dev {norm_dev:.1e}")

    pulse_c = PulseSpec(TWO_PI * 0.46, DELTA, 0.5, 3.0, 0.5)
    u_full = evolve.evolve_interval(par, pulse_c, 0.0, pulse_c.total)
    u_a = evolve.evolve_interval(par, pulse_c, 0.0, 1.7)
    u_b = evolve.evolve_interval(par, pulse_c, 1.7, pulse_c.total)
    comp = float(np.max(np.abs(u_b @ u_a - u_full)))
    ok &= comp < 1e-9
    msgs.append(f"composition defect {comp:.1e}")

    t = np.arange(0.0, 30.0, 0.01)
    v = 0.4 * np.cos(2 * np.pi * 0.73 * t) + 0.1 * np.sin(2 * np.pi * 2.1 * t) + 0.3
    for window in spectral.WINDOWS:
        sp = spectral.dft(t, v, window, 4)
        w = {"hann": np.hanning, "hamming": np.hamming, "rectangular": np.ones}[window](len(v))
        energy = float(np.sum(((v - v.mean()) * w) ** 2))
        rel = abs(spectral.spectrum_energy(sp) - energy) / energy
        ok &= rel < 1e-9
    msgs.append("Parseval < 1e-9 all windows")

    rng = np.random.default_rng(3)
    physical = True
    for _ in range(25):
        counts = rng.integers(0, 513, size=3)
        recs = [
            tomography.ShotRecord(b, 512, int(c))
            for b, c in zip(tomography.BASES, counts)
        ]
        rho = tomography.mle_reconstruct(recs).matrix
        physical &= bool(np.min(np.linalg.eigvalsh(rho)) >= -1e-10)
        physical &= abs(np.trace(rho).real - 1.0) < 1e-12
    ok &= physical
    msgs.append(f"MLE physical: {physical}")

    def pipeline(seed):
        p1, counts = evolve.sweep_pulse_duration(
            par,
            PulseSpec(TWO_PI * 0.3, DELTA, 0.0, 0.0, 0.0),
            np.arange(0.0, 5.0, 0.05),
            shots=1024,
            seed=seed,
        )
        return p1.tobytes() + counts.tobytes()

    det = pipeline(7) == pipeline(7)
    ok &= det
    msgs.append(f"seeded determinism: {det}")
    return CheckResult("numerical hygiene", bool(ok), "; ".join(msgs))


ALL_CHECKS = (
    check_quasienergy_oracle,
    check_analytic_limits,
    check_fig_s1,
    check_fig2,
    check_state_prep,
    check_fig4,
    check_printed_matrices,
    check_tomography_roundtrip,
    check_calibration_slopes,
    check_numerical_hygiene,
)
