"""Propagator: oracles, norm/composition, Floquet-frame analysis, state prep."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from strongdrive import evolve as ev
from strongdrive import floquet as fq
from strongdrive._magnus import IDENTITY2, magnus_path, magnus_segment, unitarity_defect
from strongdrive.config import default_config
from strongdrive.errors import AccuracyError, SimulationError
from strongdrive.model import PulseSpec, QubitParams, StateVector, envelope
from strongdrive.tomography import PREROTATION_AMPLITUDE, PREROTATION_EDGE
from strongdrive.units import TWO_PI

DELTA = TWO_PI * 2.288

#: Edge lengths down to 1e-5 ns, log-uniform, or a sharp edge.
EDGE_TIMES = st.one_of(st.just(0.0), st.floats(-5.0, np.log10(2.0)).map(lambda x: 10.0**x))


class TestPropagate:
    def test_zero_amplitude_free_evolution(self, params):
        pulse = PulseSpec(0.0, DELTA, 0.0, 10.0, 0.0)
        traj = ev.propagate(params, pulse, StateVector.minus_y(), sample_dt=0.1)
        assert np.max(np.abs(traj.p1 - 0.5)) < 1e-12
        assert np.max(np.abs(traj.bloch[:, 2] - 0.0)) < 1e-12

    def test_weak_resonant_rabi_oracle(self, params):
        # Rotating-wave solution sin^2(A t / 2).  The true dynamics carries a
        # counter-rotating ripple of amplitude ~A/4w ~ 0.011, which exceeds
        # the 0.01 budget quoted for this check.
        pulse = PulseSpec(TWO_PI * 0.10, DELTA, 0.0, 40.0, 0.0)
        traj = ev.propagate(params, pulse, sample_dt=0.005)
        rwa = np.sin(0.5 * TWO_PI * 0.10 * traj.times) ** 2
        dev = float(np.max(np.abs(traj.p1 - rwa)))
        assert dev < 0.01, (
            f"beyond-RWA deviation {dev:.4f} exceeds the quoted 0.01; the "
            "counter-rotating ripple amplitude A/(4 omega) = 0.0109 makes "
            "this bound unattainable at A_m = 2 pi x 0.10"
        )

    def test_strong_drive_has_fast_components(self, params):
        from strongdrive import spectral

        pulse = PulseSpec(TWO_PI * 1.0, DELTA, 0.0, 50.0, 0.0)
        traj = ev.propagate(params, pulse, sample_dt=0.005, target_step=1.25e-3,
                            refine=False)
        sp = spectral.dft(traj.times, traj.p1)
        peaks = spectral.find_peaks(sp, 0.02)
        de = fq.quasienergy_sweep(DELTA, DELTA, [TWO_PI * 1.0])[0].delta_eps / TWO_PI
        for want in (de, 2 * 2.288 - de, 2 * 2.288 + de):
            assert np.min(np.abs(np.array([p.frequency for p in peaks]) - want)) < 2 * sp.resolution

    def test_norm_conservation(self, params):
        pulse = PulseSpec(TWO_PI * 1.33, DELTA, 0.5, 20.0, 0.5)
        traj = ev.propagate(params, pulse, sample_dt=0.01)
        assert np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)) < 1e-9

    def test_composition(self, params):
        pulse = PulseSpec(TWO_PI * 0.46, DELTA, 0.5, 3.0, 0.5)
        u_full = ev.evolve_interval(params, pulse, 0.0, pulse.total)
        u_a = ev.evolve_interval(params, pulse, 0.0, 1.3)
        u_b = ev.evolve_interval(params, pulse, 1.3, pulse.total)
        assert np.max(np.abs(u_b @ u_a - u_full)) < 1e-9

    @pytest.mark.parametrize("target_step", [0.0, -1e-3, np.nan, np.inf])
    def test_target_step_must_be_finite_and_positive(self, params, target_step):
        # the step count would turn each into one step per interval without
        # an error; the one step rule rejects them for every driver
        pulse = PulseSpec(TWO_PI * 1.33, DELTA, 1.0, 0.5, 1.0)
        kw = {"target_step": target_step}
        for call in (
            lambda: ev.propagate(params, pulse, **kw),
            lambda: ev.evolve_interval(params, pulse, 0.0, 1.0, **kw),
            lambda: ev.final_states_for_durations(params, pulse, [0.0, 1.0], **kw),
            lambda: ev.sweep_pulse_duration(params, pulse, [0.0, 1.0], **kw),
            lambda: ev.propagate_train(params, [pulse], **kw),
        ):
            with pytest.raises(ValueError, match="target_step must be finite and > 0"):
                call()

    def test_refinement_converges(self, params):
        pulse = PulseSpec(TWO_PI * 1.0, DELTA, 0.0, 5.0, 0.0)
        coarse = ev.propagate(params, pulse, sample_dt=0.5, target_step=0.05)
        fine = ev.propagate(params, pulse, sample_dt=0.5, target_step=0.002,
                            refine=False)
        assert coarse.p1[-1] == pytest.approx(fine.p1[-1], abs=1e-7)

    def test_bad_sample_dt(self, params):
        pulse = PulseSpec(TWO_PI * 0.1, DELTA, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ev.propagate(params, pulse, sample_dt=0.0)


A_PLATEAU = TWO_PI * 1.33
PLATEAU_DURS = np.array([0.0, 0.7, 1.9, 3.4])
SP_TEMPLATE = PulseSpec(TWO_PI * 0.46, DELTA, 0.02, 0.0, 0.02)
PLATEAU_CASES = [  # (id, template, durations, carrier phases)
    *(
        (f"{t_r}:{t_f} at Delta", PulseSpec(A_PLATEAU, DELTA, t_r, 0.0, t_f), PLATEAU_DURS, [0.0])
        for t_r, t_f in [(0.0, 0.0), (0.5, 0.5), (4.0, 4.0), (0.0, 4.0), (4.0, 0.0), (0.5, 2.0)]
    ),
    ("1:1 at 1 GHz", PulseSpec(A_PLATEAU, TWO_PI * 1.0, 1.0, 0.0, 1.0), PLATEAU_DURS, [0.4]),
    *(
        (f"4.78 GHz at {w / TWO_PI:.3f} GHz", PulseSpec(TWO_PI * 4.78, w, 1.0, 0.0, 1.0),
         PLATEAU_DURS, [0.4])
        for w in (DELTA, TWO_PI * 1.0)
    ),
    # prepare_state's coarse and fine (phase x duration) scans for |1>
    ("state-prep coarse", SP_TEMPLATE, np.arange(0.6, 1.5, 0.004),
     np.linspace(0.0, TWO_PI, 24, endpoint=False)),
    ("state-prep fine", SP_TEMPLATE, np.arange(1.084, 1.096, 0.0005),
     2.5 + np.linspace(-0.15, 0.15, 31)),
]


class TestDurationSweep:
    def test_zero_duration_ground(self, params):
        template = PulseSpec(TWO_PI * 0.3, DELTA, 0.0, 0.0, 0.0)
        p1 = ev.sweep_pulse_duration(params, template, [0.0], refine=False)
        assert p1[0] == 0.0

    def test_pi_pulse_time(self, params):
        # RWA pi time = pi / A_m = 5 ns; beyond-RWA ripple can move the
        # discrete argmax by a fraction of the 2w period
        template = PulseSpec(TWO_PI * 0.10, DELTA, 0.0, 0.0, 0.0)
        durs = np.arange(0.0, 8.0, 0.002)
        p1 = ev.sweep_pulse_duration(params, template, durs, refine=False)
        t_peak = durs[int(np.argmax(p1))]
        assert abs(t_peak - 5.0) < 0.15

    def test_matches_continuous_drive_for_zero_edges(self, params):
        times = np.arange(0.0, 8.0 + 1e-12, 0.01)
        template = PulseSpec(TWO_PI * 1.0, DELTA, 0.0, 0.0, 0.0)
        st_a = ev.final_states_for_durations(
            params, template, times, target_step=1e-4, refine=False
        )
        st_b = ev.continuous_drive_states(params, [TWO_PI * 1.0], DELTA, times)[0]
        assert np.max(np.abs(st_a - st_b)) < 1e-12

    def test_matches_independent_propagation_with_edges(self, params):
        template = PulseSpec(TWO_PI * 1.33, DELTA, 1.0, 0.0, 1.0)
        durs = np.array([0.0, 0.7, 1.9, 3.4])
        batch = ev.final_states_for_durations(
            params, template, durs, target_step=1e-3, refine=False
        )
        for d, got in zip(durs, batch):
            pulse = PulseSpec(TWO_PI * 1.33, DELTA, 1.0, d, 1.0)
            traj = ev.propagate(params, pulse, sample_dt=max(pulse.total, 1e-3),
                                target_step=1e-3, refine=False)
            assert np.max(np.abs(traj.states[-1] - got)) < 1e-8

    @pytest.mark.parametrize(
        "template, durs, phases",
        [c[1:] for c in PLATEAU_CASES], ids=[c[0] for c in PLATEAU_CASES],
    )
    def test_plateau_matches_time_stepped_propagation(self, params, template, durs, phases):
        # The oracle Magnus-steps the plateau too; rise and fall share the
        # step.  Its error at 2.5e-4 ns is at most 3.7e-11 (4.78 GHz at
        # Delta) and falls 16-fold per halving, so it is the oracle's plateau
        # error, not the Floquet sum's.
        step = 2.5e-4
        spec = ev._plateau_spectrum(params, template, fq.DEFAULT_TRUNCATION)
        for psi0 in (StateVector.ground(), StateVector.excited()):
            got = ev._duration_batch_states(
                params, template, durs, phases, spec, psi0.as_array(), np.full(3, step)
            )
            for p, phi in enumerate(phases):
                for i in sorted({0, len(durs) // 2, len(durs) - 1}):
                    pulse = dataclasses.replace(template, t_plateau=durs[i], carrier_phase=phi)
                    want = ev.propagate(params, pulse, psi0, sample_dt=max(pulse.total, 1e-3),
                                        target_step=step, refine=False).states[-1]
                    assert np.max(np.abs(got[p, i] - want)) <= 1e-10

    def test_shot_emulation_deterministic(self, params):
        template = PulseSpec(TWO_PI * 0.3, DELTA, 0.0, 0.0, 0.0)
        durs = np.arange(0.0, 4.0, 0.1)
        p1a, ca = ev.sweep_pulse_duration(
            params, template, durs, shots=512, seed=9, refine=False
        )
        p1b, cb = ev.sweep_pulse_duration(
            params, template, durs, shots=512, seed=9, refine=False
        )
        assert np.array_equal(ca, cb)
        assert np.all(ca <= 512)
        # counts track the probabilities
        assert np.max(np.abs(ca / 512 - p1a)) < 0.2

    def test_amplitude_batch_equals_single_calls_bitwise(self, params):
        # each amplitude is summed over its own rows of the shared harmonic
        # table, so the rest of the batch cannot reorder its sums
        amps = TWO_PI * np.linspace(0.1, 2.5, 12)
        times = np.arange(0.0, 2.0 + 1e-12, 0.01)
        batch = ev.continuous_drive_states(params, amps, DELTA, times)
        for a, got in zip(amps, batch):
            one = ev.continuous_drive_states(params, [a], DELTA, times)[0]
            assert np.array_equal(got, one)

    @pytest.mark.parametrize("small_truncation", [False, True])
    def test_empty_amplitude_batch(self, params, small_truncation):
        # an empty batch has no basis to gate, so even a truncation too small
        # for any strong drive returns the empty result
        times = np.arange(0.0, 1.0 + 1e-12, 0.1)
        kwargs = {"truncation_n": 10} if small_truncation else {}
        states = ev.continuous_drive_states(params, [], DELTA, times, **kwargs)
        assert states.shape == (0, len(times), 2)

    def test_decreasing_durations_rejected(self, params):
        template = PulseSpec(TWO_PI * 0.3, DELTA, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ev.sweep_pulse_duration(params, template, [1.0, 0.5])

    @pytest.mark.parametrize("t_rise", [0.0, 1.0])
    def test_empty_durations_rejected(self, params, t_rise):
        template = PulseSpec(TWO_PI * 0.3, DELTA, t_rise, 0.0, 1.0)
        with pytest.raises(ValueError, match="non-empty"):
            ev.final_states_for_durations(params, template, [])

    @pytest.mark.parametrize("field", [None, "delta", "amp", "omega", "truncation_n"])
    def test_spectrum_passed_in_must_match_the_pulse(self, params, field):
        # a matching solve (None) is the one the sweep makes itself, to the
        # bit, also with the edges it kept from the scans before: the default
        # edge-study pairs in order, unrefined and refined (whose halved
        # steps are kept too)
        template = PulseSpec(TWO_PI * 1.33, DELTA, 0.5, 0.0, 0.5)
        durs = np.arange(0.0, 3.0, 0.05)
        spec = ev._plateau_spectrum(params, template, 30)
        if field is None:
            edges = default_config()["edges"]
            pairs = [(e, e) for e in edges["edge_times_ns"]] + list(edges["asymmetric_pairs_ns"])
            for refine in (False, True):
                kwargs = {"truncation_n": 30, "refine": refine}
                shared = dataclasses.replace(spec)  # the same solve, no edges kept yet
                for t_r, t_f in pairs:
                    pulse = PulseSpec(TWO_PI * 1.33, DELTA, t_r, 0.0, t_f)
                    own = ev.sweep_pulse_duration(params, pulse, durs, **kwargs)
                    given = ev.sweep_pulse_duration(params, pulse, durs, spectrum=shared, **kwargs)
                    assert np.array_equal(own, given)
                # one table per distinct (edge, step), the sharp edge's too
                assert len(shared.edge_tables) == (5 if not refine else 13)
            return
        kwargs = {"truncation_n": 30, "refine": False}
        other = dataclasses.replace(spec, **{field: getattr(spec, field) + 1})
        with pytest.raises(ValueError, match="spectrum solved at"):
            ev.final_states_for_durations(params, template, durs, spectrum=other, **kwargs)


class TestContinuousDrive:
    @pytest.mark.parametrize("omega", [DELTA, TWO_PI * 1.373, TWO_PI * 3.1])
    @pytest.mark.parametrize(
        "phase, initial", [(0.0, StateVector.ground()), (1.1, StateVector.minus_y())]
    )
    def test_matches_magnus_oracle(self, params, omega, phase, initial):
        # the time-stepped oracle: a zero-edge pulse over the whole span.  At
        # A = 0 and w = Delta the branches are degenerate and the expansion
        # runs on the limit-convention basis.
        times = np.arange(0.0, 10.0 + 1e-12, 0.01)
        amps = TWO_PI * np.array([0.0, 0.10, 1.33, 4.78])
        got = ev.continuous_drive_states(
            params, amps, omega, times, carrier_phase=phase, initial=initial
        )
        for a, states in zip(amps, got):
            pulse = PulseSpec(a, omega, 0.0, times[-1], 0.0, phase)
            traj = ev.propagate(params, pulse, initial, sample_dt=0.01,
                                target_step=2.5e-4, refine=False)
            assert np.array_equal(traj.times, times)
            assert np.max(np.abs(traj.states - states)) < 1e-9

    def test_truncation_gate(self, params):
        # t = 0 basis unitarity defect at 4.78 GHz: 2.6e-12 at N = 15,
        # 1.5e-6 at N = 10
        times = np.arange(0.0, 5.0 + 1e-12, 0.01)
        amps = [TWO_PI * 4.78]
        ok = ev.continuous_drive_states(params, amps, DELTA, times, truncation_n=15)
        full = ev.continuous_drive_states(params, amps, DELTA, times)
        assert np.max(np.abs(ok - full)) < 1e-9
        with pytest.raises(AccuracyError, match="truncation_n"):
            ev.continuous_drive_states(params, amps, DELTA, times, truncation_n=10)

    @pytest.mark.parametrize("truncation_n", [10, 50])
    def test_near_degenerate_basis_names_delta_eps(self, params, truncation_n):
        # on resonance at A = 2 pi 1e-10 rad/ns, delta_eps = 6.3e-10 rad/ns: the
        # |n| = N rows carry no weight, and the defect is the same at any N
        times = np.arange(0.0, 1.0, 0.1)
        with pytest.raises(AccuracyError, match="delta_eps = 6.28e-10 rad/ns") as exc:
            ev.continuous_drive_states(
                params, [TWO_PI * 1e-10], DELTA, times, truncation_n=truncation_n
            )
        assert "raise truncation_n" not in str(exc.value)

    @settings(max_examples=30, deadline=None)
    @given(
        delta=st.floats(TWO_PI * 1.0, TWO_PI * 4.0),
        omega=st.floats(TWO_PI * 1.0, TWO_PI * 4.0),
        amp=st.floats(0.0, TWO_PI * 3.0),
        tau=st.floats(0.0, 20.0),
    )
    def test_carrier_phase_shift_is_a_time_shift(self, delta, omega, amp, tau):
        # started from psi(tau) at carrier phase omega tau, the drive runs on
        # as the phase-0 trace from tau: the identity plateaus rely on.  It
        # holds wherever the expansion is defined; at tiny amplitudes next
        # to a multiphoton resonance the sector solve cannot split the
        # near-degenerate pair and the basis gate raises instead.
        params = QubitParams(delta=delta)
        times = np.linspace(0.0, 3.0, 61)
        try:
            trace = ev.continuous_drive_states(params, [amp], omega, tau + times)[0]
        except AccuracyError:
            reject()
        shifted = ev.continuous_drive_states(
            params, [amp], omega, times, carrier_phase=omega * tau,
            initial=StateVector.from_array(trace[0]),
        )[0]
        assert np.max(np.abs(shifted - trace)) <= 1e-10

    @settings(max_examples=50, deadline=None)
    @given(
        delta=st.floats(0.5, 20.0),
        omega=st.floats(0.5, 20.0),
        amp=st.floats(1e-3, 20.0),
        t_rise=EDGE_TIMES,
        t_fall=EDGE_TIMES,
        phase=st.floats(0.0, TWO_PI),
    )
    def test_gated_expansion_keeps_unit_norm(self, delta, omega, amp, t_rise, t_fall, phase):
        # the t = 0 basis gate is the expansion's only accuracy check: where
        # it passes, the continuous drive and the fall-dressed pulse sums
        # return unit states.  Draws whose gate (or fall series) raises are
        # rejected.
        params = QubitParams(delta=delta)
        times = np.linspace(0.0, 5.0, 51)
        template = PulseSpec(amp, omega, t_rise, 0.0, t_fall, phase)
        try:
            drive = ev.continuous_drive_states(params, [amp], omega, times, carrier_phase=phase)
            pulses = ev.final_states_for_durations(params, template, times[::5], refine=False)
        except AccuracyError:
            reject()
        for states in (drive[0], pulses):
            assert np.max(np.abs(np.linalg.norm(states, axis=-1) - 1.0)) <= 1e-9

    @pytest.mark.parametrize("omega", [DELTA, TWO_PI * 1.373])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_harmonic_sum_matches_per_harmonic_loop(self, params, omega, seed):
        # psi(t) = sum_n e^{in(wt + phi)} sum_j c_j e^{-i eps_j t} u_jn, one
        # harmonic at a time over every n of the truncation, against the
        # matrix product over the trimmed rows
        rng = np.random.default_rng(seed)
        amps = TWO_PI * rng.uniform(0.05, 3.0, 3)
        phases = rng.uniform(0.0, TWO_PI, 2)
        initials = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        initials /= np.linalg.norm(initials, axis=1, keepdims=True)
        times = np.sort(rng.uniform(0.0, 20.0, 400))
        got, specs = ev._drive_states_and_spectra(params, amps, omega, times, phases, initials)
        assert got.shape == (len(amps), len(phases), len(times), 2)
        for s, got_a in zip(specs, got):
            n_max = s.truncation_n
            lab = s.table  # (harmonic, branch, component)
            decay = np.exp(-1j * np.outer(times, [s.eps0, s.eps1]))
            for phi, psi0, got_p in zip(phases, initials, got_a):
                shift = [np.exp(1j * (phi * n)) for n in range(-n_max, n_max + 1)]
                basis0 = sum(z * u for z, u in zip(shift, lab))  # rows: branches at t = 0
                c = basis0.conj() @ psi0
                want = np.zeros((len(times), 2), dtype=complex)
                for n, z, u in zip(range(-n_max, n_max + 1), shift, lab):
                    want += np.exp(1j * n * (omega * times))[:, None] * ((decay * (z * c)) @ u)
                assert np.max(np.abs(got_p - want)) <= 1e-14


def _direct_falls(params, template, durs, step):
    """Reference falls: one Magnus-integrated fall per duration, its carrier
    phase taken from the absolute start time t_r + d of the fall."""
    am, omega, phi = template.amplitude_max, template.carrier, template.carrier_phase
    t_f = template.t_fall
    starts = template.t_rise + durs

    def x_fall(s):
        env = 0.5 * am * (1.0 + np.cos(np.pi * s / t_f))
        return env[None, :] * np.cos(omega * (starts[:, None] + s[None, :]) + phi)

    n_fall = int(ev._step_count(t_f, step))
    u = np.broadcast_to(IDENTITY2, (len(durs), 2, 2))
    return magnus_segment(u, x_fall, -0.5 * params.delta, 0.0, t_f, n_fall)


EDGE_DURS = np.arange(0.0, 25.0 + 1e-9, 0.01)  # edge-study's default scan
EDGE_PAIRS = [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0), (4.0, 4.0), (0.0, 4.0)]
A_EDGE = TWO_PI * 1.33
SP_DURS = np.arange(0.2, 1.3, 0.004)  # around prepare_state's plateau window
SP_STEP = ev._pulse_steps(SP_TEMPLATE)[0]  # prepare_state's edge step
FALL_CASES = [  # (id, template, step (None: the pulse's default steps), durations)
    *(
        (f"edge-study {t_r}:{t_f}", PulseSpec(A_EDGE, DELTA, t_r, 0.0, t_f), None,
         EDGE_DURS[::25])
        for t_r, t_f in EDGE_PAIRS
    ),
    *(
        (f"criterion-06 {t_r}:{t_f}", PulseSpec(A_EDGE, DELTA, t_r, 0.0, t_f), 1.5e-3,
         EDGE_DURS[::25])
        for t_r, t_f in EDGE_PAIRS
    ),
    *(
        (f"4.78 GHz at {w / TWO_PI:.3f} GHz", PulseSpec(TWO_PI * 4.78, w, 1.0, 0.0, 1.0, 0.4),
         None, EDGE_DURS[::25])
        for w in (DELTA, TWO_PI * 1.0)
    ),
    *(
        (f"state-prep phase {phi}", PulseSpec(TWO_PI * 0.46, DELTA, 0.02, 0.0, 0.02, phi),
         SP_STEP, SP_DURS)
        for phi in (0.0, 2.5)
    ),
]


class TestPhaseHarmonicFalls:
    @pytest.mark.parametrize(
        "template, step, durs", [c[1:] for c in FALL_CASES], ids=[c[0] for c in FALL_CASES]
    )
    def test_matches_direct_falls(self, params, template, step, durs):
        # the fall-dressed Floquet sum against the fall-less scan's states,
        # each then carried through one directly integrated fall
        steps = ev._pulse_steps(template, step)
        no_fall = dataclasses.replace(template, t_fall=0.0)
        spec = ev._plateau_spectrum(params, template, fq.DEFAULT_TRUNCATION)
        falls = _direct_falls(params, template, durs, steps[2])
        for psi0 in (StateVector.ground().as_array(), StateVector.excited().as_array()):
            plateau = ev._duration_batch_states(params, no_fall, durs, None, spec, psi0, steps)
            want = (falls @ plateau[..., None])[..., 0]
            got = ev._duration_batch_states(params, template, durs, None, spec, psi0, steps)
            assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("k", [16, 64])
    def test_half_phase_falls_match_direct_stepping(self, params, step_budget, k):
        # F(theta + pi) = sigma_z F(theta) sigma_z, so only the first half of
        # the phases is stepped
        template = PulseSpec(A_EDGE, DELTA, 1.0, 0.0, 4.0)
        am, omega, t_f = template.amplitude_max, template.carrier, template.t_fall
        theta = TWO_PI * (np.arange(k) + 0.5) / k
        n_fall = int(ev._step_count(t_f, 2e-3))

        def x_fall(s):
            env = 0.5 * am * (1.0 + np.cos(np.pi * s / t_f))
            return env[None, :] * np.cos(omega * s[None, :] + theta[:, None])

        u = np.broadcast_to(IDENTITY2, (k, 2, 2))
        want = magnus_segment(u, x_fall, -0.5 * params.delta, 0.0, t_f, n_fall)
        budget = step_budget(np.inf)
        got = ev._falls(params, template, n_fall, theta)
        assert budget.steps == k // 2 * n_fall
        assert np.array_equal(got[: k // 2], want[: k // 2])
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_single_duration_matches_batch_row(self, params, monkeypatch):
        sizes = []
        series = ev._fall_series

        def spy(*args):
            coef = series(*args)
            sizes.append(len(coef))
            return coef

        monkeypatch.setattr(ev, "_fall_series", spy)
        template = PulseSpec(A_EDGE, DELTA, 4.0, 0.0, 4.0)
        kwargs = {"target_step": TWO_PI / DELTA / 200.0, "refine": False}  # T/200
        batch = ev.final_states_for_durations(params, template, EDGE_DURS, **kwargs)
        for i in (0, 1, 617, 1250, 2500):
            one = ev.final_states_for_durations(params, template, EDGE_DURS[i : i + 1], **kwargs)
            # the harmonic sum is one matrix product, whose rounding may
            # depend on the number of durations
            assert np.max(np.abs(one[0] - batch[i])) <= 1e-15
        # K is chosen from the pulse and the step, not from the batch
        assert len(set(sizes)) == 1 and len(sizes) == 6

    def test_phase_cap_raises(self, params, monkeypatch):
        # 1.33 GHz needs more than 16 phases (interpolation error ~2e-8 there)
        monkeypatch.setattr(ev, "FALL_PHASES_CAP", 16)
        template = PulseSpec(A_EDGE, DELTA, 1.0, 0.0, 4.0)
        spec = ev._plateau_spectrum(params, template, fq.DEFAULT_TRUNCATION)
        kwargs = {"target_step": 2e-3, "refine": False, "spectrum": spec}
        with pytest.raises(AccuracyError, match="interpolation error .* at K = 16"):
            ev.final_states_for_durations(params, template, [0.0, 1.0], **kwargs)
        # the solve keeps no table of a failed series, so a retry builds it
        assert spec.edge_tables == {}
        monkeypatch.undo()
        ev.final_states_for_durations(params, template, [0.0, 1.0], **kwargs)
        assert len(spec.edge_tables) == 2


class TestEdgeSteps:
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        amp=st.floats(TWO_PI * 0.1, TWO_PI * 4.78),
        t_rise=EDGE_TIMES,
        t_plateau=st.floats(0.0, 5.0),
        t_fall=EDGE_TIMES,
        phase=st.floats(0.0, TWO_PI),
    )
    # one t_r/50 step: 1e7 per fall, 1.5e7 for the pulse
    @example(amp=A_EDGE, t_rise=1e-5, t_plateau=1.0, t_fall=2.0, phase=0.0)
    def test_each_edge_steps_at_its_own_length(
        self, params, step_budget, amp, t_rise, t_plateau, t_fall, phase
    ):
        # each edge steps at min(T/200, its length/50) (in a scan or a train,
        # at each stepped phase of its series) and the plateau at T/200, so
        # no segment's cost depends on another's: a 1e-5 ns rise next to a
        # 2 ns fall stays within the budget, in every time-stepped driver
        durs = np.linspace(0.0, 5.0, 11)
        period_step = TWO_PI / DELTA / 200.0

        def segment_steps(p):
            """Steps of the rise, plateau and fall, as the mesh cuts them at
            the pulse's kinks (a segment that rounds away takes none)."""
            spans = np.diff([0.0, p.t_rise, p.t_rise + p.t_plateau, p.total])
            own = [min(period_step, t / 50.0) if t else period_step
                   for t in (p.t_rise, np.inf, p.t_fall)]
            return [int(ev._step_count(d, s)) if d > 0.0 else 0 for d, s in zip(spans, own)]

        def series_steps(t_edge):
            """Steps of the edge series of one edge: K stepped phases of the
            2K, each stepping the edge once."""
            if not t_edge:
                return 0
            step = min(period_step, t_edge / 50.0)
            k = len(ev._fall_series(params, PulseSpec(amp, DELTA, 0.0, 0.0, t_edge), step)) // 2
            return k * int(ev._step_count(t_edge, step))

        # a scan, like a train family, steps one edge series per distinct edge
        rise, fall = series_steps(t_rise), series_steps(t_fall)
        family = rise + (fall if t_fall != t_rise else 0)
        if t_fall:  # the same steps for each stepped phase: half the series' 2K >= 32
            n_fall = ev._step_count(t_fall, min(period_step, t_fall / 50.0))
            assert fall % n_fall == 0 and fall // n_fall >= ev.FALL_PHASES_START
        budget = step_budget(400_000)
        states = ev.final_states_for_durations(
            params, PulseSpec(amp, DELTA, t_rise, 0.0, t_fall, phase), durs, refine=False
        )
        assert np.max(np.abs(np.linalg.norm(states, axis=-1) - 1.0)) <= 1e-9
        assert budget.steps == family

        pulse = PulseSpec(amp, DELTA, t_rise, t_plateau, t_fall, phase)
        mirror = PulseSpec(amp, DELTA, t_fall, t_plateau, t_rise, phase)
        n = segment_steps(pulse)
        budget = step_budget(200_000)
        ev.propagate(params, pulse, sample_dt=pulse.total or 1.0, refine=False)
        assert budget.steps == sum(n)
        budget = step_budget(200_000)
        ev.evolve_interval(params, pulse, t_rise, pulse.total)
        assert budget.steps == n[1] + n[2]
        # a train steps only edge series, one per distinct edge of each
        # family; the mirror is a second family unless its edges are equal
        budget = step_budget(400_000)
        ev.propagate_train(params, [pulse, mirror])
        assert budget.steps == (1 if t_rise == t_fall else 2) * family

    def test_short_rise_pulse_step_counts(self, params, step_budget):
        # rise steps of 1e-5 / 50 ns: the whole pulse at that step would be
        # 15,000,050 steps, and its 2 ns fall alone 10,000,000
        pulse = PulseSpec(A_EDGE, DELTA, 1e-5, 1.0, 2.0)
        budget = step_budget(200_000)
        ev.propagate(params, pulse, sample_dt=pulse.total, refine=False)
        assert budget.steps == 50 + 458 + 916
        budget = step_budget(200_000)
        edge_transition_unitary(params, pulse, "fall")
        assert budget.steps == 916

    def test_interval_outside_the_pulse_takes_one_step(self, params, step_budget):
        # the drive is 0 outside [0, total], where one Magnus step is exact:
        # at the fall's 1e-5 / 50 ns step the 10 ns tail alone would take
        # 50,000,000 steps
        pulse = PulseSpec(A_EDGE, DELTA, 0.5, 1.0, 1e-5)
        budget = step_budget(10_000)
        inside = ev.evolve_interval(params, pulse, 0.0, pulse.total)
        assert budget.steps == 737
        budget = step_budget(10_000)
        got = ev.evolve_interval(params, pulse, -3.0, pulse.total + 10.0)
        assert budget.steps == 1 + 737 + 1

        def free(t):  # exp(+i Delta t / 2 sigma_z)
            return np.diag(np.exp(0.5j * params.delta * t * np.array([1.0, -1.0])))

        assert np.max(np.abs(got - free(10.0) @ inside @ free(3.0))) <= 1e-13


def _serial_train(params, pulses, initial=None, *, target_step=None):
    """Reference train: one serial mesh over the whole train in absolute
    time, each interval between kinks driven by the pulse it lies in and
    stepped at its segment's step: min(T/200, edge/50) on an edge, T/200 on
    a plateau or sharp edge, or ``target_step``."""
    psi = (StateVector.ground() if initial is None else initial).as_array()
    return _serial_unitary(params, tuple(pulses), target_step) @ psi


@functools.cache
def _serial_unitary(params, pulses, target_step):
    """The propagator of ``_serial_train``, stepped once per train and step
    for all the initial states it is applied to."""
    starts = np.concatenate([[0.0], np.cumsum([p.total for p in pulses])])
    seg_starts, seg_steps = [], []
    for p, s in zip(pulses, starts):
        period_step = TWO_PI / p.carrier / 200.0
        for t0, length, edge in [
            (0.0, p.t_rise, True), (p.t_rise, p.t_plateau, False),
            (p.t_rise + p.t_plateau, p.t_fall, True),
        ]:
            own = min(period_step, length / 50.0) if edge and length > 0.0 else period_step
            seg_starts.append(s + t0)
            seg_steps.append(own if target_step is None else target_step)
    cuts = np.unique(np.append(seg_starts, starts[-1]))

    def drive(p, start):
        return lambda t: envelope(p, t - start, allow_outside=True) * np.cos(
            p.carrier * t + p.carrier_phase
        )

    drives = [drive(p, s) for p, s in zip(pulses, starts)]

    def pulse_of(t):
        return np.searchsorted(starts, t, side="right") - 1

    def x_of_t(t):
        return np.piecewise(t, [pulse_of(t) == k for k in range(len(drives))], drives)

    # a zero-length segment starts where the next one does: side="right"
    # picks the next
    step = np.asarray(seg_steps)[np.searchsorted(seg_starts, cuts[:-1], side="right") - 1]
    span = np.diff(cuts)
    n = np.maximum(1, np.ceil(np.round(span / step, 9)).astype(int))
    lo = np.concatenate([a + d / k * np.arange(k) for a, d, k in zip(cuts[:-1], span, n)])
    h = np.repeat(span / n, n)
    return magnus_path(IDENTITY2, x_of_t, -0.5 * params.delta, lo, h, [len(lo)])[0]


CAL_T_P = 1.7224584351438186  # the calibrated pi/2 plateau at the default device
CAL_X = PulseSpec(PREROTATION_AMPLITUDE, DELTA, PREROTATION_EDGE, CAL_T_P, PREROTATION_EDGE)
CAL_Y = dataclasses.replace(CAL_X, carrier_phase=-1.5667)
MIXED_TRAIN = [
    CAL_X,
    PulseSpec(TWO_PI * 0.4, DELTA, 0.0, 0.7, 0.3, 0.5),  # second amplitude, sharp rise
    dataclasses.replace(CAL_X, amplitude_max=0.0),  # the `id` wait
    PulseSpec(PREROTATION_AMPLITUDE, TWO_PI * 2.05, 0.17, 0.53, 0.17, 0.7),  # second carrier
    PulseSpec(TWO_PI * 0.4, DELTA, carrier_phase=0.3),  # zero total length
    CAL_Y,
    CAL_X,
]
# The oracle meshes in absolute time, the trains in pulse-local time; a span
# that is an exact multiple of the step (0.3 ns at 3 ps) gets the same step
# count in both.
TRAIN_CASES = [  # (id, pulses, target_step)
    ("angle n=5", [CAL_X] * 11, None),
    ("axis n=5", [CAL_X] + [CAL_Y, CAL_Y, CAL_X, CAL_X] * 5 + [CAL_Y], None),
    ("mixed", MIXED_TRAIN, None),
    ("mixed, explicit step", MIXED_TRAIN, 2.9e-3),
    ("mixed, step tie", MIXED_TRAIN, 3e-3),
]


class TestPulseTrain:
    @pytest.mark.parametrize(
        "pulses, target_step", [c[1:] for c in TRAIN_CASES], ids=[c[0] for c in TRAIN_CASES]
    )
    @pytest.mark.parametrize("initial", [StateVector.ground(), StateVector.minus_y()])
    def test_matches_serial_train(self, params, pulses, target_step, initial):
        # The algebra steps the edge series alone and sums the plateaus
        # exactly; the oracle steps every segment.  At fine steps both errors
        # are small (measured <= 4.2e-13 apart); at the case's own steps the
        # difference is the algebra's edge step error (measured <= 1.8e-9).
        def gap(step, oracle_step):
            got = ev.propagate_train(params, pulses, initial, target_step=step).as_array()
            return np.max(np.abs(got - _serial_train(params, pulses, initial,
                                                     target_step=oracle_step)))

        assert gap(2.5e-4, 1.25e-4) <= 1e-11
        assert gap(target_step, 2.5e-4) <= 5e-9

    @pytest.mark.parametrize("amp_ghz", [0.13, 1.33, 4.78])
    @pytest.mark.parametrize("t_r", [0.2, 0.5, 1.0])
    def test_rise_is_a_transposed_fall(self, params, amp_ghz, t_r):
        # the rise envelope is the fall's run backwards, and a real H run
        # backwards gives the transposed propagator: R(theta) =
        # F_{t_r}(-phi)^T, phi = theta + w t_r, on the same mesh step for
        # step.  The table is real, so the rise-dressed start W_r(-phi)^T =
        # B(phi)^dag R(theta).
        pulse = PulseSpec(TWO_PI * amp_ghz, DELTA, t_r, 0.0, 0.0)
        steps = ev._pulse_steps(pulse)
        theta = 0.3 + TWO_PI * np.arange(7) / 7
        phi = theta + DELTA * t_r
        rise = np.stack([
            ev._mesh_propagators(params, dataclasses.replace(pulse, carrier_phase=th),
                                 [0.0, t_r], steps)[-1]
            for th in theta
        ])
        spec = ev._plateau_spectrum(params, pulse, fq.DEFAULT_TRUNCATION)
        want = spec.states_at(0.0, phi).conj().swapaxes(-1, -2) @ rise
        got = spec.states_at(0.0, -phi, ev._edge_rows(spec, t_r, steps[0])).swapaxes(-1, -2)
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_near_degenerate_plateau_steps_its_pulses(self, params):
        # at w = Delta and A = 1e-9 Delta the plateau basis fails its
        # unitarity gate, so the family's pulses are Magnus-stepped
        pulses = [PulseSpec(1e-9 * DELTA, DELTA, 0.2, 1.3, 0.2),
                  PulseSpec(1e-9 * DELTA, DELTA, 0.2, 0.4, 0.2, 0.7)]
        with pytest.raises(AccuracyError, match="near-degenerate"):
            ev._plateau_spectrum(params, pulses[0], fq.DEFAULT_TRUNCATION).states_at(0.0)
        got = ev.propagate_train(params, pulses, StateVector.minus_y()).as_array()
        want = _serial_train(params, pulses, StateVector.minus_y())
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_edge_series_over_the_cap_steps_its_pulses(self, params, monkeypatch):
        # 1.33 GHz over a 1 ns edge needs more than 16 phases
        monkeypatch.setattr(ev, "FALL_PHASES_CAP", 16)
        pulses = [PulseSpec(A_EDGE, DELTA, 1.0, 0.6, 1.0), PulseSpec(A_EDGE, DELTA, 1.0, 0.2, 1.0)]
        with pytest.raises(AccuracyError, match="at K = 16"):
            ev._fall_series(params, pulses[0], ev._pulse_steps(pulses[0])[2])
        got = ev.propagate_train(params, pulses).as_array()
        assert np.max(np.abs(got - _serial_train(params, pulses))) <= 1e-12

    def test_shared_families_give_the_same_bits(self, params):
        families = {}
        for pulses, target_step in [c[1:] for c in TRAIN_CASES]:
            own = ev.propagate_train(params, pulses, target_step=target_step)
            shared = ev.propagate_train(params, pulses, target_step=target_step,
                                        families=families)
            assert own == shared
        # one family per amplitude, carrier, pair of edges and step rule: the
        # mixed train's five under each of three steps, which the
        # calibration trains share
        assert len(families) == 15


class TestMesh:
    def test_step_count_does_not_depend_on_where_the_interval_sits(self, params, monkeypatch):
        # 0.3 ns at 3 ps is 100 steps, but from t0 = 1.7 the span's ratio to
        # the step rounds to 100.00000000000001
        counts = []
        path = ev.magnus_path

        def spy(u, x_of_t, hz, lo, h, keep):
            counts.append(len(lo))
            return path(u, x_of_t, hz, lo, h, keep)

        monkeypatch.setattr(ev, "magnus_path", spy)
        pulse = PulseSpec(TWO_PI * 0.4, DELTA, 0.0, 10.0, 0.0)  # no kink in (0, 10)
        for t0 in (0.0, 1.7, CAL_X.total):
            ev._mesh_propagators(params, pulse, [t0, t0 + 0.3], np.full(3, 3e-3))
        assert counts == [100, 100, 100]

    def test_each_interval_steps_at_its_segments_step(self, params, monkeypatch):
        # sample times cut the plateau and the fall; every piece takes the
        # step of the segment it starts in, a kink starting the next segment
        pulse = PulseSpec(TWO_PI * 0.4, DELTA, 0.5, 1.0, 2.0)
        steps = np.array([1e-2, 2e-2, 4e-2])
        spans = []
        path = ev.magnus_path

        def spy(u, x_of_t, hz, lo, h, keep):
            spans.append(np.asarray(np.broadcast_to(h, lo.shape)))
            return path(u, x_of_t, hz, lo, h, keep)

        monkeypatch.setattr(ev, "magnus_path", spy)
        ev._mesh_propagators(params, pulse, [0.0, 1.0, 2.5, 3.5], steps)
        (h,) = spans
        want = np.repeat(steps[[0, 1, 1, 2, 2]], [50, 25, 25, 25, 25])
        assert np.array_equal(h, want)  # each span / count is exactly its step here


# ---------------------------------------------------------------------------
# Floquet-frame analysis: oracles of the adiabatic and sudden edge limits
# ---------------------------------------------------------------------------

#: Quasienergy splitting below which the Floquet basis is treated as
#: degenerate (rad/ns).
DEGENERACY_TOL = 1e-9


class BasisDegeneracyError(SimulationError):
    """Quasienergy basis is ill-defined (degenerate branches at finite drive)."""


def floquet_frame_decompose(state, spectrum, t):
    """Amplitudes (c0, c1) of ``state`` on the instantaneous quasienergy
    states at time t."""
    if spectrum.delta_eps < DEGENERACY_TOL and not spectrum.limit_convention:
        raise BasisDegeneracyError("quasienergy branches degenerate; Floquet basis ill-defined")
    return spectrum.states_at(t).conj().T @ state.as_array()


def branch_interpolants(delta, omega, amp_max, n_grid=101):
    """(eps0(A), eps1(A)) interpolants from the sector solve on a uniform
    n_grid-point amplitude grid from 0 to amp_max, and the solves."""
    amps = np.linspace(0.0, max(amp_max, 1e-12), n_grid)
    specs = fq.quasienergy_sweep(delta, omega, amps)
    e0 = np.array([s.eps0 for s in specs])
    e1 = np.array([s.eps1 for s in specs])
    return (lambda a: np.interp(a, amps, e0), lambda a: np.interp(a, amps, e1), specs)


def delta_eps_integral(pulse, eps_fn, t0, t1, n=2001):
    """Simpson quadrature of eps_fn(A(t)) over [t0, t1], n odd."""
    t = np.linspace(t0, t1, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((t1 - t0) / (n - 1) / 3.0 * np.sum(w * eps_fn(envelope(pulse, t))))


def edge_transition_unitary(params, pulse, edge):
    """Map between Floquet bases across a pulse edge, dynamical phase removed.

    For the rise: from the A = 0 basis at the pulse start to the basis at
    A_m when the plateau begins.  For the fall: from the A_m basis at the
    plateau end back to the A = 0 basis.  The branch dynamical phases
    exp(-i Int eps_j(A(t)) dt) across the edge are divided out, so an
    adiabatic edge yields a diagonal (phase-only) matrix.
    """
    if edge not in ("rise", "fall"):
        raise ValueError("edge must be 'rise' or 'fall'")
    am = pulse.amplitude_max
    if edge == "rise":
        t0, t1, a_from, a_to = 0.0, pulse.t_rise, 0.0, am
    else:
        t0, t1, a_from, a_to = pulse.t_rise + pulse.t_plateau, pulse.total, am, 0.0
    f0, f1, specs = branch_interpolants(params.delta, pulse.carrier, am)
    spec_zero, spec_full = specs[0], specs[-1]  # the grid ends at amplitude_max
    if am > 0.0 and spec_full.delta_eps < DEGENERACY_TOL:
        raise BasisDegeneracyError("degenerate quasienergies at the plateau amplitude")
    p_from = (spec_zero if a_from == 0.0 else spec_full).states_at(t0, pulse.carrier_phase)
    p_to = (spec_zero if a_to == 0.0 else spec_full).states_at(t1, pulse.carrier_phase)
    u_lab = ev.evolve_interval(params, pulse, t0, t1)
    phases = [delta_eps_integral(pulse, f, t0, t1) for f in (f0, f1)]
    w = np.exp(1j * np.array(phases))[:, None] * (p_to.conj().T @ u_lab @ p_from)
    defect = unitarity_defect(w[None, ...])
    if defect > 1e-8:
        raise AccuracyError(f"edge transition unitarity defect {defect:.2e}")
    return w


class TestFloquetFrame:
    def test_ground_state_equal_weights(self, params):
        spec = fq.quasienergy_sweep(DELTA, DELTA, [0.0])[0]
        c0, c1 = floquet_frame_decompose(StateVector.ground(), spec, 0.0)
        assert abs(c0) == pytest.approx(1 / np.sqrt(2), abs=1e-9)
        assert abs(c1) == pytest.approx(1 / np.sqrt(2), abs=1e-9)
        assert abs(c0) ** 2 + abs(c1) ** 2 == pytest.approx(1.0, abs=1e-8)

    def test_basis_vector_projects_to_unity(self, params):
        spec = fq.quasienergy_sweep(DELTA, DELTA, [TWO_PI * 1.33])[0]
        u0 = spec.states_at(0.37)[:, 0]
        c0, c1 = floquet_frame_decompose(StateVector.from_array(u0), spec, 0.37)
        assert abs(c0) == pytest.approx(1.0, abs=1e-9)
        assert abs(c1) == pytest.approx(0.0, abs=1e-9)

    def test_truncation_defect_raises(self, params):
        spec = fq.quasienergy_sweep(DELTA, DELTA, [TWO_PI * 4.78], 10)[0]
        with pytest.raises(AccuracyError, match="truncation_n"):
            floquet_frame_decompose(StateVector.ground(), spec, 0.37)

    def test_degenerate_basis_raises(self, params):
        spec = fq.FloquetSpectrum(
            eps0=-1.0, eps1=-1.0 + 1e-12,
            table=np.zeros((3, 2, 2)),
            delta=DELTA, amp=1.0, omega=DELTA, truncation_n=1,
        )
        with pytest.raises(BasisDegeneracyError):
            floquet_frame_decompose(StateVector.ground(), spec, 0.0)

    def test_adiabatic_plateau_preserves_weights(self, params):
        amp = TWO_PI * 1.33
        pulse = PulseSpec(amp, DELTA, 10.0, 6.0, 10.0)
        spec = fq.quasienergy_sweep(DELTA, DELTA, [amp])[0]
        traj = ev.propagate(params, pulse, sample_dt=0.5, target_step=2e-3,
                            refine=False)
        on_plateau = (traj.times >= pulse.t_rise) & (
            traj.times <= pulse.t_rise + pulse.t_plateau
        )
        for t, psi in zip(traj.times[on_plateau], traj.states[on_plateau]):
            c0, c1 = floquet_frame_decompose(StateVector.from_array(psi), spec, t)
            assert abs(abs(c0) - 1 / np.sqrt(2)) < 0.02
            assert abs(abs(c1) - 1 / np.sqrt(2)) < 0.02

    def test_adiabatic_rotation_angle_law(self, params):
        # P1_final = sin^2(alpha) with alpha = (1/2) Int delta_eps dt
        amp = TWO_PI * 1.0
        pulse = PulseSpec(amp, DELTA, 8.0, 0.35, 8.0)
        f0, f1, _ = branch_interpolants(DELTA, DELTA, amp)
        alpha = 0.5 * delta_eps_integral(
            pulse, lambda a: f1(a) - f0(a), 0.0, pulse.total
        )
        traj = ev.propagate(params, pulse, sample_dt=pulse.total)
        want = np.sin(alpha) ** 2
        assert traj.p1[-1] == pytest.approx(want, abs=0.02 * max(want, 0.1))


class TestEdgeTransition:
    def test_adiabatic_rise_nearly_diagonal(self, params):
        pulse = PulseSpec(TWO_PI * 1.33, DELTA, 20.0, 1.0, 0.0)
        w = edge_transition_unitary(params, pulse, "rise")
        assert abs(w[0, 1]) < 0.05 and abs(w[1, 0]) < 0.05

    def test_sudden_rise_mixes(self, params):
        pulse = PulseSpec(TWO_PI * 1.33, DELTA, 0.0, 1.0, 0.0)
        w = edge_transition_unitary(params, pulse, "rise")
        assert abs(w[0, 1]) > 0.02

    def test_zero_amplitude_identity(self, params):
        pulse = PulseSpec(0.0, DELTA, 5.0, 1.0, 0.0)
        w = edge_transition_unitary(params, pulse, "rise")
        assert np.max(np.abs(w - np.eye(2))) < 1e-9

    def test_fall_edge_unitary(self, params):
        pulse = PulseSpec(TWO_PI * 1.33, DELTA, 0.0, 1.0, 12.0)
        w = edge_transition_unitary(params, pulse, "fall")
        assert np.max(np.abs(w.conj().T @ w - np.eye(2))) < 1e-8
        assert abs(w[0, 1]) < 0.08

    def test_bad_edge_name(self, params):
        pulse = PulseSpec(TWO_PI * 1.0, DELTA, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            edge_transition_unitary(params, pulse, "middle")


class TestAsymmetry:
    def test_fall_rise_asymmetry(self, params):
        from strongdrive import spectral

        amp = TWO_PI * 1.33
        de = fq.quasienergy_sweep(DELTA, DELTA, [amp])[0].delta_eps
        durs = np.arange(0.0, 20.0, 0.01)

        def fast(t_r, t_f):
            template = PulseSpec(amp, DELTA, t_r, 0.0, t_f)
            p1 = ev.sweep_pulse_duration(
                params, template, durs, target_step=1.5e-3, refine=False
            )
            return spectral.fast_component_amplitudes(durs, p1, DELTA, de)

        slow_rise = fast(4.0, 0.0)  # fast components present
        slow_fall = fast(0.0, 4.0)  # suppressed
        assert np.hypot(*slow_rise) > 5.0 * np.hypot(*slow_fall)


class TestStatePrep:
    def test_coarse_scan_over_the_cap_raises_before_any_work(self, params, monkeypatch):
        monkeypatch.setattr(ev, "_plateau_spectrum", None)  # a solve would fail
        with pytest.raises(ValueError, match=r"more than 4096; .*\[stateprep\] amplitude_ghz"):
            ev.prepare_state(params, StateVector.excited(), TWO_PI * 1e-6, 0.02)

    def test_ground_target_zero_pulse(self, params):
        pulse, fid, _ = ev.prepare_state(params, StateVector.ground(), TWO_PI * 0.46, 0.0)
        assert fid == pytest.approx(1.0, abs=1e-6)
        assert pulse.total < 0.1

    @pytest.mark.parametrize("target", [StateVector.minus_y(), StateVector.excited()])
    def test_phase_scans_match_per_phase_sweeps_bitwise(self, params, target, monkeypatch):
        scans, series = [], []
        batch, fall_series = ev._duration_batch_states, ev._fall_series

        def batch_spy(params, template, durs, phases, spectrum, psi0, steps):
            states = batch(params, template, durs, phases, spectrum, psi0, steps)
            scans.append((template, durs, phases, states))
            return states

        def series_spy(*args):
            series.append(args)
            return fall_series(*args)

        monkeypatch.setattr(ev, "_duration_batch_states", batch_spy)
        monkeypatch.setattr(ev, "_fall_series", series_spy)
        pulse, fid, _ = ev.prepare_state(params, target, TWO_PI * 0.46, 0.02)
        # both scans share one series, both edges' (equal edges at equal steps)
        assert len(scans) == 2 and len(series) == 1
        monkeypatch.undo()

        tgt = target.as_array()
        picks = []
        for template, durs, phases, got in scans:
            step = ev._pulse_steps(template)
            assert step[0] == step[2]  # equal edges: one target_step gives both
            best = (-1.0, None, None)  # the per-phase loop's rule
            for phi, got_phi in zip(phases, got):
                one = dataclasses.replace(template, carrier_phase=phi)
                states = ev.final_states_for_durations(
                    params, one, durs, refine=False, target_step=step[0]
                )
                assert np.array_equal(got_phi, states)
                f = np.abs(states @ tgt.conj())
                i = int(np.argmax(f))
                if f[i] > best[0]:
                    best = (float(f[i]), float(durs[i]), float(phi))
            picks.append(best)

        (_, d_c, p_c), (f_b, d_b, p_b) = picks
        assert np.array_equal(scans[1][1], np.arange(max(0.0, d_c - 0.006), d_c + 0.006, 0.0005))
        assert np.array_equal(scans[1][2], p_c + np.linspace(-0.15, 0.15, 31))
        # the phase is reported mod the target's period: pi on the z axis
        period = np.pi if tgt[0] * tgt[1] == 0.0 else TWO_PI
        assert (fid, pulse.t_plateau, pulse.carrier_phase) == (f_b, d_b, p_b % period)

    def test_scan_tie_goes_to_first_phase_then_duration(self, params, monkeypatch):
        # the per-phase loop kept the first strictly greater fidelity
        grids = []

        def tied(params, template, durs, phases, spectrum, psi0, steps):
            grids.append((durs, phases))
            states = np.zeros((len(phases), len(durs), 2), dtype=complex)
            states[0, 5, 1] = states[1, 2, 1] = 1.0  # |1> at both
            return states

        monkeypatch.setattr(ev, "_duration_batch_states", tied)
        pulse, fid, _ = ev.prepare_state(params, StateVector.excited(), TWO_PI * 0.46, 0.02)
        durs, phases = grids[1]
        assert (fid, pulse.t_plateau, pulse.carrier_phase) == (1.0, durs[5], phases[0] % np.pi)

    @staticmethod
    def _hide_phases_below_pi(monkeypatch):
        batch = ev._duration_batch_states

        def upper_half(params, template, durs, phases, spectrum, psi0, steps):
            states = batch(params, template, durs, phases, spectrum, psi0, steps)
            states[np.mod(phases, TWO_PI) < np.pi] = 0.0
            return states

        monkeypatch.setattr(ev, "_duration_batch_states", upper_half)

    @pytest.mark.parametrize("target", [StateVector.excited(), StateVector.ground()])
    def test_z_axis_target_reports_the_same_phase_when_phi_plus_pi_wins(
        self, params, target, monkeypatch
    ):
        # sigma_z U(phi + pi) sigma_z = U(phi): with the phases below pi
        # hidden, the twin phi + pi of the free scan's winner wins instead,
        # and its state, scanned at phi + pi, is sigma_z-flipped back
        free, fid, state = ev.prepare_state(params, target, TWO_PI * 0.46, 0.02)
        self._hide_phases_below_pi(monkeypatch)
        twin, twin_fid, twin_state = ev.prepare_state(params, target, TWO_PI * 0.46, 0.02)
        assert 0.0 <= free.carrier_phase < np.pi and 0.0 <= twin.carrier_phase < np.pi
        assert twin.carrier_phase == pytest.approx(free.carrier_phase, abs=1e-12)
        assert twin.t_plateau == free.t_plateau
        assert twin_fid == pytest.approx(fid, abs=1e-12)
        assert np.max(np.abs(twin_state.as_array() - state.as_array())) <= 1e-12

    def test_off_axis_target_keeps_the_full_phase_circle(self, params, monkeypatch):
        self._hide_phases_below_pi(monkeypatch)
        pulse, _, _ = ev.prepare_state(params, StateVector.minus_y(), TWO_PI * 0.46, 0.02)
        assert np.pi <= pulse.carrier_phase < TWO_PI

    def test_excited_target_near_quoted_point(self, params):
        pulse, fid, _ = ev.prepare_state(params, StateVector.excited(), TWO_PI * 0.46, 0.02)
        assert fid >= 0.9976 - 0.001
        assert abs(pulse.total - 1.08) < 0.05

    @pytest.mark.parametrize(
        "target", [StateVector.minus_y(), StateVector.excited(), StateVector.ground()]
    )
    def test_returned_state_is_the_stepped_pulse(self, params, target):
        # the state the Floquet-composed scan scored against the time-stepped
        # propagation of the pulse reported for it
        pulse, fid, state = ev.prepare_state(params, target, TWO_PI * 0.46, 0.02)
        final = ev.propagate(params, pulse, sample_dt=max(pulse.total, 1e-3)).states[-1]
        assert np.max(np.abs(state.as_array() - final)) <= 1e-9
        assert abs(np.vdot(target.as_array(), state.as_array())) == pytest.approx(fid, abs=1e-15)
