"""Pulse-level propagation: Magnus-stepped pulses and Floquet sums.

Time steps run through one pipeline of exactly unitary 2x2 steps: mesh ->
step unitaries -> blocked reduce/scan -> gather.  ``_mesh_propagators`` cuts
a pulse's span at the sample times and envelope kinks, so no step straddles
a kink, steps each piece at the step of its segment, and
``_magnus.magnus_path`` does the rest.  ``_pulse_steps`` is the one step
rule: min(T/200, t_edge/50) on each edge, T/200 on the plateau, so no
segment's length sets another's step.

A constant-amplitude drive takes no step: the Floquet expansion psi(t) =
sum_j c_j e^{-i eps_j t} u_j(t) (Shirley, Phys. Rev. 138, B979 (1965)) sums
it, and every pulse is that sum dressed by its edges.  An edge depends on
the plateau only through the carrier phase theta it starts at, so it is one
series E(theta) = sum_m E_m e^{im theta} (``_fall_series``), and the basis
dressed by it, W_e(theta) = E(theta) B(theta), is one table, which a solve
builds once per distinct edge and keeps (``_edge_rows``); a sum takes each
component from its own rows (``FloquetSpectrum.components``), whose layout
only ``floquet`` reads.  The rise is a transposed fall (a real H run
backwards), R(theta) = F_{t_r}(-phi)^T with phi = theta + w t_r, and the
plain table is real, so a pulse of plateau t_p is

    U(t_p, theta) = W_f(phi + w t_p) e^{-i eps t_p} W_r(-phi)^T,

with W = B for a sharp edge: the un-enveloped drive is the pulse with both
edges sharp.  A duration scan starts the sum from W_r(-phi)^T psi0 and sums
W_f at every duration at once.  Every scan is a batch of pulse templates,
each on its own plateau solve (the amplitudes of a drive, the edge pairs of
a study), summed by one ``_duration_batch_states`` call over one e^{inwt}
table, which dies with the call; a pulse train solves each amplitude and
carrier once and evaluates the pulses of each pair of edges on that solve
as one batch of the product.  So
``target_step`` steps the edge series alone, with a time-stepped pulse as
the oracle.  Every driver runs once, at ``_pulse_steps`` or at the
caller's ``target_step``: the Magnus step's error falls as h^4, so the
step is the one accuracy control; each plateau solve sizes its own
truncation (``quasienergy_sweep``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from ._magnus import IDENTITY2, SZ_CONJ, magnus_path, magnus_segment
from .errors import AccuracyError, SimulationError
from .floquet import FloquetSpectrum, analytic_delta_epsilon, quasienergy_sweep
from .model import PulseSpec, QubitParams, StateVector, envelope
from .units import TWO_PI

#: Carrier phases an edge series starts from, the most it may use, and the
#: max-entry error its interpolant must meet between its nodes.
FALL_PHASES_START = 16
FALL_PHASES_CAP = 4096
FALL_SERIES_TOL = 1e-12

#: Most durations ``prepare_state``'s coarse scan may take; the default |1>
#: target takes 240.  The scan's peak working set is about 2 KB per
#: duration (its 24 phases' states and the harmonic table), so the cap
#: bounds it under 8 MB; the duration count grows as 1/A, and 1e-6 GHz
#: would ask for 1e8 of them.
PREP_SCAN_CAP = 4096


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times (ns), states (n, 2), P1 and Bloch components."""

    times: np.ndarray
    states: np.ndarray
    p1: np.ndarray
    bloch: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


def _states_from_unitaries(u, psi0):
    """Apply (…, 2, 2) propagators to a fixed initial state."""
    psi0 = np.asarray(psi0, dtype=complex).reshape(2)
    return u[..., :, 0] * psi0[0] + u[..., :, 1] * psi0[1]


def _bloch_components(states):
    z = np.conj(states[..., 0]) * states[..., 1]
    return np.stack(
        [2.0 * z.real, 2.0 * z.imag, np.abs(states[..., 0]) ** 2 - np.abs(states[..., 1]) ** 2],
        axis=-1,
    )


def _pulse_steps(pulse: PulseSpec, target_step: float | None = None) -> np.ndarray:
    """Steps (rise, plateau, fall) of ``pulse``: min(T/200, t_edge/50) on an
    edge, T/200 on the plateau and a sharp edge; ``target_step`` for all
    three if given, which must be finite and > 0 (else ValueError)."""
    if target_step is not None:
        if not 0.0 < target_step < np.inf:
            raise ValueError(f"target_step must be finite and > 0, got {target_step}")
        return np.full(3, float(target_step))
    period_step = TWO_PI / pulse.carrier / 200.0
    segments = np.array([pulse.t_rise, np.inf, pulse.t_fall])
    return np.where(segments > 0.0, np.minimum(period_step, segments / 50.0), period_step)


def _step_count(span, step):
    """Steps of at most ``step`` over ``span``, at least one; ratio rounded to 1e-9."""
    return np.maximum(1, np.ceil(np.round(span / step, 9)).astype(int))


def _mesh_propagators(params, pulse, times, steps):
    """Propagators of ``pulse`` from times[0] to each of the non-decreasing
    ``times``: the times and the envelope kinks between them cut the span
    into intervals of ``_step_count`` equal steps, so no step straddles a
    kink, each at the step in ``steps`` (rise, plateau, fall) of the segment
    it starts in.  An interval outside the support [0, total], where the
    drive is 0 and one step is exact, takes one step."""
    kinks = np.array([0.0, pulse.t_rise, pulse.t_rise + pulse.t_plateau, pulse.total])
    cuts = np.union1d(times, kinks[(kinks > times[0]) & (kinks < times[-1])])
    span = np.diff(cuts)
    own = np.concatenate([[np.inf], steps, [np.inf]])  # before, rise, plateau, fall, after
    n = _step_count(span, own[np.searchsorted(kinks, cuts[:-1], side="right")])
    before = np.concatenate([[0], np.cumsum(n)])
    h = np.repeat(span / n, n)
    lo = h * (np.arange(before[-1]) - np.repeat(before[:-1], n))
    lo += np.repeat(cuts[:-1], n)  # + a in place: one mesh-sized temporary fewer
    keep = before[np.searchsorted(cuts, times)]

    def x_of_t(t):
        wave = np.cos(pulse.carrier * t + pulse.carrier_phase)
        return envelope(pulse, t, allow_outside=True) * wave

    return magnus_path(IDENTITY2, x_of_t, -0.5 * params.delta, lo, h, keep)


def evolve_interval(
    params: QubitParams,
    pulse: PulseSpec,
    t0: float,
    t1: float,
    *,
    target_step: float | None = None,
) -> np.ndarray:
    """Propagator of the pulse Hamiltonian over [t0, t1] (drive = 0 outside
    the pulse support); bounds that are not finite raise ValueError."""
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got ({t0}, {t1})")
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    return _mesh_propagators(params, pulse, [t0, t1], _pulse_steps(pulse, target_step))[-1]


def propagate(
    params: QubitParams,
    pulse: PulseSpec,
    initial: StateVector | None = None,
    sample_dt: float = 0.005,
    *,
    target_step: float | None = None,
) -> Trajectory:
    """Integrate i dpsi/dt = H(t) psi over the pulse, sampled every sample_dt,
    Magnus-stepped at ``target_step`` (default: ``_pulse_steps``' rule)."""
    if not 0.0 < sample_dt < np.inf:
        raise ValueError(f"sample_dt must be finite and > 0, got {sample_dt}")
    psi0 = StateVector.ground().as_array() if initial is None else initial.as_array()

    n_samp = int(np.floor(pulse.total / sample_dt + 1e-9))
    times = np.arange(n_samp + 1) * sample_dt
    if pulse.total - times[-1] > 1e-12:
        times = np.append(times, pulse.total)

    u = _mesh_propagators(params, pulse, times, _pulse_steps(pulse, target_step))
    states = _states_from_unitaries(u, psi0)
    return Trajectory(
        times=times,
        states=states,
        p1=np.abs(states[:, 1]) ** 2,
        bloch=_bloch_components(states),
    )


# ---------------------------------------------------------------------------
# Batched scan drivers
# ---------------------------------------------------------------------------


def continuous_drive_states(
    params: QubitParams,
    amplitudes,
    omega: float,
    times,
    *,
    carrier_phase: float = 0.0,
    initial: StateVector | None = None,
):
    """States under the un-enveloped drive A cos(wt+phi) at each time.

    Batched over amplitudes; returns an array of shape (n_amp, n_time, 2).
    The Hamiltonians agree on [0, t] for each duration t, so this is the
    pulse with both edges sharp at every duration in ``times``: one sharp
    template per amplitude of one ``quasienergy_sweep``, summed by one
    ``_duration_batch_states`` call, and a time t = 0 returns ``initial``
    exactly.  A resummed t = 0 basis that is not unitary to 1e-10 raises
    AccuracyError naming the near-degenerate pair; a time or carrier phase
    that is not finite raises ValueError.
    """
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    psi0 = (StateVector.ground() if initial is None else initial).as_array()
    specs = quasienergy_sweep(params.delta, omega, amplitudes)
    sharp = [PulseSpec(s.amp, omega, carrier_phase=carrier_phase) for s in specs]
    return _duration_batch_states(sharp, np.asarray(times, dtype=float), None, specs, psi0, None)


def _harmonics(omega, times, m):
    """The table e^{inwt}, rows n = -m..m by ``times``, from its n >= 0 half:
    each row n >= 0 is exponentiated and each row n < 0 is the conjugate of
    row -n.  That is bit for bit np.exp(1j * n[:, None] * (omega * times)):
    the imaginary part of 1j n (wt) is n (wt) exactly, and cexp(+-0 + iy) =
    (cos y, sin y) with sin odd.  Every e^{inwt} table of a scan is built
    here."""
    table = np.empty((2 * m + 1, len(times)), dtype=complex)
    half = table[m:]  # the rows n >= 0, exponentiated in place
    np.multiply(1j * np.arange(m + 1)[:, None], omega * times, out=half)
    np.exp(half, out=half)
    np.conjugate(table[m + 1 :][::-1], out=table[:m])
    return table


def final_states_for_durations(
    params: QubitParams,
    pulse_template: PulseSpec,
    durations,
    *,
    initial: StateVector | None = None,
    target_step: float | None = None,
):
    """Final state of one pulse per plateau duration, batched: the same
    quantity as one independent propagation per duration.

    Only the edge series take time steps, so ``target_step`` governs them
    alone; by default each edge steps at min(T/200, its length/50).  The
    states are one Floquet sum of the plateau at carrier phase w t_r + phi,
    started from ``initial`` through the rise-dressed basis and summed over
    the fall-dressed one (``_edge_rows``); a sharp pulse of zero length
    returns ``initial`` exactly.  The plateau's sector is solved once per
    call.
    """
    durs = np.atleast_1d(np.asarray(durations, dtype=float))
    if durs.size == 0:
        raise ValueError("durations must be non-empty")
    if not np.all(np.isfinite(durs)) or np.any(durs < 0.0) or np.any(np.diff(durs) < 0.0):
        raise ValueError("durations must be finite, >= 0 and non-decreasing")
    psi0 = StateVector.ground().as_array() if initial is None else initial.as_array()
    spectrum = _plateau_spectrum(params, pulse_template)
    return _duration_batch_states([pulse_template], durs, None, [spectrum], psi0, target_step)[0]


def _plateau_spectrum(params, template):
    """The plateau's Floquet solve: one ``quasienergy_sweep`` amplitude."""
    return quasienergy_sweep(params.delta, template.carrier, [template.amplitude_max])[0]


def _duration_batch_states(templates, durs, phases, solves, psi0, target_step):
    """States from ``psi0`` of one pulse per template and plateau duration in
    ``durs``: shape (templates, durations, 2), or (templates, phases,
    durations, 2) with ``phases``, if not None, in place of each template's
    carrier phase.  Template i is a pulse at the amplitude and carrier of its
    plateau solve ``solves[i]``, all at one carrier, dressed by the
    ``_edge_rows`` of its edges at its ``_pulse_steps`` (the plain rows if
    sharp, so a sharp template is the un-enveloped drive).

    Per phase phi, the coefficients c = W_r(-phi')^T psi0, phi' = w t_r +
    phi, come from one gated ``states_at(0, -phi')`` of the rise rows for
    all phases; a phase enters as e^{in phi'} on the fall rows, and each
    component's sum over n is one matrix product per phase, stacked over
    the phases, of its own rows of the e^{inwt} table and of the fall rows
    (``FloquetSpectrum.components``).  One table (``_harmonics``), of the
    widest rows a template's fall rows span, serves every template over its
    own slice and dies with the call.  A sharp pulse of zero length returns
    ``psi0`` exactly."""
    lanes = []  # per template: solve, rise rows, fall rows, phases
    for t, s in zip(templates, solves):
        steps = _pulse_steps(t, target_step)
        rise = _edge_rows(s, t.t_rise, steps[0])
        fall = _edge_rows(s, t.t_fall, steps[2])
        phi = t.carrier * t.t_rise + np.atleast_1d(t.carrier_phase if phases is None else phases)
        lanes.append((s, rise, fall, phi))
    m = max((max(-first, first + len(w_f) - 1, 0) for _, _, (first, w_f), _ in lanes), default=0)
    table = _harmonics(solves[0].omega, durs, m) if lanes else None
    out = np.empty((len(lanes), 1 if phases is None else len(phases), len(durs), 2), dtype=complex)
    zero = np.flatnonzero(durs == 0.0)
    for o, t, (s, w_r, (first, w_f), phi) in zip(out, templates, lanes):
        h = table[m + first : m + first + len(w_f)]
        shifts = np.exp(1j * np.outer(phi, np.arange(first, first + len(w_f))))
        decay = np.exp(-1j * np.outer(durs, [s.eps0, s.eps1]))
        starts = s.states_at(0.0, -phi, w_r)
        w = w_f * shifts[..., None] * (starts.swapaxes(-1, -2) @ psi0)[:, None]
        for k, c in enumerate(s.components(first)):
            o[..., k] = np.einsum("tj,ptj->pt", decay, h[c].T @ w[:, c])
        if t.t_rise == t.t_fall == 0.0:
            o[:, zero] = psi0  # a sharp pulse of zero length is the identity
    return out if phases is not None else out[:, 0]


def _falls(params, template, n_fall, theta):
    """Fall propagators under env(s) cos(omega s + theta), local time s in
    [0, t_f], in ``n_fall`` steps, for an even number of phases ``theta``
    whose second half is the first half plus pi.  Only the first half is
    stepped: sigma_z H(x) sigma_z = H(-x), so F(theta + pi) = sigma_z
    F(theta) sigma_z."""
    assert len(theta) % 2 == 0, "fall phases come in pairs theta, theta + pi"
    am, omega, t_f = template.amplitude_max, template.carrier, template.t_fall
    half = theta[: len(theta) // 2]

    def x_fall(s):
        env = 0.5 * am * (1.0 + np.cos(np.pi * s / t_f))
        return env[None, :] * np.cos(omega * s[None, :] + half[:, None])

    u = np.broadcast_to(IDENTITY2, (len(half), 2, 2))
    u = magnus_segment(u, x_fall, -0.5 * params.delta, 0.0, t_f, n_fall)
    return np.concatenate([u, u * SZ_CONJ])


def _fall_series(params, template, step):
    """Harmonics F_m, m = -K..K in order, of the fall propagator as a
    function of its starting carrier phase: F(theta) = sum_m F_m e^{im theta}.

    The fall's Hamiltonian is linear in e^{+-i theta}, so its coefficients
    decay like the Floquet sideband weights.  K doubles from
    ``FALL_PHASES_START`` until the K-point trigonometric interpolant
    reproduces the falls computed at the K phases midway between its nodes
    to ``FALL_SERIES_TOL`` in max entry; the series returned interpolates
    all 2K computed falls, its Nyquist term split evenly between m = -K and
    m = K.  Every K is even, so each set of phases holds theta + pi with
    theta and ``_falls`` steps half of it.  K depends on the pulse and the
    step alone, never on the durations asked for.  Failing the check at
    ``FALL_PHASES_CAP`` raises AccuracyError.  A sharp fall has no series:
    None.
    """
    if template.t_fall == 0.0:
        return None
    n_fall = int(_step_count(template.t_fall, step))
    k = FALL_PHASES_START
    nodes = _falls(params, template, n_fall, TWO_PI * np.arange(k) / k)
    while True:
        mids = _falls(params, template, n_fall, TWO_PI * (np.arange(k) + 0.5) / k)
        shift = np.exp(1j * np.pi * np.fft.fftfreq(k))
        shift[k // 2] = 0.0  # the Nyquist term goes as cos(K theta / 2): 0 at the midpoints
        guess = np.fft.ifft(np.fft.fft(nodes, axis=0) * shift[:, None, None], axis=0)
        err = float(np.max(np.abs(guess - mids)))
        both = np.stack([nodes, mids], axis=1).reshape(2 * k, 2, 2)
        if err <= FALL_SERIES_TOL:
            coef = np.fft.fftshift(np.fft.fft(both, axis=0) / (2 * k), axes=0)
            coef = np.concatenate([coef, coef[:1]])  # m = -K..K
            coef[[0, -1]] *= 0.5
            return coef
        if k >= FALL_PHASES_CAP:
            raise AccuracyError(
                f"fall phase series: interpolation error {err:.2e} at K = {k} phases "
                f"exceeds {FALL_SERIES_TOL:.0e}"
            )
        nodes, k = both, 2 * k


def _edge_rows(spectrum, t_edge, step):
    """``spectrum.edge_rows`` of the ``_fall_series`` of an edge of length
    ``t_edge`` at ``step`` (the plain rows if sharp), built once per solve
    into its ``edge_tables``: the series is a fall at the solve's own (Delta,
    A, omega), so (t_edge, step) fixes it, and a rise, a transposed fall,
    shares it.  A series that raises is not kept."""
    tables = spectrum.edge_tables
    if (t_edge, step) not in tables:
        fall = PulseSpec(spectrum.amp, spectrum.omega, t_fall=t_edge)
        series = _fall_series(QubitParams(spectrum.delta), fall, step)
        tables[t_edge, step] = spectrum.edge_rows(series)
    return tables[t_edge, step]


def sweep_pulse_duration(
    params: QubitParams,
    pulse_template: PulseSpec,
    durations,
    *,
    shots: int | None = None,
    seed: int | None = None,
    target_step: float | None = None,
):
    """Final-state P1 for one pulse per plateau duration.

    With ``shots`` set, also draws binomial(shots, P1) counts per duration
    from independent per-point streams split off the master seed, so results
    do not depend on evaluation order.
    """
    states = final_states_for_durations(params, pulse_template, durations, target_step=target_step)
    p1 = np.abs(states[:, 1]) ** 2
    if shots is None:
        return p1
    seqs = np.random.SeedSequence(seed).spawn(len(p1))
    counts = np.array(
        [np.random.default_rng(s).binomial(shots, p) for s, p in zip(seqs, np.clip(p1, 0.0, 1.0))]
    )
    return p1, counts


# ---------------------------------------------------------------------------
# Pulse trains (calibration sequences)
# ---------------------------------------------------------------------------


def _pulse_unitaries(params, spectrum, shape, t_p, theta, steps):
    """Propagators, shape (len(t_p), 2, 2), of the pulses of ``shape``'s
    amplitude, carrier and edges with plateaus ``t_p``, starting in local
    time at carrier phases ``theta``:

        U = W_f(phi + w t_p) e^{-i eps t_p} W_r(-phi)^T,  phi = theta + w t_r,

    from the plateau's Floquet solve ``spectrum`` (Shirley 1965) and its
    bases dressed by the edges at ``steps`` (``_edge_rows``).  A failed solve
    (None), an edge series that fails at ``FALL_PHASES_CAP``, or a dressed
    basis that fails its unitarity gate (a near-degenerate plateau) leaves
    the pulses to ``_mesh_propagators``, stepped as ``propagate`` steps them.
    """
    w = shape.carrier
    phi = theta + w * shape.t_rise
    if spectrum is not None:
        try:
            end = spectrum.states_at(
                0.0, phi + w * t_p, _edge_rows(spectrum, shape.t_fall, steps[2])
            )
            start = spectrum.states_at(0.0, -phi, _edge_rows(spectrum, shape.t_rise, steps[0]))
        except SimulationError:  # a series over the cap or a near-degenerate plateau
            pass
        else:
            decay = np.exp(-1j * np.multiply.outer(t_p, [spectrum.eps0, spectrum.eps1]))
            return end @ (decay[..., None] * start.swapaxes(-1, -2))
    pulses = [replace(shape, t_plateau=t, carrier_phase=th) for t, th in zip(t_p, theta)]
    return np.stack([_mesh_propagators(params, p, [0.0, p.total], steps)[-1] for p in pulses])


def propagate_train(
    params: QubitParams,
    pulses,
    initial: StateVector | None = None,
    *,
    target_step: float | None = None,
    spectrum: FloquetSpectrum | None = None,
) -> StateVector:
    """Apply back-to-back pulses with a phase-coherent carrier.

    Pulse k starting at absolute time t_k contributes
    env_k(t - t_k) * cos(omega t + phi_k): envelopes shift, the carrier runs
    in absolute time, so equal-phase pulses share a rotation axis regardless
    of their start times.  In local time s that is env_k(s) cos(omega s +
    theta_k), theta_k = omega t_k + phi_k.  The pulses of one amplitude and
    carrier share one plateau solve, whose tables keep each distinct edge
    (``_edge_rows``); those of one pair of edges on it are one batch over
    (t_p, theta_k) (``_pulse_unitaries``), and the 2x2 propagators are
    composed in time order.  ``target_step`` (default: each edge at
    min(T/200, its length/50)) steps the edge series alone; the plateau
    takes no step.  ``spectrum``, a solve at this Delta (else ValueError)
    passed to several calls (a calibration's root search), serves the pulses
    of its amplitude and carrier, so its edges are built once for all of
    them.
    """
    psi = (StateVector.ground() if initial is None else initial).as_array()
    starts = np.concatenate([[0.0], np.cumsum([p.total for p in pulses])])
    solves = {}  # (amplitude, carrier) -> the plateau's solve, None if it failed
    if spectrum is not None:  # serves the pulses of its own amplitude and carrier
        if spectrum.delta != params.delta:
            raise ValueError(f"spectrum solved at delta = {spectrum.delta}, not at {params.delta}")
        solves[spectrum.amp, spectrum.omega] = spectrum
    batches = {}  # (amplitude, carrier, t_rise, t_fall) -> indices of its pulses
    for k, p in enumerate(pulses):
        batches.setdefault((p.amplitude_max, p.carrier, p.t_rise, p.t_fall), []).append(k)
    units = {}
    for (amp, carrier, _, _), ks in batches.items():
        shape = pulses[ks[0]]  # the amplitude, carrier and edges of the batch
        if (amp, carrier) not in solves:
            try:
                solves[amp, carrier] = _plateau_spectrum(params, shape)
            except SimulationError:
                solves[amp, carrier] = None  # step every pulse of this plateau
        t_p = np.array([pulses[k].t_plateau for k in ks])
        theta = np.array([pulses[k].carrier * starts[k] + pulses[k].carrier_phase for k in ks])
        solve, steps = solves[amp, carrier], _pulse_steps(shape, target_step)
        units.update(zip(ks, _pulse_unitaries(params, solve, shape, t_p, theta, steps)))
    u = functools.reduce(lambda acc, k: units[k] @ acc, range(len(pulses)), IDENTITY2)
    return StateVector.from_array(u @ psi)


# ---------------------------------------------------------------------------
# State preparation
# ---------------------------------------------------------------------------


def prepare_state(
    params: QubitParams,
    target: StateVector,
    amp: float,
    edges: float,
) -> tuple[PulseSpec, float, StateVector]:
    """Scan plateau duration and carrier phase for the best target fidelity.

    Amplitude and edge times stay fixed, the carrier on resonance (omega =
    Delta).  The plateau window brackets the first Rabi crest for the target
    (the shortest preparation, which is what made the sub-nanosecond pulses
    interesting): the crest estimate comes from the accumulated quasienergy
    phase matching the Bloch angle between |0> and the target.  A coarse
    scan over a full carrier-phase circle at 4 ps, then a local one at
    0.5 ps; each is one (phase, duration) batch of states from |0>, and the
    two share one plateau solve and the one series of its equal edges that
    it keeps (``_edge_rows``).  A coarse scan of more than ``PREP_SCAN_CAP``
    durations (a small ``amp``) raises ValueError before any work.  The
    phase is reported mod pi for a target on the z axis (where phi and
    phi + pi give the same fidelity), else mod 2 pi.  Returns the
    best pulse, the achieved state fidelity |<target|psi>| and psi, the
    state the scan scored, with its |1> amplitude negated if the reported
    phase is an odd multiple of pi from the scanned one (sigma_z|0> = |0>).
    """
    omega = params.delta
    de = analytic_delta_epsilon(params.delta, amp, omega)
    tgt = target.as_array()

    # Bloch angle from +z to the target sets the needed rotation.
    angle = float(np.arccos(np.clip(target.bloch().sz, -1.0, 1.0)))
    t_star = max(angle / de - edges, 0.0)
    lo, hi = 0.55 * t_star, 1.4 * t_star + 0.05
    n_coarse = np.ceil((hi - lo) / 0.004)  # the length of np.arange(lo, hi, 0.004)
    if not n_coarse <= PREP_SCAN_CAP:  # also catches an infinite t_star's nan
        raise ValueError(
            f"state prep at amplitude {amp:.3g} rad/ns needs {n_coarse:.3g} coarse "
            f"durations, more than {PREP_SCAN_CAP}; use a larger amplitude "
            "(CLI: [stateprep] amplitude_ghz)"
        )

    template = PulseSpec(amp, omega, edges, 0.0, edges)
    spectrum = _plateau_spectrum(params, template)
    ground = StateVector.ground().as_array()

    def scan(durs, phases):
        states = _duration_batch_states([template], durs, phases, [spectrum], ground, None)[0]
        fid = np.abs(states @ tgt.conj())
        # row-major argmax: the first strictly greater (phase, duration) wins
        p, i = np.unravel_index(np.argmax(fid), fid.shape)
        return float(fid[p, i]), float(durs[i]), float(phases[p]), states[p, i]

    coarse_durs = np.arange(lo, hi, 0.004)
    if coarse_durs.size == 0:
        coarse_durs = np.array([lo])
    coarse_phis = np.linspace(0.0, TWO_PI, 24, endpoint=False)
    _, d_c, p_c, _ = scan(coarse_durs, coarse_phis)

    fine_durs = np.arange(max(0.0, d_c - 0.006), d_c + 0.006, 0.0005)
    fine_phis = p_c + np.linspace(-0.15, 0.15, 31)
    f_b, d_b, p_b, psi = scan(fine_durs, fine_phis)

    # on the z axis phi and phi + pi tie exactly (sigma_z U(phi + pi) sigma_z
    # = U(phi)), so round-off picks the winner; report it mod pi
    period = np.pi if tgt[0] * tgt[1] == 0.0 else TWO_PI
    phase = p_b % period
    psi = psi * [1.0, (-1.0) ** round((p_b - phase) / np.pi)]  # sigma_z per pi moved
    return PulseSpec(amp, omega, edges, d_b, edges, phase), f_b, StateVector.from_array(psi)
