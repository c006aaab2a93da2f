"""Tomography pipeline: sampling, MLE reconstruction, bootstrap, calibration.

Measurement model: ideal projective readout of sigma_z after one of three
pre-rotations.  ``_MEASUREMENTS`` is the whole model: the Bloch axis each basis
maps onto the measurement axis and its sign, P1 = (1 - sign s_axis) / 2:

    ry90  Ry(pi/2) then sigma_z    sx = 2 p1 - 1
    rx90  Rx(pi/2) then sigma_z    sy = 1 - 2 p1
    id    measure sigma_z          sz = 1 - 2 p1

with Rx(pi/2) = exp(-i pi sigma_x / 4) and Ry(pi/2) = exp(-i pi sigma_y / 4);
the tests check the table against P1 = (R rho R^dag)[1, 1] for those R.

Because each basis measures one Bloch component, the binomial likelihood
splits into three concave one-variable terms.  The maximum-likelihood state
is therefore closed-form: the linear-inversion Bloch vector when it lies in
the unit ball, otherwise the point of the sphere where each term's gradient
is proportional to the component, found by a 1-D solve for the Lagrange
multiplier (cf. Smolin, Gambetta & Smith, PRL 108, 070502 (2012)).  The
parametric bootstrap draws its b resamples from the per-component normal
approximation and reconstructs them as one array batch.

Pulse-level calibration reproduces the experiment's procedure: the pulse
length is tuned by the repeated-pulse sequence [Rx(theta)]^(2n+1), which
amplifies an angle error delta into the population as
1 - 2 P1 = sin((2n+1) delta); the y-axis carrier phase is tuned by the
sequence Ry'(pi/2) {[Rx(pi/2)]^2 [Ry'(pi/2)]^2}^n Rx(pi/2).  Composing ideal
rotations shows the latter's exact response to an axis tilt phi is
1 - 2 P1 = -sin((2n+1) phi) (the quoted amplification "2n" is the nominal
factor; the estimators here invert the exact response).  Each train is
composed by ``propagate_train`` from edge series and exact Floquet plateaus,
no plateau time-stepped; every pulse of both root searches is on one plateau
solve, made once per calibration, which builds their one edge series once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# propagate is unused here, but benchmarks/test_bench.py asserts that the
# tracer patches tomography.propagate; drop it with that assertion.
from .evolve import propagate, propagate_train  # noqa: F401
from .errors import NumericError
from .floquet import FloquetSpectrum, quasienergy_sweep
from .model import SIGMA_X, SIGMA_Y, SIGMA_Z, PulseSpec, QubitParams, StateVector
from .units import TWO_PI

BASES = ("id", "rx90", "ry90")

#: Basis -> (Bloch axis, sign) of the component it measures, in axis order
#: x, y, z: P1 = (1 - sign s_axis) / 2.
_MEASUREMENTS = {"ry90": (0, -1.0), "rx90": (1, +1.0), "id": (2, +1.0)}
_AXIS_BASES = tuple(_MEASUREMENTS)
_AXIS_SIGNS = np.array([sign for _, sign in _MEASUREMENTS.values()])

#: Default pre-rotation pulse parameters: amplitude 2*pi x 0.13 rad/ns,
#: 0.2 ns cosine edges.
PREROTATION_AMPLITUDE = TWO_PI * 0.13
PREROTATION_EDGE = 0.2


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("density matrix must be 2x2")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("density matrix not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
            raise ValueError("density matrix trace differs from 1 by > 1e-12")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise ValueError("density matrix has eigenvalue < -1e-10")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, m, normalize: bool = False) -> "DensityMatrix":
        """Build from a raw matrix.

        ``normalize`` repairs matrices quoted at limited precision:
        symmetrize, clip slightly negative eigenvalues (at most 1e-4) to
        zero, and rescale the trace to 1.
        """
        m = np.asarray(m, dtype=complex)
        if normalize:
            m = 0.5 * (m + m.conj().T)
            w, v = np.linalg.eigh(m)
            if np.min(w) < -1e-4:
                raise ValueError("matrix too far from positive semidefinite")
            w = np.clip(w, 0.0, None)
            m = (v * w) @ v.conj().T
            m = m / np.trace(m).real
        return cls(m)

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        psi = state.as_array()
        return cls(np.outer(psi, psi.conj()))

    def bloch(self) -> np.ndarray:
        m = self.matrix
        return np.array(
            [2.0 * m[0, 1].real, -2.0 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real]
        )


@dataclass(frozen=True)
class ShotRecord:
    """Measured counts in one basis.  ``excited_counts`` may be fractional
    for exact (infinite-shot limit) or synthetic resampled records."""

    basis: str
    shots: int
    excited_counts: float
    seed: int | None = None

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if not 0.0 <= self.excited_counts <= self.shots:
            raise ValueError("excited_counts must lie in [0, shots]")

    @property
    def p1(self) -> float:
        return self.excited_counts / self.shots


@dataclass(frozen=True)
class TomographyResult:
    rho: DensityMatrix
    fidelity_to_target: float
    fidelity_stderr: float
    bootstrap_b: int

    def __post_init__(self):
        if not 0.0 <= self.fidelity_to_target <= 1.0:
            raise ValueError("fidelity must lie in [0, 1]")
        if self.fidelity_stderr < 0.0:
            raise ValueError("stderr must be >= 0")


def _bloch(state) -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return state.bloch()
    if isinstance(state, StateVector):
        return state.bloch().as_array()
    raise TypeError("expected StateVector or DensityMatrix")


def measured_p1(state, basis: str) -> float:
    """P1 after the ideal pre-rotation for the basis."""
    axis, sign = _MEASUREMENTS[basis]
    return float(0.5 * (1.0 - sign * _bloch(state)[axis]))


def _sample_bloch(bloch, shots: int, seeds) -> np.ndarray:
    """Linear-inversion Bloch vectors of binomial(shots, P1) counts; row k draws from seeds[k]."""
    p1 = np.clip(0.5 * (1.0 - _AXIS_SIGNS * bloch), 0.0, 1.0).tolist()
    rngs = map(np.random.default_rng, seeds)
    counts = np.array([[rng.binomial(shots, p) for p in row] for rng, row in zip(rngs, p1)])
    return _AXIS_SIGNS * (1.0 - 2.0 * counts / shots)


def simulate_shots(state, basis: str, shots: int, seed=None) -> ShotRecord:
    """Draw binomial(shots, P1) counts after the ideal pre-rotation."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = np.clip(measured_p1(state, basis), 0.0, 1.0)
    counts = int(np.random.default_rng(seed).binomial(shots, p))
    return ShotRecord(basis, shots, counts, seed if isinstance(seed, int) else None)


def bloch_from_records(records) -> np.ndarray:
    """Linear-inversion Bloch vector (may leave the unit ball with noise)."""
    by_basis = {r.basis: r for r in records}
    if set(by_basis) != set(BASES):
        raise ValueError(f"need one record per basis {BASES}")
    return _AXIS_SIGNS * (1.0 - 2.0 * np.array([by_basis[b].p1 for b in _AXIS_BASES]))


# ---------------------------------------------------------------------------
# Maximum likelihood reconstruction
# ---------------------------------------------------------------------------

# Floor on 1 - s in the component solve.  A component reaches s >= 1 only
# when no count opposes it (w = 0), where w / (1 - s) must read 0; the
# floor keeps w / (1 - s)^2 finite there too.  It also floors the outer
# slope, so a flat Newton step lands outside the bracket and bisects.
_TINY = 1e-150

# Both Newton loops converge in under 10 steps; bisection in the outer one
# reaches 1e-14 relative in about 50.
_MAX_ITER = 100


def _axis_shots(records) -> np.ndarray:
    by_basis = {r.basis: r for r in records}
    return np.array([float(by_basis[b].shots) for b in _AXIS_BASES])


def _rho_from_bloch(s) -> np.ndarray:
    return 0.5 * (np.eye(2) + s[0] * SIGMA_X + s[1] * SIGMA_Y + s[2] * SIGMA_Z)


def _component_roots(m, w, c, s):
    """Per-component optimum on the sphere for multipliers c = 2 lam.

    Solves h(s) = m - (1 + s) (c s + w / (1 - s)) = 0, the stationarity
    condition divided by 1 - s so that a component with w = 0 has no spurious
    root at s = 1 (its root may then exceed 1 for small lam; the outer solve
    raises lam until |s| = 1).  h is concave and decreasing on [0, 1), so
    Newton started at or right of the root descends to it monotonically.
    Returns s and ds/dlam.
    """
    for _ in range(_MAX_ITER):
        inv = 1.0 / np.maximum(1.0 - s, _TINY)
        h_s = -c * (1.0 + 2.0 * s) - 2.0 * w * inv * inv
        step = (m - (1.0 + s) * (c * s + w * inv)) / h_s
        s = s - step
        if abs(step).max() <= 1e-15:
            break
    return s, 2.0 * s * (1.0 + s) / h_s


def _mle_bloch(s_hat, shots) -> np.ndarray:
    """Closed-form maximum-likelihood Bloch vectors, one per row of s_hat.

    s_hat is a (k, 3) batch of linear-inversion vectors (clipped here to
    [-1, 1] per component) and ``shots`` the per-axis shot counts,
    broadcast against it.  Rows inside the unit ball are their own MLE.  For
    the others, component i with a = |s_hat_i| carries m = n (1 + a) / 2
    counts for its sign and w = n (1 - a) / 2 against, and the optimum
    satisfies n (a - s) = 2 lam s (1 - s^2), s = |s_i|, with one multiplier
    lam > 0 chosen so |s| = 1.  1/|s(lam)| - 1 increases with lam (it is
    linear in the Gaussian limit); it is zeroed by Newton steps through the
    implicit derivative ds/dlam, falling back to bisection in the bracket
    [0, |n| / 2] (|n| the Euclidean norm of the shots), since every
    s_i <= n_i / (2 lam) puts |s| <= 1 at its upper end.
    """
    s_hat = np.clip(s_hat, -1.0, 1.0)
    out = s_hat.copy()
    outside = np.sum(s_hat * s_hat, axis=1) > 1.0
    if not outside.any():
        return out
    a = np.abs(s_hat[outside])
    n = np.broadcast_to(shots, s_hat.shape)[outside]
    w = 0.5 * n * (1.0 - a)
    m = n - w
    lam = lo = np.zeros((len(a), 1))
    hi = 0.5 * np.sqrt(np.sum(n * n, axis=1, keepdims=True))
    s, ds = a, -2.0 * a * (1.0 - a * a) / n  # s and ds/dlam at lam = 0
    for _ in range(_MAX_ITER):
        r = np.sqrt(np.sum(s * s, axis=1, keepdims=True))
        psi = 1.0 / r - 1.0
        if np.all(np.abs(psi) <= 1e-14):
            break
        lo = np.where(psi <= 0.0, lam, lo)
        hi = np.where(psi >= 0.0, lam, hi)
        dpsi = np.maximum(-np.sum(s * ds, axis=1, keepdims=True) / r**3, _TINY)
        new = lam - psi / dpsi
        new = np.where((new > lo) & (new < hi), new, 0.5 * (lo + hi))
        if np.all(np.abs(new - lam) <= 1e-14 * new):
            break
        # with w = 0, h is quadratic with root q; otherwise the root lies
        # below both a and q.  A larger lam also lowers it below the previous one.
        c = 2.0 * new
        x = m / c
        q = 2.0 * x / (1.0 + np.sqrt(1.0 + 4.0 * x))
        ub = np.where(w > 0.0, np.minimum(a, q), q)
        s, ds = _component_roots(m, w, c, np.where(new > lam, np.minimum(s, ub), ub))
        lam = new
    out[outside] = np.copysign(s / np.sqrt(np.sum(s * s, axis=1, keepdims=True)), s_hat[outside])
    return out


def mle_reconstruct(records) -> DensityMatrix:
    """Maximum-likelihood density matrix from one record per basis.

    Each basis measures one Bloch component, so the binomial likelihood is a
    sum of three concave one-variable terms and the MLE has a closed form
    (``_mle_bloch``): the linear-inversion vector when it lies in the unit
    ball, otherwise the point of the sphere where each term's gradient is
    2 lam s_i.  Records may have unequal shots and fractional counts.
    """
    records = list(records)
    s = _mle_bloch(bloch_from_records(records)[None, :], _axis_shots(records))[0]
    rho = _rho_from_bloch(s)
    # roundoff can leave a -1e-17-level eigenvalue; lift it without moving
    # anything at reported precision
    w = np.linalg.eigvalsh(rho)
    if w[0] < 0.0:
        rho = rho + (2e-16 - w[0]) * np.eye(2)
        rho = rho / rho.trace().real
    return DensityMatrix(rho)


def _bloch_fidelity(s, t):
    """fidelity() of Bloch vectors s and t, batched over leading axes."""
    purity = np.maximum(1.0 - np.sum(s * s, axis=-1), 0.0) * np.maximum(
        1.0 - np.sum(t * t, axis=-1), 0.0
    )
    f2 = 0.5 * (1.0 + np.sum(s * t, axis=-1)) + 0.5 * np.sqrt(purity)
    return np.clip(np.sqrt(np.maximum(f2, 0.0)), 0.0, 1.0)


def fidelity(rho: DensityMatrix, rho_ideal: DensityMatrix) -> float:
    """State fidelity Tr sqrt(sqrt(rho_ideal) rho sqrt(rho_ideal)).

    For 2x2 matrices this equals sqrt(tr(rho sigma) + 2 sqrt(det rho det
    sigma)), which in Bloch vectors s, t is sqrt((1 + s.t)/2 +
    sqrt((1 - |s|^2)(1 - |t|^2))/2); for a pure target it reduces to
    sqrt(<psi|rho|psi>).  Clamped to [0, 1].
    """
    return float(_bloch_fidelity(_bloch(rho), _bloch(rho_ideal)))


# ---------------------------------------------------------------------------
# Parametric bootstrap
# ---------------------------------------------------------------------------


def bootstrap_errors(records, target, b: int = 200, seed=None) -> TomographyResult:
    """Parametric bootstrap of the reconstruction's fidelity statistics.

    Per the normal-approximation procedure: each Bloch component's estimate
    s_i has standard error sqrt((1 - s_i^2) / n_i) from its binomial counts.
    b synthetic Bloch vectors are drawn from those normals, one
    ``SeedSequence(seed).spawn(b)`` child stream per resample (deterministic
    for a given seed), clipped to [-1, 1] (measured probabilities in [0, 1])
    and MLE-reconstructed as one batch; the standard error is the sample
    standard deviation of their fidelities to the target.
    """
    if b < 100:
        raise ValueError("bootstrap size b must be >= 100")
    records = list(records)
    s_hat = bloch_from_records(records)
    shots = _axis_shots(records)
    sigma = np.sqrt(np.maximum(1.0 - s_hat * s_hat, 0.0) / shots)
    draws = np.array(
        [
            np.random.default_rng(child).standard_normal(3)
            for child in np.random.SeedSequence(seed).spawn(b)
        ]
    )
    fids = _bloch_fidelity(_mle_bloch(s_hat + sigma * draws, shots), _bloch(target))
    rho_hat = mle_reconstruct(records)
    return TomographyResult(
        rho_hat, fidelity(rho_hat, target), float(np.std(fids, ddof=1)), b
    )


# ---------------------------------------------------------------------------
# Pulse calibration
# ---------------------------------------------------------------------------

#: Relative tolerance and iteration cap of ``_brentq``: scipy's defaults.
_BRENT_RTOL = 4.0 * math.ulp(1.0)
_BRENT_MAXITER = 100


def _brentq(f, a, b, xtol):
    """Root of f in the bracket [a, b] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy's C ``brentq`` at its default rtol and
    maxiter: the same float operations in the same order, so it returns what
    ``scipy.optimize.brentq(f, a, b, xtol=xtol)`` returns, bit for bit,
    without importing ``scipy.optimize``.  No sign change over the bracket,
    a NaN value of f and no convergence raise NumericError.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericError(f"brentq on [{a!r}, {b!r}]: f({x!r}) is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericError(
            f"brentq on [{a!r}, {b!r}]: no sign change (f = {fpre!r}, {fcur!r})"
        )
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation gives a good short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # underflow to 0: C gets inf or nan, and bisects
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NumericError(
        f"brentq on [{a!r}, {b!r}]: no convergence in {_BRENT_MAXITER} iterations "
        f"(x = {xcur!r}, f = {fcur!r})"
    )


def angle_calibration_sequence(
    params: QubitParams, pulse: PulseSpec, n: int, *, spectrum: FloquetSpectrum | None = None
) -> float:
    """Rotation-angle error estimate from the [R(theta)]^(2n+1) train.

    Propagates 2n+1 identical pulses from |0> with a phase-coherent carrier
    and inverts 1 - 2 P1 = sin((2n+1) delta).  ``spectrum`` is passed to
    ``propagate_train``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    final = propagate_train(params, [pulse] * (2 * n + 1), spectrum=spectrum)
    resp = np.clip(1.0 - 2.0 * final.p1, -1.0, 1.0)
    return float(np.arcsin(resp) / (2 * n + 1))


def axis_calibration_sequence(
    params: QubitParams, pulse_x: PulseSpec, pulse_y: PulseSpec, n: int,
    *, spectrum: FloquetSpectrum | None = None,
) -> float:
    """Axis-misalignment estimate from Ry'{[Rx]^2 [Ry']^2}^n Rx.

    The train runs in time order Rx, ([Ry']^2 [Rx]^2) x n, Ry'; composing
    ideal rotations gives 1 - 2 P1 = -sin((2n+1) phi) for a y-axis tilt phi
    toward -x, which this inverts.  ``spectrum`` is passed to
    ``propagate_train``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pulses = [pulse_x]
    for _ in range(n):
        pulses.extend([pulse_y, pulse_y, pulse_x, pulse_x])
    pulses.append(pulse_y)
    final = propagate_train(params, pulses, spectrum=spectrum)
    resp = np.clip(1.0 - 2.0 * final.p1, -1.0, 1.0)
    return float(-np.arcsin(resp) / (2 * n + 1))


@functools.lru_cache(maxsize=8)
def prerotation_pulses(
    params: QubitParams,
    amplitude: float = PREROTATION_AMPLITUDE,
    edge: float = PREROTATION_EDGE,
) -> dict:
    """Calibrated tomography pre-rotation pulses {id, rx90, ry90}.

    Pulse length is solved so the repeated-pulse angle estimate vanishes
    (realized rotation angle pi/2 within the calibration tolerance), then
    the y pulse's carrier phase is solved so the axis estimate vanishes;
    both are ``_brentq`` roots to 1e-7 in a bracket around the ideal value.
    Every pulse of both searches has one amplitude, carrier and pair of
    equal edges, so one plateau solve, made once per call and passed to
    every train, builds their one edge series once.
    The identity is a zero-amplitude wait of the same shape.
    """
    n = 5
    spectrum = quasienergy_sweep(params.delta, params.delta, [amplitude])[0]

    def angle_err(t_p):
        pulse = PulseSpec(amplitude, params.delta, edge, t_p, edge, 0.0)
        return angle_calibration_sequence(params, pulse, n, spectrum=spectrum)

    # RWA estimate pi/2 = amplitude * (t_p + edge), then bracket and solve
    t_guess = (np.pi / 2.0) / amplitude - edge
    t_lo, t_hi = 0.8 * t_guess, 1.2 * t_guess
    t_cal = _brentq(angle_err, t_lo, t_hi, xtol=1e-7)

    pulse_x = PulseSpec(amplitude, params.delta, edge, t_cal, edge, 0.0)

    def axis_err(phi):
        pulse_y = PulseSpec(amplitude, params.delta, edge, t_cal, edge, phi)
        return axis_calibration_sequence(params, pulse_x, pulse_y, n, spectrum=spectrum)

    phi0 = -np.pi / 2.0
    phi_cal = _brentq(axis_err, phi0 - 0.15, phi0 + 0.15, xtol=1e-7)

    return {
        "id": PulseSpec(0.0, params.delta, edge, t_cal, edge, 0.0),
        "rx90": pulse_x,
        "ry90": PulseSpec(amplitude, params.delta, edge, t_cal, edge, phi_cal),
    }
