"""Floquet analysis of the harmonically driven two-level system.

Builds the truncated Floquet Hamiltonian of H = -Delta/2 sigma_z
+ A cos(omega t) sigma_x, diagonalizes it, and follows the two inequivalent
quasienergy branches from A = 0 by eigenvector continuity.  The matrix is
assembled in the frame rotated by pi/2 about y, where the Hamiltonian reads
-Delta/2 sigma_x - A cos(omega t) sigma_z and all entries are real:

  * diagonal 2x2 blocks n*omega*I - (Delta/2) sigma_x, photon index n,
  * blocks coupling n and n+1 equal to -(A/2) sigma_z.

An independent oracle is provided by the one-period propagator (monodromy
operator), whose eigenphases divided by T give the quasienergies mod omega.
The approximate Bessel-function chain (rotating-frame transformation,
truncated 4x4 matrix, decoupled 2x2 block) yields the closed-form
quasienergies and the generalized Rabi frequency

    Omega_R = sqrt((omega - Delta J0(2A/omega))^2 + Delta^2 J1^2(2A/omega)).

Branch labels are anchored at A = 0 where the quasienergies are
-omega/2 -+ |Delta - omega|/2, so delta_eps -> |Delta - omega| in the weak
drive limit.  Resummed quasienergy states at A -> 0+ on resonance are
u0 = (|0> - |1>)/sqrt(2), u1 = (|0> + |1>)/sqrt(2) under this sign
convention for the drive term; off resonance they reduce to the energy
eigenstates.  Eigenvector global sign is fixed by making the
largest-magnitude Fourier coefficient positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import j0, j1

from ._magnus import IDENTITY2, magnus_segment, unitarity_defect
from .errors import AccuracyError, NumericError
from .units import TWO_PI

#: Photon-index truncation used throughout unless overridden.
DEFAULT_TRUNCATION = 50

#: Eigenvectors whose dominant photon index exceeds N - EDGE_MARGIN are
#: excluded from branch selection (truncation artifacts live at the edges).
EDGE_MARGIN = 5

#: Minimum eigenvector overlap accepted by the continuity tracker.
OVERLAP_MIN = 0.9

# pi/2 rotation about y taking the lab energy eigenbasis to the frame in
# which the Floquet matrix is real: psi_rot = ROT @ psi_lab.
ROT = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)


def central_block(delta: float) -> np.ndarray:
    """The n = 0 diagonal block [[0, -Delta/2], [-Delta/2, 0]]."""
    return np.array([[0.0, -0.5 * delta], [-0.5 * delta, 0.0]])


@dataclass(frozen=True)
class FloquetMatrix:
    """Truncated Floquet Hamiltonian and the parameters that generated it."""

    entries: np.ndarray
    truncation_n: int
    delta: float
    amp: float
    omega: float

    @property
    def dim(self) -> int:
        return 2 * (2 * self.truncation_n + 1)


def build_floquet_matrix(
    delta: float, amp: float, omega: float, truncation_n: int = DEFAULT_TRUNCATION
) -> FloquetMatrix:
    """Assemble the real symmetric Floquet matrix with n in [-N, N]."""
    if truncation_n < 1:
        raise ValueError(f"truncation_n must be >= 1, got {truncation_n}")
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    n_blocks = 2 * truncation_n + 1
    dim = 2 * n_blocks
    h = np.zeros((dim, dim))
    for k in range(n_blocks):
        n = k - truncation_n
        i = 2 * k
        h[i, i] = n * omega
        h[i + 1, i + 1] = n * omega
        h[i, i + 1] = -0.5 * delta
        h[i + 1, i] = -0.5 * delta
        if k + 1 < n_blocks:
            h[i, i + 2] = -0.5 * amp
            h[i + 2, i] = -0.5 * amp
            h[i + 1, i + 3] = 0.5 * amp
            h[i + 3, i + 1] = 0.5 * amp
    return FloquetMatrix(h, truncation_n, delta, amp, omega)


@dataclass(frozen=True)
class FloquetSpectrum:
    """The two inequivalent quasienergies and their periodic-state tables.

    eps0 <= eps1 are the continuously tracked branch values anchored at
    A = 0 (not reduced mod omega); u0, u1 hold the Fourier coefficients, one
    (2N+1, 2) table per branch, in the rotated frame.  ``limit_convention``
    marks the A = 0 resonant point where the stored basis is the A -> 0+
    limit rather than a unique eigenbasis.
    """

    eps0: float
    eps1: float
    u0: np.ndarray
    u1: np.ndarray
    delta: float
    amp: float
    omega: float
    truncation_n: int
    limit_convention: bool = False

    @property
    def delta_eps(self) -> float:
        return self.eps1 - self.eps0

    def mod_omega(self) -> tuple[float, float]:
        """Both quasienergies reduced to (-omega/2, omega/2]."""
        return (
            reduce_to_zone(self.eps0, self.omega),
            reduce_to_zone(self.eps1, self.omega),
        )

    def states_at(self, t: float, carrier_phase: float = 0.0) -> np.ndarray:
        """Lab-frame instantaneous quasienergy states at time t.

        Resums u_j(t) = sum_n exp(i n (omega t + phase)) u_{j,n} and rotates
        back to the energy eigenbasis; returns a 2x2 matrix whose columns are
        u0(t), u1(t), renormalized to absorb truncation residue.
        """
        n_idx = np.arange(-self.truncation_n, self.truncation_n + 1)
        phases = np.exp(1j * n_idx * (self.omega * t + carrier_phase))
        cols = np.empty((2, 2), dtype=complex)
        for j, table in enumerate((self.u0, self.u1)):
            rot_vec = phases @ table
            lab = ROT.T @ rot_vec
            cols[:, j] = lab / np.linalg.norm(lab)
        return cols


def reduce_to_zone(x: float, omega: float) -> float:
    """Reduce a quasienergy to the window (-omega/2, omega/2].

    A value within a few ulps of -omega/2 is on the zone edge and maps to
    +omega/2, so round-off cannot choose the sign of an edge quasienergy
    (e.g. both monodromy eigenphases at A = 0 when Delta is an odd multiple
    of omega).
    """
    r = x - omega * np.round(x / omega)
    if r <= -0.5 * omega + 8.0 * np.spacing(0.5 * omega):
        r += omega
    return float(r)


def zone_distance(a: float, b: float, omega: float) -> float:
    """Distance between two quasienergies on the mod-omega circle."""
    return abs(reduce_to_zone(a - b, omega))


# ---------------------------------------------------------------------------
# Branch tracking
# ---------------------------------------------------------------------------


def _block_vector(truncation_n: int, n: int, spinor) -> np.ndarray:
    v = np.zeros(2 * (2 * truncation_n + 1))
    k = n + truncation_n
    v[2 * k : 2 * k + 2] = spinor
    return v


_X_PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)  # sigma_x eigenvalue +1
_X_MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)  # sigma_x eigenvalue -1

#: Degeneracy tolerance (rad/ns) below which the drive, not the detuning,
#: selects the A -> 0 basis.
RESONANCE_TOL = 1e-9


def _zero_amp_state(delta, omega, truncation_n):
    """Anchored eigenpairs at A = 0: eps = -omega/2 -+ |Delta - omega|/2."""
    v_low = _block_vector(truncation_n, 0, _X_PLUS)  # in-block energy -Delta/2
    v_high = _block_vector(truncation_n, -1, _X_MINUS)  # Delta/2 - omega
    if abs(delta - omega) < RESONANCE_TOL:
        eps = np.array([-0.5 * delta, -0.5 * delta])
        vecs = np.column_stack(
            [(v_low + v_high) / np.sqrt(2.0), (v_low - v_high) / np.sqrt(2.0)]
        )
        return eps, vecs, True
    if omega < delta:
        eps = np.array([-0.5 * delta, 0.5 * delta - omega])
        vecs = np.column_stack([v_low, v_high])
    else:
        eps = np.array([0.5 * delta - omega, -0.5 * delta])
        vecs = np.column_stack([v_high, v_low])
    return eps, vecs, False


def _interior_mask(evecs, truncation_n):
    """True for eigenvectors whose dominant photon block is away from the edge."""
    n_blocks = 2 * truncation_n + 1
    w = evecs.reshape(n_blocks, 2, -1)
    weight = np.sum(w * w, axis=1)  # (n_blocks, n_eig)
    dom = np.argmax(weight, axis=0) - truncation_n
    return np.abs(dom) <= truncation_n - EDGE_MARGIN


def _diagonalize(delta, amp, omega, truncation_n):
    h = build_floquet_matrix(delta, amp, omega, truncation_n).entries
    try:
        evals, evecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"Floquet eigensolver failed for delta={delta}, amp={amp}, "
            f"omega={omega}, truncation_n={truncation_n}"
        ) from exc
    return h, evals, evecs


def _match_branches(v_prev, evals, evecs, allowed):
    """Continue both branches by maximum eigenvector overlap.

    Returns (eps_pair, vec_pair, min_overlap) or None when the two branches
    collapse onto the same eigenvector.
    """
    ov = evecs.T @ v_prev  # (n_eig, 2)
    score = np.abs(ov)
    score[~allowed, :] = -1.0
    k0 = int(np.argmax(score[:, 0]))
    k1 = int(np.argmax(score[:, 1]))
    if k0 == k1:
        return None
    eps = np.array([evals[k0], evals[k1]])
    vecs = np.column_stack(
        [evecs[:, k0] * np.sign(ov[k0, 0]), evecs[:, k1] * np.sign(ov[k1, 1])]
    )
    return eps, vecs, float(min(score[k0, 0], score[k1, 1]))


def _subspace_continuation(v_prev, h, evals, evecs, allowed):
    """Continue through an exact copy crossing by projecting onto the
    closest 2-dimensional eigenspace (degenerate eigenvectors returned by the
    solver are an arbitrary mix there)."""
    total = np.sum((evecs.T @ v_prev) ** 2, axis=1)
    total[~allowed] = -1.0
    top2 = np.argsort(total)[-2:]
    w = evecs[:, top2]
    m = w.T @ v_prev  # (2, 2)
    uu, _, vv = np.linalg.svd(m)
    vecs = w @ (uu @ vv)
    eps = np.array([vecs[:, j] @ h @ vecs[:, j] for j in range(2)])
    return eps, vecs


def quasienergy_sweep(
    delta: float,
    omega: float,
    amplitudes,
    truncation_n: int = DEFAULT_TRUNCATION,
) -> list[FloquetSpectrum]:
    """Track the two quasienergy branches over an increasing amplitude grid.

    The tracker sweeps A upward from zero in increments of
    min(0.02*omega, 2*pi*0.05) rad/ns, bisecting whenever the eigenvector
    overlap with the previous step drops below 0.9, and returns one
    FloquetSpectrum per requested amplitude.  The first step away from zero
    is matched by eigenvalue proximity to the closed-form approximation,
    which is what resolves the A -> 0 degeneracy at resonance.
    """
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    if amps.size == 0:
        return []
    if np.any(amps < 0.0):
        raise ValueError("amplitudes must be >= 0")
    if np.any(np.diff(amps) < 0.0):
        raise ValueError("amplitudes must be non-decreasing")

    ds = min(0.02 * omega, TWO_PI * 0.05)
    grid = np.union1d(np.arange(0.0, amps[-1] + 0.5 * ds, ds), amps)
    grid = grid[grid <= amps[-1] + 1e-15]
    if grid[0] != 0.0:
        grid = np.concatenate([[0.0], grid])

    eps_cur, vecs_cur, _ = _zero_amp_state(delta, omega, truncation_n)
    a_cur = 0.0
    first_step_done = False
    results: dict[float, FloquetSpectrum] = {}
    requested = set(float(a) for a in amps)

    if 0.0 in requested:
        e0, v0, limit = _zero_amp_state(delta, omega, truncation_n)
        results[0.0] = _make_spectrum(
            delta, 0.0, omega, truncation_n, e0, v0, limit
        )

    min_step = max(ds * 2.0 ** -40, 1e-12)
    for a_target in grid[1:]:
        pending = [float(a_target)]
        while pending:
            a_try = pending[-1]
            h, evals, evecs = _diagonalize(delta, a_try, omega, truncation_n)
            allowed = _interior_mask(evecs, truncation_n)
            if not first_step_done:
                # Anchor by eigenvalue proximity to the analytic branch values;
                # exact at A -> 0 and well within the branch separation here.
                e0a, e1a = analytic_quasienergies(delta, a_try, omega)
                idx = np.where(allowed)[0]
                k0 = idx[np.argmin(np.abs(evals[idx] - e0a))]
                k1 = idx[np.argmin(np.abs(evals[idx] - e1a))]
                if k0 == k1:
                    order = np.argsort(np.abs(evals[idx] - e0a))
                    k0, k1 = idx[order[0]], idx[order[1]]
                    if evals[k0] > evals[k1]:
                        k0, k1 = k1, k0
                eps_cur = np.array([evals[k0], evals[k1]])
                vecs_cur = np.column_stack([evecs[:, k0], evecs[:, k1]])
                a_cur = a_try
                first_step_done = True
                pending.pop()
            else:
                matched = _match_branches(vecs_cur, evals, evecs, allowed)
                if matched is not None and matched[2] >= OVERLAP_MIN:
                    eps_cur, vecs_cur = matched[0], matched[1]
                    a_cur = a_try
                    pending.pop()
                elif a_try - a_cur <= min_step:
                    eps_cur, vecs_cur = _subspace_continuation(
                        vecs_cur, h, evals, evecs, allowed
                    )
                    a_cur = a_try
                    pending.pop()
                else:
                    pending.append(0.5 * (a_cur + a_try))
            if a_cur in requested and a_cur not in results:
                results[a_cur] = _make_spectrum(
                    delta, a_cur, omega, truncation_n, eps_cur, vecs_cur, False
                )
    return [results[float(a)] for a in amps]


def _make_spectrum(delta, amp, omega, truncation_n, eps, vecs, limit_convention):
    tables = []
    for j in range(2):
        v = vecs[:, j].copy()
        i_max = int(np.argmax(np.abs(v)))
        if v[i_max] < 0.0:
            v = -v
        tables.append(v.reshape(-1, 2).astype(complex))
    return FloquetSpectrum(
        eps0=float(eps[0]),
        eps1=float(eps[1]),
        u0=tables[0],
        u1=tables[1],
        delta=delta,
        amp=amp,
        omega=omega,
        truncation_n=truncation_n,
        limit_convention=limit_convention,
    )


def quasienergies(matrix: FloquetMatrix) -> FloquetSpectrum:
    """Quasienergies and quasienergy states for the matrix parameters.

    Branch selection follows the continuity sweep from A = 0; for amplitude
    scans prefer :func:`quasienergy_sweep`, which shares the sweep across all
    requested points.
    """
    return quasienergy_sweep(
        matrix.delta, matrix.omega, [matrix.amp], matrix.truncation_n
    )[0]


# ---------------------------------------------------------------------------
# Monodromy oracle
# ---------------------------------------------------------------------------


def monodromy_quasienergies(
    delta: float,
    amp: float,
    omega: float,
    integrator_step: float | None = None,
) -> tuple[float, float]:
    """Quasienergies mod omega from the one-period propagator eigenphases.

    Integrates U over one period of the continuous drive A cos(omega t) and
    returns -arg(eigenvalues)/T, each reduced to (-omega/2, omega/2], sorted.
    Independent of the Floquet-matrix route; serves as its oracle.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    period = TWO_PI / omega
    step = integrator_step if integrator_step is not None else period / 2000.0
    if step <= 0.0:
        raise ValueError("integrator_step must be positive")
    n_steps = max(1, int(np.ceil(period / step)))

    u = None
    for _ in range(8):
        u = magnus_segment(
            IDENTITY2.copy(),
            lambda t: amp * np.cos(omega * t),
            -0.5 * delta,
            0.0,
            period,
            n_steps,
        )
        if unitarity_defect(u) < 1e-10:
            break
        n_steps *= 2
    defect = unitarity_defect(u)
    if defect > 1e-8:
        raise AccuracyError(
            f"one-period propagator unitarity defect {defect:.2e} > 1e-8; "
            "use a smaller integrator_step"
        )
    lam = np.linalg.eigvals(u)
    eps = [reduce_to_zone(-np.angle(v) / period, omega) for v in lam]
    return tuple(sorted(eps))


def monodromy_quasienergies_batch(
    delta: float, amplitudes, omega: float, integrator_step: float | None = None
) -> np.ndarray:
    """Vectorized monodromy oracle over an amplitude batch; returns (n, 2)
    sorted quasienergies mod omega, one row per amplitude."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    period = TWO_PI / omega
    step = integrator_step if integrator_step is not None else period / 2000.0
    n_steps = max(1, int(np.ceil(period / step)))
    u = np.broadcast_to(IDENTITY2, (len(amps), 2, 2)).copy()
    u = magnus_segment(
        u,
        lambda t: amps[:, None] * np.cos(omega * t)[None, :],
        -0.5 * delta,
        0.0,
        period,
        n_steps,
    )
    defect = unitarity_defect(u)
    if defect > 1e-8:
        raise AccuracyError(
            f"one-period propagator unitarity defect {defect:.2e} > 1e-8; "
            "use a smaller integrator_step"
        )
    out = np.empty((len(amps), 2))
    for i in range(len(amps)):
        lam = np.linalg.eigvals(u[i])
        out[i] = sorted(reduce_to_zone(-np.angle(v) / period, omega) for v in lam)
    return out


# ---------------------------------------------------------------------------
# Closed-form (Bessel) chain
# ---------------------------------------------------------------------------


def analytic_delta_epsilon(delta: float, amp: float, omega: float) -> float:
    """Generalized Rabi frequency sqrt((w - D J0)^2 + D^2 J1^2), args 2A/w."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    x = 2.0 * amp / omega
    return float(np.hypot(omega - delta * j0(x), delta * j1(x)))


def analytic_quasienergies(delta: float, amp: float, omega: float) -> tuple[float, float]:
    """Closed-form branch values -omega/2 -+ Omega_R/2."""
    half = 0.5 * analytic_delta_epsilon(delta, amp, omega)
    return (-0.5 * omega - half, -0.5 * omega + half)


def truncated_4x4_hamiltonian(delta: float, amp: float, omega: float) -> np.ndarray:
    """The 4x4 rotating-frame matrix kept by the near-degenerate truncation."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    b0 = 0.5 * delta * j0(2.0 * amp / omega)
    b1 = 0.5 * delta * j1(2.0 * amp / omega)
    return np.array(
        [
            [-omega, -b0, 0.0, -b1],
            [-b0, -omega, b1, 0.0],
            [0.0, b1, 0.0, -b0],
            [-b1, 0.0, -b0, 0.0],
        ]
    )


def block_basis_transform() -> np.ndarray:
    """Orthogonal pairwise Hadamard transform decoupling the 4x4 matrix."""
    s = np.zeros((4, 4))
    s[0, 0] = s[1, 0] = s[0, 1] = 1.0
    s[1, 1] = -1.0
    s[2, 2] = s[3, 2] = s[2, 3] = 1.0
    s[3, 3] = -1.0
    return s / np.sqrt(2.0)


def truncated_2x2_block(delta: float, amp: float, omega: float) -> np.ndarray:
    """Relevant decoupled 2x2 block; its eigenvalues are the closed-form
    quasienergies."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    b0 = delta * j0(2.0 * amp / omega)
    b1 = delta * j1(2.0 * amp / omega)
    return 0.5 * np.array([[-2.0 * omega + b0, -b1], [-b1, -b0]])


def frequency_components(delta_eps: float, omega: float, n_max: int) -> np.ndarray:
    """Predicted oscillation frequencies {n w, n w +- delta_eps}, even n only.

    Returns the non-negative members, sorted and deduplicated within 1e-9.
    Units follow the inputs (rad/ns in, rad/ns out).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    vals = []
    for n in range(0, n_max + 1, 2):
        vals.extend([n * omega, n * omega - delta_eps, n * omega + delta_eps])
    vals = np.array([v for v in vals if v > -1e-12])
    vals[vals < 0.0] = 0.0
    vals = np.sort(vals)
    keep = [vals[0]]
    for v in vals[1:]:
        if v - keep[-1] > 1e-9:
            keep.append(v)
    return np.array(keep)
