"""Floquet analysis of the harmonically driven two-level system.

Builds the truncated Floquet Hamiltonian of H = -Delta/2 sigma_z
+ A cos(omega t) sigma_x and solves for the two inequivalent quasienergy
branches anchored at A = 0.  The matrix is assembled in the frame rotated by
pi/2 about y, where the Hamiltonian reads -Delta/2 sigma_x
- A cos(omega t) sigma_z and all entries are real:

  * diagonal 2x2 blocks n*omega*I - (Delta/2) sigma_x, photon index n,
  * blocks coupling n and n+1 equal to -(A/2) sigma_z.

The matrix commutes with the generalized parity Pi = (-1)^n sigma_x
(Shirley, Phys. Rev. 138, B979 (1965); Grossmann, Dittrich, Jung & Haenggi,
PRL 67, 516 (1991)).  Both branches lie in its even sector, spanned by
|n> (x) |x = (-1)^n>, where the matrix is symmetric tridiagonal with
diagonal n*omega - (Delta/2)(-1)^n and off-diagonal -A/2; their copies
shifted by omega live in the odd sector.  Each amplitude is an independent
sector solve for two eigenvalue ranks fixed once per (Delta, omega, N).

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
largest-magnitude sector coefficient c_n positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import j0, j1

from ._magnus import IDENTITY2, magnus_segment, unitarity_defect
from .errors import AccuracyError, NumericError
from .units import TWO_PI

#: Photon-index truncation used throughout unless overridden.
DEFAULT_TRUNCATION = 50

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
    _check_floquet_args(omega, truncation_n)
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

    eps0 <= eps1 are the branch values anchored at A = 0 (not reduced mod
    omega); u0, u1 hold the Fourier coefficients, one (2N+1, 2) table per
    branch, in the rotated frame.  ``limit_convention`` marks the A = 0
    resonant point where the stored basis is the A -> 0+ limit rather than a
    unique eigenbasis.
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
# Even parity sector
# ---------------------------------------------------------------------------

#: Degeneracy tolerance (rad/ns) below which the drive, not the detuning,
#: selects the A -> 0 basis.
RESONANCE_TOL = 1e-9


def _check_floquet_args(omega: float, truncation_n: int) -> None:
    if truncation_n < 1:
        raise ValueError(f"truncation_n must be >= 1, got {truncation_n}")
    if omega <= 0.0:
        raise ValueError("omega must be positive")


def _even_sector(delta, amp, omega, truncation_n):
    """Tridiagonal Pi = +1 block in the basis |n> (x) |x = (-1)^n>.

    Returns the diagonal n*omega - (Delta/2)(-1)^n, the off-diagonal -A/2
    and the parities (-1)^n.
    """
    n = np.arange(-truncation_n, truncation_n + 1)
    parity = 1.0 - 2.0 * (n % 2)
    return n * omega - 0.5 * delta * parity, np.full(2 * truncation_n, -0.5 * amp), parity


def _sector_eigh(diag, off, **kwargs):
    try:
        return eigh_tridiagonal(diag, off, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"Floquet sector eigensolver failed for {len(diag)} photon indices"
        ) from exc


def _branch_ranks(delta, omega, truncation_n):
    """Sorted positions of the two branches within the even sector.

    Fixed at the small amplitude A* = min(0.02 omega, 2 pi 0.05) by
    proximity to the closed-form values, which resolves the A -> 0 degeneracy
    at resonance and the ties with same-sector photon copies at odd
    multiphoton resonances.  An irreducible tridiagonal matrix has simple eigenvalues, so
    the positions hold for every A > 0.
    """
    a_star = min(0.02 * omega, TWO_PI * 0.05)
    diag, off, _ = _even_sector(delta, a_star, omega, truncation_n)
    evals = _sector_eigh(diag, off, eigvals_only=True)
    e0a, e1a = analytic_quasienergies(delta, a_star, omega)
    k0 = int(np.argmin(np.abs(evals - e0a)))
    k1 = int(np.argmin(np.abs(evals - e1a)))
    if k0 == k1:
        k0, k1 = sorted(int(k) for k in np.argsort(np.abs(evals - e0a))[:2])
    return k0, k1


def _zero_amp_state(delta, omega, truncation_n):
    """Anchored sector eigenpairs at A = 0: eps = -omega/2 -+ |Delta - omega|/2."""
    photon = np.eye(2 * truncation_n + 1)
    c_low = photon[truncation_n]  # n = 0, x = +1: in-block energy -Delta/2
    c_high = photon[truncation_n - 1]  # n = -1, x = -1: Delta/2 - omega
    if abs(delta - omega) < RESONANCE_TOL:
        eps = np.array([-0.5 * delta, -0.5 * delta])
        return eps, np.column_stack([c_low + c_high, c_low - c_high]) / np.sqrt(2.0), True
    eps = np.array([-0.5 * delta, 0.5 * delta - omega])
    order = np.argsort(eps)
    return eps[order], np.column_stack([c_low, c_high])[:, order], False


def quasienergy_sweep(
    delta: float,
    omega: float,
    amplitudes,
    truncation_n: int = DEFAULT_TRUNCATION,
) -> list[FloquetSpectrum]:
    """The two quasienergy branches at each requested amplitude, in any order.

    Each A > 0 is an independent solve of the even parity sector (size 2N+1)
    for the eigenpairs at the two ranks of :func:`_branch_ranks`; A = 0
    returns the anchored states of :func:`_zero_amp_state`.  Returns one
    FloquetSpectrum per amplitude.
    """
    _check_floquet_args(omega, truncation_n)
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    if np.any(amps < 0.0):
        raise ValueError("amplitudes must be >= 0")

    ranks = _branch_ranks(delta, omega, truncation_n)
    results = []
    for a in amps:
        diag, off, parity = _even_sector(delta, a, omega, truncation_n)
        if a == 0.0:
            eps, vecs, limit = _zero_amp_state(delta, omega, truncation_n)
        else:
            eps, vecs = _sector_eigh(diag, off, select="i", select_range=ranks)
            eps, vecs, limit = eps[[0, -1]], vecs[:, [0, -1]], False
        results.append(
            _make_spectrum(delta, float(a), omega, truncation_n, eps, vecs, parity, limit)
        )
    return results


def _make_spectrum(delta, amp, omega, truncation_n, eps, vecs, parity, limit_convention):
    """Map sector vectors c to rotated-frame tables c_n (1, (-1)^n)/sqrt(2),
    signed so that the largest |c_n| is positive."""
    spin = np.column_stack([np.ones_like(parity), parity]) / np.sqrt(2.0)
    tables = []
    for j in range(2):
        c = vecs[:, j]
        if c[np.argmax(np.abs(c))] < 0.0:
            c = -c
        tables.append((c[:, None] * spin).astype(complex))
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
    """Quasienergies and quasienergy states for the matrix parameters,
    from the even-sector solve of :func:`quasienergy_sweep`."""
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
    """Quasienergies mod omega from the one-period propagator eigenphases;
    the one-amplitude case of :func:`monodromy_quasienergies_batch`."""
    eps0, eps1 = monodromy_quasienergies_batch(delta, [amp], omega, integrator_step)[0]
    return float(eps0), float(eps1)


def monodromy_quasienergies_batch(
    delta: float, amplitudes, omega: float, integrator_step: float | None = None
) -> np.ndarray:
    """Quasienergies mod omega from the one-period propagator eigenphases.

    Integrates U over one period of the continuous drive A cos(omega t) for
    each amplitude and returns -arg(eigenvalues)/T, each reduced to
    (-omega/2, omega/2], as (n, 2) sorted rows.  Independent of the
    Floquet-matrix route; serves as its oracle.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    period = TWO_PI / omega
    step = integrator_step if integrator_step is not None else period / 2000.0
    if step <= 0.0:
        raise ValueError("integrator_step must be positive")
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
