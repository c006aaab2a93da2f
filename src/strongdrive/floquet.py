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
sector solve for two eigenvalue ranks fixed once per (Delta, omega, N); all
amplitudes are solved together by a Sturm-safeguarded Newton iteration for
the eigenvalues and one twisted factorization per eigenvector (Parlett &
Dhillon, Linear Algebra Appl. 267, 247 (1997)).  The module needs numpy
only: J0 and J1 come from their integral representation (DLMF 10.9.1).

An independent oracle is provided by the one-period propagator (monodromy
operator), whose eigenphases, read from its SU(2) form, divided by T give
the quasienergies mod omega.  It is composed from a quarter period: H is
real and sigma_z H(t) sigma_z = H(t + T/2) = H(T/2 - t), so
U(T/2) = sigma_z U(T/4)^T sigma_z U(T/4) and U(T) = sigma_z U(T/2) sigma_z
U(T/2), exactly on the Magnus mesh too.  Its accuracy gate is a measured
step error: the quarter period is stepped once more at twice the step, and
the eigenphase difference over 15 T (4th order) must stay below 1e-8 rad/ns.
The approximate Bessel-function chain (rotating-frame transformation,
truncated 4x4 matrix, decoupled 2x2 block; the tests keep its matrices)
yields the closed-form quasienergies and the generalized Rabi frequency

    Omega_R = sqrt((omega - Delta J0(2A/omega))^2 + Delta^2 J1^2(2A/omega)).

Branch labels are anchored at A = 0 where the quasienergies are
-omega/2 -+ |Delta - omega|/2, so delta_eps -> |Delta - omega| in the weak
drive limit.  A branch's sector vector c is its quasienergy state: in the
lab frame |n> (x) |x = (-1)^n> is |n>|0> for even n and -|n>|1> for odd n,
so harmonic n lies on component n mod 2 alone: every table of a solve
stores that component only, beside the harmonic of its first row, and
``FloquetSpectrum.states_at`` is their one, gated, resummation.  At A -> 0+ on
resonance that gives u0 = (|0> - |1>)/sqrt(2), u1 = (|0> + |1>)/sqrt(2) under
this sign convention for the drive term; off resonance the energy
eigenstates.  The sign of c makes its largest-magnitude entry positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._magnus import IDENTITY2, SZ_CONJ, magnus_segment, matmul2, unitarity_defect
from .errors import AccuracyError, NumericError
from .units import TWO_PI

#: Photon-index truncation used throughout unless overridden.
DEFAULT_TRUNCATION = 50


def build_floquet_matrix(
    delta: float, amp: float, omega: float, truncation_n: int = DEFAULT_TRUNCATION
) -> np.ndarray:
    """The real symmetric Floquet matrix with n in [-N, N]: the dense oracle
    of the parity-sector solve, which needs only its even sector."""
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
    return h


@dataclass(frozen=True)
class FloquetSpectrum:
    """The two inequivalent quasienergies and their periodic states.

    eps0 <= eps1 are the branch values anchored at A = 0 (not reduced mod
    omega).  ``table`` holds the lab-frame Fourier coefficients u_jn of
    u_j(theta) = sum_n u_jn e^{in theta}, n = -N..N, as a real (2N+1,
    branch) array: by the generalized parity u_jn lies on component n mod 2,
    and row n is that component, c_n for even n and -c_n for odd n.
    ``limit_convention`` marks the A = 0 resonant point where the stored
    basis is the A -> 0+ limit rather than a unique eigenbasis.  The scans
    and trains that share a solve share each dressed edge it keeps in
    ``edge_tables``, which die with it; an e^{inwt} table lives only as
    long as the call that sums with it.
    """

    eps0: float
    eps1: float
    table: np.ndarray
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

    @cached_property
    def edge_tables(self) -> dict:
        """``edge_rows`` by (edge length, step), as ``evolve._edge_rows`` builds them."""
        return {}

    def edge_rows(self, edge=None) -> tuple[int, np.ndarray]:
        """The harmonic n of the first row, and the rows of ``table`` from the
        first to the last with an entry above 1e-16 dressed by a pulse edge.

        ``edge`` holds the harmonics E_m, m = -K..K, of the edge's propagator
        as a function of the carrier phase it starts at, E(theta) = sum_m E_m
        e^{im theta}.  The dressed basis E(theta) B(theta) has the rows
        w_k = sum_m E_m u_{k-m}, K more on each side, summed one m at a time:
        E_m is diagonal for even m and off-diagonal for odd m (F(theta + pi) =
        sigma_z F(theta) sigma_z), so w_k lies on component k mod 2 as u_k
        does.  A sharp edge (None) leaves the rows as they are.
        """
        live = np.flatnonzero(np.abs(self.table).max(axis=1) > 1e-16)
        first, u = int(live[0]) - self.truncation_n, self.table[live[0] : live[-1] + 1]
        if edge is None:
            return first, u
        k = len(edge) // 2
        par = np.arange(first, first + len(u)) % 2
        rows = np.zeros((len(u) + 2 * k, 2), dtype=complex)
        for m, e in enumerate(edge, -k):
            rows[m + k : m + k + len(u)] += u * e[par ^ (m % 2), par][:, None]
        return first - k, rows

    def states_at(self, t: float, carrier_phase=0.0, rows=None) -> np.ndarray:
        """Instantaneous quasienergy states at time t, in the lab frame.

        Sums the plain rows of ``edge_rows()``, or the dressed ``rows`` of
        ``edge_rows(edge)``, at theta = omega t + carrier_phase into a 2x2
        matrix whose columns are u0(t), u1(t) (dressed: E(theta) u_j(t)), not
        renormalized, each component over its own rows; an array of carrier
        phases gives one such matrix per phase.  A basis that is not unitary
        to 1e-10 raises AccuracyError, which names ``truncation_n`` if the
        plain rows reach |n| = N, else the near-degenerate pair.
        """
        first, rows = self.edge_rows() if rows is None else rows
        n = np.arange(first, first + len(rows))
        shift = np.exp(1j * np.multiply.outer(self.omega * t + carrier_phase, n))
        sums = [(rows[c] * shift[..., c, None]).sum(axis=-2) for c in self.components(first)]
        basis = np.stack(sums, axis=-2)  # (..., component, branch)
        if (defect := unitarity_defect(basis)) > 1e-10:
            if np.abs(self.table[[0, -1]]).max() > 1e-16:  # the plain rows reach |n| = N
                cause = f"raise truncation_n (now {self.truncation_n})"
            else:
                cause = (f"eps0, eps1 near-degenerate mod omega (delta_eps = "
                         f"{self.delta_eps:.2e} rad/ns), which no truncation_n splits")
            raise AccuracyError(
                f"Floquet expansion at A = {self.amp:.6g} rad/ns: t = {t:.6g} basis unitarity "
                f"defect {defect:.2e} > 1e-10; {cause}"
            )
        return basis

    @staticmethod
    def components(first: int) -> tuple[slice, slice]:
        """Row slices on |0> and on |1> of rows whose first is harmonic ``first``."""
        return slice(first % 2, None, 2), slice(1 - first % 2, None, 2)


def reduce_to_zone(x, omega: float):
    """Reduce quasienergies to the window (-omega/2, omega/2].

    A value within a few ulps of -omega/2 is on the zone edge and maps to
    +omega/2, so round-off cannot choose the sign of an edge quasienergy
    (e.g. both monodromy eigenphases at A = 0 when Delta is an odd multiple
    of omega).  Elementwise on arrays; a float for scalar x.
    """
    x = np.asarray(x, dtype=float)
    r = x - omega * np.round(x / omega)
    r = np.where(r <= -0.5 * omega + 8.0 * np.spacing(0.5 * omega), r + omega, r)
    return float(r) if r.ndim == 0 else r


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


def _even_sector(delta, omega, truncation_n):
    """Diagonal n*omega - (Delta/2)(-1)^n of the tridiagonal Pi = +1 block in
    the basis |n> (x) |x = (-1)^n>; every off-diagonal entry is -A/2."""
    n = np.arange(-truncation_n, truncation_n + 1)
    return n * omega - 0.5 * delta * (1.0 - 2.0 * (n % 2))


#: Sweep cap of :func:`_sector_eigenvalues`; the default scans need 4-6.
_MAX_SWEEPS = 100

#: Smallest pivot magnitude of the twisted factorizations.
_PIVMIN = np.sqrt(np.finfo(float).tiny)


def _sector_eigenvalues(diag, off, ranks, start):
    """Eigenvalue of rank ranks[l] (0 = smallest) of lane l's tridiagonal
    matrix T_l, whose diagonal is ``diag`` and every off-diagonal off[l].

    A Sturm-safeguarded Newton iteration over all lanes at once.  One pass
    over the rows of the pivot recurrence q_i = (d_i - x) - off^2/q_{i-1}
    (T - x = L D L^T, D = diag(q)) gives both the Sturm count, the number of
    q_i < 0, which is the number of eigenvalues below x and so moves one end
    of the lane's bracket, and d/dx log|det(T - x)| = sum q_i'/q_i for a
    Newton step.  A step that leaves the bracket is replaced by its midpoint,
    and so is a zero pivot's NaN step.  Brackets start from Weyl's
    inequality, d_(k) +- 2|off|, and x from ``start`` clipped into them.  A
    lane is done when its step is at most 4 ulp of the matrix scale and the
    step's sign and the count name the wanted rank, or when its bracket is
    that narrow.  Raises NumericError after _MAX_SWEEPS sweeps.
    """
    e2 = off * off
    centre = np.sort(diag)[ranks]
    lo, hi = centre - 2.0 * np.abs(off), centre + 2.0 * np.abs(off)
    x = np.clip(start, lo, hi)
    tol = 4.0 * np.spacing(np.abs(diag).max() + 2.0 * np.abs(off))
    done = np.zeros(x.shape, dtype=bool)
    q = np.empty((len(diag), len(x)))
    w = np.empty_like(q)  # q_i' / q_i, from q_i' = -1 + (off^2 / q_{i-1}) (q_{i-1}' / q_{i-1})
    t = np.empty_like(x)
    sweeps = 0
    while not done.all():
        if sweeps == _MAX_SWEEPS:
            raise NumericError(
                f"Floquet sector eigenvalues not converged after {_MAX_SWEEPS} sweeps "
                f"for {len(diag)} photon indices"
            )
        sweeps += 1
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dmx = diag[:, None] - x
            q[0] = dmx[0]
            np.divide(-1.0, q[0], out=w[0])
            for i in range(1, len(diag)):
                np.divide(e2, q[i - 1], out=t)
                np.subtract(dmx[i], t, out=q[i])
                np.multiply(t, w[i - 1], out=w[i])
                w[i] -= 1.0
                w[i] /= q[i]
            step = -1.0 / w.sum(axis=0)
        count = np.count_nonzero(q < 0.0, axis=0)
        below = count <= ranks
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        small = np.abs(step) <= tol
        # close to an eigenvalue a step points at it, so x lies below the
        # eigenvalue of rank count (step > 0) or above that of count - 1
        wrong_root = small & (count - (step < 0.0) != ranks)
        newton = (x + step >= lo) & (x + step <= hi) & ~wrong_root
        x = np.where(done, x, np.where(newton, x + step, 0.5 * (lo + hi)))
        done |= (newton & small) | (hi - lo <= 2.0 * tol)
    return x


def _twisted_vectors(diag, off, lam):
    """Unit eigenvectors, one column per lane, of the lanes' tridiagonal
    matrices at their eigenvalues ``lam``.

    One twisted factorization per lane (Parlett & Dhillon 1997): the forward
    pivots D+ of T - lam = L D+ L^T and the backward pivots D- of
    T - lam = U D- U^T give the twist pivots gamma_r = D+_r + D-_r - (d_r -
    lam).  With v_r = 1 at the r of smallest |gamma_r|, v_i = -(off/D+_i)
    v_{i+1} above r and v_i = -(off/D-_i) v_{i-1} below it.  Pivots smaller
    than _PIVMIN are set to -_PIVMIN.
    """
    dmx = diag[:, None] - lam
    # row i holds D+_i and D-_{m-1-i}: one recurrence runs both directions
    pivots = np.stack([dmx, dmx[::-1]], axis=1)
    e2 = off * off
    for i in range(len(diag)):
        row = pivots[i]
        if i:
            row -= e2 / pivots[i - 1]
        np.copyto(row, -_PIVMIN, where=np.abs(row) < _PIVMIN)
    fwd, bwd = pivots[:, 0], pivots[::-1, 1]
    twist = np.argmin(np.abs(fwd + bwd - dmx), axis=0)
    rows = np.arange(len(diag))[:, None]
    # v_i as products of the ratios between r and i, all other factors 1
    above = np.where(rows < twist, -off / fwd, 1.0)
    below = np.where(rows > twist, -off / bwd, 1.0)
    v = np.cumprod(above[::-1], axis=0)[::-1] * np.cumprod(below, axis=0)
    return v / np.linalg.norm(v, axis=0)


def _branch_ranks(delta, omega, truncation_n):
    """Sorted positions of the two branches within the even sector.

    Fixed at the small amplitude A* = min(0.02 omega, 2 pi 0.05) by
    proximity to the closed-form values, which resolves the A -> 0 degeneracy
    at resonance and the ties with same-sector photon copies at odd
    multiphoton resonances.  An irreducible tridiagonal matrix has simple eigenvalues, so
    the positions hold for every A > 0.
    """
    a_star = min(0.02 * omega, TWO_PI * 0.05)
    diag = _even_sector(delta, omega, truncation_n)
    coupling = np.full(len(diag) - 1, -0.5 * a_star)
    try:
        evals = np.linalg.eigvalsh(np.diag(diag) + np.diag(coupling, 1) + np.diag(coupling, -1))
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"Floquet sector eigensolver failed for {len(diag)} photon indices"
        ) from exc
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
    for the eigenpairs at the two ranks of :func:`_branch_ranks`, all of
    them in one :func:`_sector_eigenvalues` iteration that starts from the
    closed-form values; A = 0
    returns the anchored states of :func:`_zero_amp_state`.  Returns one
    FloquetSpectrum per amplitude.
    """
    _check_floquet_args(omega, truncation_n)
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    if not np.all(np.isfinite(amps) & (amps >= 0.0)):
        raise ValueError("amplitudes must be finite and >= 0")

    diag = _even_sector(delta, omega, truncation_n)
    ranks = _branch_ranks(delta, omega, truncation_n)
    driven = amps[amps != 0.0]
    off = np.repeat(-0.5 * driven, 2)  # one lane per (amplitude, branch)
    start = np.column_stack(analytic_quasienergies(delta, driven, omega)).ravel()
    lam = _sector_eigenvalues(diag, off, np.tile(ranks, len(driven)), start)
    vecs = _twisted_vectors(diag, off, lam)
    lanes = iter(range(0, len(off), 2))
    results = []
    for a in amps:
        if a == 0.0:
            eps, c, limit = _zero_amp_state(delta, omega, truncation_n)
        else:
            j = next(lanes)
            eps, c, limit = lam[j : j + 2], vecs[:, j : j + 2], False
        results.append(
            _make_spectrum(delta, float(a), omega, truncation_n, eps, c, limit)
        )
    return results


def _make_spectrum(delta, amp, omega, truncation_n, eps, vecs, limit_convention):
    """The lab-frame table: the sector vectors c (one column per branch), each
    signed so that its largest |c_n| is positive, with the odd rows negated."""
    table = vecs * np.sign(vecs[np.argmax(np.abs(vecs), axis=0), [0, 1]])
    table[FloquetSpectrum.components(-truncation_n)[1]] *= -1.0
    return FloquetSpectrum(
        eps0=float(eps[0]),
        eps1=float(eps[1]),
        table=table,
        delta=delta,
        amp=amp,
        omega=omega,
        truncation_n=truncation_n,
        limit_convention=limit_convention,
    )


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

    Returns -arg(eigenvalues)/T = -+theta/T of U(T) for each amplitude
    (:func:`_monodromy_oracle`), each reduced to (-omega/2, omega/2], as
    (n, 2) sorted rows.  Independent of the Floquet-matrix route; serves as
    its oracle.
    """
    return _monodromy_oracle(delta, amplitudes, omega, integrator_step)[0]


#: Largest step-doubling estimate of the oracle's eigenphase error (rad/ns):
#: the tolerance it is an oracle to.
MONODROMY_TOL = 1e-8


def _monodromy_oracle(delta, amplitudes, omega, integrator_step=None):
    """Quasienergy rows of :func:`monodromy_quasienergies_batch` and their
    step-doubling error estimate (rad/ns).

    The steps per period, ceil(T / integrator_step) (default 2000), are
    rounded up to a multiple of 8, so the quarter period runs in an even
    number of steps n/4 and once more in n/8.  The 4th-order method's
    quasienergy error is then |theta_h - theta_2h| / (15 T), taken on theta
    in [0, pi], where it cannot wrap; its largest value over the batch is
    the estimate, and one above MONODROMY_TOL raises AccuracyError.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    amps = np.atleast_1d(np.asarray(amplitudes, dtype=float))
    period = TWO_PI / omega
    step = integrator_step if integrator_step is not None else period / 2000.0
    if step <= 0.0:
        raise ValueError("integrator_step must be positive")
    n_steps = 8 * max(1, int(np.ceil(period / step / 8.0)))
    theta = _su2_eigenphases(_monodromy_propagators(delta, amps, omega, n_steps // 4))
    coarse = _su2_eigenphases(_monodromy_propagators(delta, amps, omega, n_steps // 8))
    error = float(np.max(np.abs(theta - coarse), initial=0.0)) / (15.0 * period)
    if error > MONODROMY_TOL:
        raise AccuracyError(
            f"one-period propagator eigenphase error {error:.2e} rad/ns > {MONODROMY_TOL:g} "
            f"at {n_steps} steps per period; use a smaller integrator_step "
            "(CLI: [solver] monodromy_steps_per_period)"
        )
    eps = np.sort(reduce_to_zone(theta[:, None] * [-1.0, 1.0] / period, omega))
    return eps, error


def _monodromy_propagators(delta, amps, omega, quarter_steps):
    """U(T) of H = -Delta/2 sigma_z + A cos(omega t) sigma_x for each A, from
    one ``magnus_segment`` over [0, T/4] in ``quarter_steps`` steps.

    H is real and sigma_z H(t) sigma_z = H(T/2 - t) = H(t + T/2).  So
    U(T/2) = sigma_z U(T/4)^T sigma_z U(T/4) and
    U(T) = sigma_z U(T/2) sigma_z U(T/2), and both hold step for step: a
    reflected step's Gauss values (x1, x2) become (-x2, -x1), which maps its
    (ax, ay, az) to (-ax, ay, az), the step sigma_z U^T sigma_z.
    """
    quarter = 0.25 * TWO_PI / omega
    u = np.broadcast_to(IDENTITY2, (len(amps), 2, 2)).copy()
    u = magnus_segment(
        u,
        lambda t: amps[:, None] * np.cos(omega * t)[None, :],
        -0.5 * delta,
        0.0,
        quarter,
        quarter_steps,
    )
    half = matmul2(np.swapaxes(u, -1, -2) * SZ_CONJ, u)
    return matmul2(half * SZ_CONJ, half)


def _su2_eigenphases(u):
    """theta in [0, pi] of each U = a I - i b.sigma in SU(2), whose eigenvalues
    are exp(-+i theta): theta = atan2(|b|, a), accurate at 0 and pi alike."""
    a = 0.5 * (u[:, 0, 0] + u[:, 1, 1]).real
    bz = 0.5 * (u[:, 1, 1] - u[:, 0, 0]).imag
    bx = -0.5 * (u[:, 0, 1] + u[:, 1, 0]).imag
    by = 0.5 * (u[:, 1, 0] - u[:, 0, 1]).real
    return np.arctan2(np.sqrt(bx * bx + by * by + bz * bz), a)


# ---------------------------------------------------------------------------
# Closed-form (Bessel) chain
# ---------------------------------------------------------------------------


def _bessel(order: int, x):
    """J_order(x) = (1/pi) Int_0^pi cos(order tau - x sin tau) dtau (DLMF 10.9.1).

    The integrand is smooth and periodic, so the midpoint rule converges
    exponentially (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)); each x
    takes ceil(|x|) + 32 nodes, which matches scipy.special to a few 1e-15
    for |x| <= 100.  Evaluated at |x| and signed by parity, so J0 is exactly
    even and J1 exactly odd.  Elementwise on arrays; a float for scalar x.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x).ravel()
    nodes = 32 + np.ceil(np.where(np.isfinite(ax), ax, 0.0)).astype(int)
    out = np.empty_like(ax)
    for m in np.unique(nodes):
        sel = nodes == m
        tau = (np.arange(m) + 0.5) * (np.pi / m)
        out[sel] = np.cos(order * tau - ax[sel, None] * np.sin(tau)).sum(axis=1) / m
    if order % 2:
        out *= np.sign(x.ravel())
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def j0(x):
    """Bessel function J0, by :func:`_bessel`."""
    return _bessel(0, x)


def j1(x):
    """Bessel function J1, by :func:`_bessel`."""
    return _bessel(1, x)


def analytic_delta_epsilon(delta: float, amp, omega: float):
    """Generalized Rabi frequency sqrt((w - D J0)^2 + D^2 J1^2), args 2A/w.

    Elementwise over an array of amplitudes; a float for a scalar one."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    x = 2.0 * np.asarray(amp, dtype=float) / omega
    de = np.hypot(omega - delta * j0(x), delta * j1(x))
    return float(de) if np.ndim(de) == 0 else de


def analytic_quasienergies(delta: float, amp, omega: float):
    """Closed-form branch values -omega/2 -+ Omega_R/2, elementwise over an
    array of amplitudes."""
    half = 0.5 * analytic_delta_epsilon(delta, amp, omega)
    return (-0.5 * omega - half, -0.5 * omega + half)
