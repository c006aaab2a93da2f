"""Tomography: sampling, MLE, fidelity, bootstrap, pulse calibration."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.special import xlogy

from strongdrive import evolve
from strongdrive import tomography as tg
from strongdrive.errors import NumericError
from strongdrive.evolve import propagate_train
from strongdrive.model import PulseSpec, QubitParams, StateVector

MINUS_Y = tg.DensityMatrix.from_state(StateVector.minus_y())
EXCITED = tg.DensityMatrix.from_state(StateVector.excited())

# The pre-rotation R of each basis, Rx(pi/2) = exp(-i pi sigma_x / 4) and
# Ry(pi/2) = exp(-i pi sigma_y / 4): the oracle of ``tg._MEASUREMENTS``,
# which must give P1 = (R rho R^dag)[1, 1].
_SQ2 = 1.0 / np.sqrt(2.0)
ROTATIONS = {
    "id": np.eye(2, dtype=complex),
    "rx90": _SQ2 * np.array([[1.0, -1.0j], [-1.0j, 1.0]]),
    "ry90": _SQ2 * np.array([[1.0, -1.0], [1.0, 1.0]]),
}


def exact_records(state, shots):
    """Infinite-shot-limit records: exact probabilities as fractional counts."""
    return [tg.ShotRecord(b, shots, tg.measured_p1(state, b) * shots) for b in tg.BASES]


class TestDensityMatrix:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            tg.DensityMatrix(np.array([[0.6, 0.1j], [0.1j, 0.4]]))  # not hermitian
        with pytest.raises(ValueError):
            tg.DensityMatrix(np.diag([0.7, 0.4]))  # trace != 1
        with pytest.raises(ValueError):
            tg.DensityMatrix(np.diag([1.2, -0.2]))  # negative eigenvalue

    def test_normalizing_constructor_repairs_printed_matrix(self):
        rho = tg.DensityMatrix.from_matrix(
            [[0.00590452, -0.0709229 + 0.0289758j], [-0.0709229 - 0.0289758j, 0.994095]],
            normalize=True,
        )
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-15)

    def test_bloch(self):
        assert np.allclose(MINUS_Y.bloch(), [0.0, -1.0, 0.0], atol=1e-12)


class TestShots:
    def test_excited_all_counts(self):
        rec = tg.simulate_shots(StateVector.excited(), "id", 100, seed=1)
        assert rec.excited_counts == 100

    def test_ground_zero_counts(self):
        rec = tg.simulate_shots(StateVector.ground(), "id", 100, seed=1)
        assert rec.excited_counts == 0

    def test_equator_binomial_statistics(self):
        plus = StateVector.from_array([1.0, 1.0] / np.sqrt(2.0))
        rec = tg.simulate_shots(plus, "id", 16384, seed=3)
        assert abs(rec.excited_counts - 8192) < 4 * 64

    def test_deterministic_given_seed(self):
        a = tg.simulate_shots(StateVector.minus_y(), "ry90", 4096, seed=17)
        b = tg.simulate_shots(StateVector.minus_y(), "ry90", 4096, seed=17)
        assert a.excited_counts == b.excited_counts

    def test_basis_conventions(self):
        # -Y: measuring sigma_y via rx90 gives p1 = (1 - sy)/2 = 1
        assert tg.measured_p1(StateVector.minus_y(), "rx90") == pytest.approx(1.0)
        # +X state: ry90 gives p1 = (1 + sx)/2 = 1
        plus = StateVector.from_array([1.0, 1.0] / np.sqrt(2.0))
        assert tg.measured_p1(plus, "ry90") == pytest.approx(1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
        pure=st.booleans(),
    )
    def test_measurement_table_matches_rotations(self, parts, pure):
        # P1 = (1 - sign s_axis) / 2 of the table against (R rho R^dag)[1, 1]
        a = np.array(parts[0:4:2]) + 1j * np.array(parts[1:4:2])
        assume(np.linalg.norm(a) > 1e-3)
        if pure:
            state = StateVector.from_array(a / np.linalg.norm(a))
            rho = np.outer(state.as_array(), state.as_array().conj())
        else:
            m = np.stack([a, np.array(parts[4::2]) + 1j * np.array(parts[5::2])])
            rho = m @ m.conj().T
            rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
            state = tg.DensityMatrix(rho)
        for b, r in ROTATIONS.items():
            want = (r @ rho @ r.conj().T)[1, 1].real
            assert abs(tg.measured_p1(state, b) - want) <= 1e-15

    def test_record_validation(self):
        with pytest.raises(ValueError):
            tg.ShotRecord("id", 100, 101)
        with pytest.raises(ValueError):
            tg.ShotRecord("zz", 100, 10)


class TestMle:
    def test_exact_excited(self):
        rho = tg.mle_reconstruct(exact_records(StateVector.excited(), 16384))
        assert abs(rho.matrix[1, 1].real - 1.0) < 1e-6

    def test_bloch_outside_ball_projected(self):
        recs = [tg.ShotRecord(b, 1000, 1000) for b in tg.BASES]
        rho = tg.mle_reconstruct(recs)
        w = np.linalg.eigvalsh(rho.matrix)
        assert w[0] >= -1e-10
        assert np.linalg.norm(rho.bloch()) <= 1.0 + 1e-9

    def test_always_physical_on_random_counts(self, rng):
        for _ in range(30):
            counts = rng.integers(0, 257, size=3)
            recs = [tg.ShotRecord(b, 256, int(c)) for b, c in zip(tg.BASES, counts)]
            rho = tg.mle_reconstruct(recs).matrix
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10
            assert abs(np.trace(rho).real - 1.0) < 1e-12

    def test_roundtrip_median_fidelity(self, rng):
        fids = []
        for k in range(30):
            v = rng.standard_normal(4)
            psi = v[:2] + 1j * v[2:]
            psi /= np.linalg.norm(psi)
            st = StateVector.from_array(psi)
            recs = [
                tg.simulate_shots(st, b, 16384, seed=100 + 5 * k + i)
                for i, b in enumerate(tg.BASES)
            ]
            rho = tg.mle_reconstruct(recs)
            fids.append(tg.fidelity(rho, tg.DensityMatrix.from_state(st)))
        assert np.median(fids) > 0.999

    def test_statistical_consistency(self):
        # near-maximally-mixed state: per-component binomial std ~ 1/sqrt(shots)
        s = 0.1 * np.ones(3) / np.sqrt(3.0)
        sx = np.array([[0, 1], [1, 0]])
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1.0, -1.0])
        rho = tg.DensityMatrix(0.5 * (np.eye(2) + s[0] * sx + s[1] * sy + s[2] * sz))
        shots = 16384
        blochs = []
        for k in range(200):
            recs = [
                tg.simulate_shots(rho, b, shots, seed=7000 + 3 * k + i)
                for i, b in enumerate(tg.BASES)
            ]
            blochs.append(tg.mle_reconstruct(recs).bloch())
        std = np.std(np.array(blochs), axis=0, ddof=1)
        pred = 1.0 / np.sqrt(shots)
        assert np.all(np.abs(std - pred) < 0.15 * pred)

    def test_missing_basis_rejected(self):
        recs = [tg.ShotRecord("id", 100, 50), tg.ShotRecord("rx90", 100, 50)]
        with pytest.raises(ValueError):
            tg.mle_reconstruct(recs)


# ---------------------------------------------------------------------------
# Reference MLE: numerical maximization over a Cholesky parameterization,
# independent of the closed form.  rho = L L^dag / tr(L L^dag) with a
# lower-triangular L (4 real parameters) is positive with unit trace by
# construction; the binomial likelihood is maximized by L-BFGS-B with the
# analytic gradient, then Newton-polished to the gradient tolerance.
# ---------------------------------------------------------------------------

_P_CLIP = 1e-12

# Measurement operators M_b = R^dag |1><1| R, so p_b = tr(rho M_b).
_MEAS = {
    b: ROTATIONS[b].conj().T @ np.diag([0.0, 1.0]).astype(complex) @ ROTATIONS[b]
    for b in tg.BASES
}

# d L / d theta for L = [[a, 0], [c + i d, b]].
_DL = (
    np.array([[1, 0], [0, 0]], dtype=complex),
    np.array([[0, 0], [0, 1]], dtype=complex),
    np.array([[0, 0], [1, 0]], dtype=complex),
    np.array([[0, 0], [1j, 0]], dtype=complex),
)


def _rho_from_theta(theta):
    a, b, c, d = theta
    ell = np.array([[a, 0.0], [c + 1j * d, b]], dtype=complex)
    g = ell @ ell.conj().T
    tr = g[0, 0].real + g[1, 1].real
    return ell, g, tr


def _nll_and_grad(theta, records):
    ell, g, tr = _rho_from_theta(theta)
    if tr <= 0.0:
        return 1e300, np.zeros(4)
    rho = g / tr
    nll = 0.0
    grad = np.zeros(4)
    for rec in records:
        m = _MEAS[rec.basis]
        p = float(np.einsum("ij,ji->", rho, m).real)
        k, n = rec.excited_counts, rec.shots
        clipped = not (_P_CLIP < p < 1.0 - _P_CLIP)
        p_safe = min(max(p, _P_CLIP), 1.0 - _P_CLIP)
        nll -= k * np.log(p_safe) + (n - k) * np.log1p(-p_safe)
        if clipped:
            continue
        w = -(k / p_safe - (n - k) / (1.0 - p_safe))
        for i, dl in enumerate(_DL):
            dg = dl @ ell.conj().T + ell @ dl.conj().T
            drho = (dg - rho * np.trace(dg).real) / tr
            grad[i] += w * float(np.einsum("ij,ji->", drho, m).real)
    return nll, grad


def _polish_gradient(theta, records, tol=1e-10, iters=25):
    """Damped Newton steps on the analytic gradient.

    Near the optimum the NLL improvement per step falls below the float64
    resolution of the NLL value, where line-search methods stall; stepping
    on the gradient directly still converges.  The scale-gauge direction of
    the parameterization leaves the Hessian singular, so the solve is
    Levenberg-damped.
    """
    theta = np.asarray(theta, dtype=float).copy()
    _, g = _nll_and_grad(theta, records)
    lam = 1e-6
    for _ in range(iters):
        gn = np.max(np.abs(g))
        if gn < tol:
            break
        h = np.empty((4, 4))
        eps = 1e-7 * max(1.0, np.max(np.abs(theta)))
        for i in range(4):
            tp = theta.copy()
            tp[i] += eps
            tm = theta.copy()
            tm[i] -= eps
            h[:, i] = (_nll_and_grad(tp, records)[1] - _nll_and_grad(tm, records)[1]) / (2 * eps)
        h = 0.5 * (h + h.T)
        accepted = False
        for _ in range(12):
            try:
                step = np.linalg.solve(h + lam * np.eye(4), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            cand = theta + step
            _, g_cand = _nll_and_grad(cand, records)
            if np.max(np.abs(g_cand)) < gn:
                theta, g = cand, g_cand
                lam = max(lam / 3.0, 1e-9)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
    return theta, g


def _reference_mle(records):
    """Numerical MLE: (Bloch vector, max |gradient| reached)."""
    s = tg.bloch_from_records(records)
    r = np.linalg.norm(s)
    if r > 0.995:
        s = s * (0.995 / r)
    ell0 = np.linalg.cholesky(tg._rho_from_bloch(s) + 1e-12 * np.eye(2))
    starts = [
        np.array([ell0[0, 0].real, ell0[1, 1].real, ell0[1, 0].real, ell0[1, 0].imag]),
        np.array([0.7, 0.7, 0.0, 0.0]),
    ]
    best_x, best_g = None, None
    for theta0 in starts:
        res = optimize.minimize(
            _nll_and_grad,
            theta0,
            args=(records,),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-12},
        )
        x, grad = _polish_gradient(res.x, records)
        if best_g is None or np.max(np.abs(grad)) < np.max(np.abs(best_g)):
            best_x, best_g = x, grad
        if np.max(np.abs(best_g)) < 1e-9:
            break
    _, g, tr = _rho_from_theta(best_x)
    return tg.DensityMatrix(g / tr).bloch(), float(np.max(np.abs(best_g)))


def _p1(s):
    """Excited-state probability per basis for Bloch vector s."""
    return {"id": 0.5 * (1.0 - s[2]), "rx90": 0.5 * (1.0 - s[1]), "ry90": 0.5 * (1.0 + s[0])}


def _nll(s, records):
    """Exact binomial negative log-likelihood (0 log 0 = 0, no clip)."""
    p = _p1(s)
    out = 0.0
    for r in records:
        q = min(max(p[r.basis], 0.0), 1.0)
        out -= xlogy(r.excited_counts, q) + xlogy(r.shots - r.excited_counts, 1.0 - q)
    return out


def _log_likelihood_gradient(s, records):
    """d log L / d s_i: counts k+ for s_i = +1 and k- for s_i = -1 give
    k+ / (1 + s_i) - k- / (1 - s_i); a zero count contributes nothing."""
    by_basis = {r.basis: r for r in records}
    g = np.zeros(3)
    for i, (basis, excited_is_plus) in enumerate((("ry90", True), ("rx90", False), ("id", False))):
        r = by_basis[basis]
        k_exc, k_gnd = r.excited_counts, r.shots - r.excited_counts
        k_plus, k_minus = (k_exc, k_gnd) if excited_is_plus else (k_gnd, k_exc)
        if k_plus:
            g[i] += k_plus / (1.0 + s[i])
        if k_minus:
            g[i] -= k_minus / (1.0 - s[i])
    return g


def _random_records(rng, k):
    """Record sets of four kinds: pure states (about half outside the ball),
    depolarized states, uniform fractional counts, and axis states whose
    counts are 0 or n in some basis; the last three with unequal shots."""
    choices = np.array([64, 256, 1024, 4096, 16384])
    kind = k % 4
    shots = [int(rng.choice(choices))] * 3 if kind == 0 else [int(n) for n in rng.choice(choices, 3)]
    if kind == 2:
        return [tg.ShotRecord(b, n, rng.uniform(0.0, n)) for b, n in zip(tg.BASES, shots)]
    if kind == 3:
        state = (StateVector.excited(), StateVector.minus_y(), StateVector.ground())[(k // 4) % 3]
    else:
        v = rng.standard_normal(4)
        psi = v[:2] + 1j * v[2:]
        state = tg.DensityMatrix.from_state(StateVector.from_array(psi / np.linalg.norm(psi)))
        if kind == 1:
            state = tg.DensityMatrix(0.9 * state.matrix + 0.05 * np.eye(2))
    return [
        tg.simulate_shots(state, b, n, seed=int(rng.integers(2**31)))
        for b, n in zip(tg.BASES, shots)
    ]


_RECORD_DATA = st.lists(
    st.tuples(st.integers(1, 20000), st.floats(0.0, 1.0)), min_size=3, max_size=3
)


class TestClosedFormMle:
    def test_matches_numerical_reference(self):
        rng = np.random.default_rng(2012)
        n_outside = n_edge = 0
        for k in range(120):
            recs = _random_records(rng, k)
            got = tg.mle_reconstruct(recs).bloch()
            ref, ref_grad = _reference_mle(recs)
            n_outside += np.linalg.norm(tg.bloch_from_records(recs)) > 1.0
            if any(r.excited_counts in (0, r.shots) for r in recs):
                # the reference's 1e-12 probability clip can bind here; 1e-9
                # allows for the round-off of NLL values up to ~1e4
                n_edge += 1
                assert _nll(got, recs) <= _nll(ref, recs) + 1e-9
            else:
                assert ref_grad < 1e-9
                assert np.max(np.abs(got - ref)) <= 1e-9
        assert n_outside >= 30 and n_edge >= 20

    @settings(max_examples=300, deadline=None)
    @given(_RECORD_DATA)
    def test_result_is_physical(self, data):
        recs = [tg.ShotRecord(b, n, f * n) for b, (n, f) in zip(tg.BASES, data)]
        rho = tg.mle_reconstruct(recs)
        s = rho.bloch()
        assert np.linalg.norm(s) <= 1.0 + 1e-12
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-12
        assert np.min(np.linalg.eigvalsh(rho.matrix)) >= -1e-10
        s_hat = tg.bloch_from_records(recs)
        if np.linalg.norm(s_hat) <= 1.0:
            assert np.max(np.abs(s - s_hat)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 16384), st.floats(0.0, 1.0)), min_size=3, max_size=3))
    def test_boundary_optimum_satisfies_kkt(self, data):
        recs = [tg.ShotRecord(b, n, round(f * n)) for b, (n, f) in zip(tg.BASES, data)]
        assume(np.linalg.norm(tg.bloch_from_records(recs)) > 1.0)
        s = tg.mle_reconstruct(recs).bloch()
        g = _log_likelihood_gradient(s, recs)
        # gradient = 2 lam s with lam >= 0
        two_lam = g @ s
        assert two_lam > 0.0
        assert np.linalg.norm(g - two_lam * s) <= 1e-9 * np.linalg.norm(g)

    def test_batch_rows_match_single_calls(self, rng):
        s_hat = rng.uniform(-1.1, 1.1, size=(64, 3))
        shots = np.array([256.0, 1024.0, 4096.0])
        batch = tg._mle_bloch(s_hat, shots)
        for row, got in zip(s_hat, batch):
            assert np.max(np.abs(tg._mle_bloch(row[None, :], shots)[0] - got)) <= 1e-12


class TestFidelity:
    def test_self_fidelity_pure(self):
        assert tg.fidelity(MINUS_Y, MINUS_Y) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        zero = tg.DensityMatrix.from_state(StateVector.ground())
        assert tg.fidelity(zero, EXCITED) == pytest.approx(0.0, abs=1e-12)

    def test_pure_overlap_symmetry(self, rng):
        for _ in range(20):
            v = rng.standard_normal((2, 4))
            psi = v[:, :2] + 1j * v[:, 2:]
            psi /= np.linalg.norm(psi, axis=1, keepdims=True)
            a = tg.DensityMatrix.from_state(StateVector.from_array(psi[0]))
            b = tg.DensityMatrix.from_state(StateVector.from_array(psi[1]))
            overlap = abs(np.vdot(psi[0], psi[1]))
            assert tg.fidelity(a, b) == pytest.approx(overlap, abs=1e-12)
            assert tg.fidelity(b, a) == pytest.approx(overlap, abs=1e-12)

    def test_printed_matrices(self):
        rho_my = tg.DensityMatrix.from_matrix(
            [[0.511048, -0.0145217 + 0.499667j], [-0.0145217 - 0.499667j, 0.488952]],
            normalize=True,
        )
        rho_e = tg.DensityMatrix.from_matrix(
            [[0.00590452, -0.0709229 + 0.0289758j], [-0.0709229 - 0.0289758j, 0.994095]],
            normalize=True,
        )
        assert tg.fidelity(rho_my, MINUS_Y) == pytest.approx(0.9998, abs=0.0005)
        assert tg.fidelity(rho_e, EXCITED) == pytest.approx(0.9970, abs=0.0005)

    def test_mixed_state_against_general_formula(self, rng):
        from scipy.linalg import sqrtm

        for _ in range(10):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a = m @ m.conj().T
            a /= np.trace(a).real
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = m @ m.conj().T
            b /= np.trace(b).real
            sa = sqrtm(a)
            want = np.trace(sqrtm(sa @ b @ sa)).real
            got = tg.fidelity(
                tg.DensityMatrix.from_matrix(a, normalize=True),
                tg.DensityMatrix.from_matrix(b, normalize=True),
            )
            assert got == pytest.approx(want, abs=1e-9)


class TestBootstrap:
    def test_zero_variance_inputs(self):
        recs = [tg.ShotRecord(b, 1000, 1000) for b in tg.BASES]
        res = tg.bootstrap_errors(recs, EXCITED, b=100, seed=1)
        assert res.fidelity_stderr == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        recs = [
            tg.simulate_shots(StateVector.minus_y(), b, 4096, seed=40 + i)
            for i, b in enumerate(tg.BASES)
        ]
        r1 = tg.bootstrap_errors(recs, MINUS_Y, b=100, seed=4)
        r2 = tg.bootstrap_errors(recs, MINUS_Y, b=100, seed=4)
        assert r1.fidelity_stderr == r2.fidelity_stderr
        assert np.array_equal(r1.rho.matrix, r2.rho.matrix)

    def test_experiment_scale_stderr(self):
        # records from a state ~0.9996 away from -Y, the experiment's regime
        theta = 0.057
        rot_x = np.array(
            [[np.cos(theta / 2), -1j * np.sin(theta / 2)],
             [-1j * np.sin(theta / 2), np.cos(theta / 2)]]
        )
        st = StateVector.from_array(rot_x @ StateVector.minus_y().as_array())
        recs = [
            tg.simulate_shots(st, b, 16384, seed=700 + i) for i, b in enumerate(tg.BASES)
        ]
        res = tg.bootstrap_errors(recs, MINUS_Y, b=200, seed=7)
        assert 1e-4 < res.fidelity_stderr < 2e-3  # comparable to the quoted 6e-4

    def test_small_b_rejected(self):
        recs = exact_records(StateVector.minus_y(), 100)
        with pytest.raises(ValueError):
            tg.bootstrap_errors(recs, MINUS_Y, b=50, seed=0)


class TestBootstrapBatch:
    @pytest.mark.parametrize(
        "shots, theta", [((16384, 16384, 16384), 0.02), ((512, 1024, 4096), 0.08)]
    )
    def test_equals_per_resample_loop(self, shots, theta):
        rot_x = np.array(
            [[np.cos(theta / 2), -1j * np.sin(theta / 2)],
             [-1j * np.sin(theta / 2), np.cos(theta / 2)]]
        )
        state = StateVector.from_array(rot_x @ StateVector.minus_y().as_array())
        recs = [
            tg.simulate_shots(state, b, n, seed=900 + i)
            for i, (b, n) in enumerate(zip(tg.BASES, shots))
        ]
        res = tg.bootstrap_errors(recs, MINUS_Y, b=200, seed=11)

        # the per-resample procedure: one child stream per resample, probabilities
        # clipped to [0, 1], one reconstruction each
        by_basis = {r.basis: r for r in recs}
        s_hat = tg.bloch_from_records(recs)
        sigma = np.array(
            [
                2.0 * np.sqrt(by_basis[b].p1 * (1.0 - by_basis[b].p1) / by_basis[b].shots)
                for b in ("ry90", "rx90", "id")
            ]
        )
        fids, clipped = [], 0
        for child in np.random.SeedSequence(11).spawn(200):
            s_b = s_hat + sigma * np.random.default_rng(child).standard_normal(3)
            clipped += bool(np.any(np.abs(s_b) > 1.0))
            p = _p1(s_b)
            resampled = [
                tg.ShotRecord(b, by_basis[b].shots, np.clip(p[b], 0.0, 1.0) * by_basis[b].shots)
                for b in tg.BASES
            ]
            fids.append(tg.fidelity(tg.mle_reconstruct(resampled), MINUS_Y))
        assert clipped >= 5

        rho = tg.mle_reconstruct(recs)
        assert np.array_equal(res.rho.matrix, rho.matrix)
        assert res.fidelity_to_target == tg.fidelity(rho, MINUS_Y)
        assert abs(res.fidelity_stderr - np.std(fids, ddof=1)) <= 1e-12


@pytest.fixture(scope="module")
def cal_pulses():
    return tg.prerotation_pulses(QubitParams())


class TestCalibration:
    def test_calibrated_angle_error_bound(self, params, cal_pulses):
        est = tg.angle_calibration_sequence(params, cal_pulses["rx90"], 5)
        assert abs(est) < 0.003
        est_y = tg.angle_calibration_sequence(params, cal_pulses["ry90"], 5)
        assert abs(est_y) < 0.003

    def test_calibrated_axis_error_bound(self, params, cal_pulses):
        est = tg.axis_calibration_sequence(params, cal_pulses["rx90"], cal_pulses["ry90"], 5)
        assert abs(est) < 0.002

    def test_double_pulse_reaches_excited(self, params, cal_pulses):
        final = propagate_train(params, [cal_pulses["rx90"]] * 2)
        assert final.p1 > 1.0 - 0.002

    def test_identity_pulse_is_wait(self, params, cal_pulses):
        final = propagate_train(params, [cal_pulses["id"]], StateVector.ground())
        assert final.p1 < 1e-6

    def test_injected_angle_error_recovered(self, params, cal_pulses):
        rx = cal_pulses["rx90"]
        d = 0.005
        scale = (np.pi / 2 + d) / (np.pi / 2)
        scaled = PulseSpec(
            rx.amplitude_max * scale, params.delta, rx.t_rise, rx.t_plateau, rx.t_fall
        )
        est = tg.angle_calibration_sequence(params, scaled, 5)
        assert est == pytest.approx(d, rel=0.10)

    def test_injected_axis_error_recovered(self, params, cal_pulses):
        ry = cal_pulses["ry90"]
        phi = 0.004
        tilted = PulseSpec(
            ry.amplitude_max, params.delta, ry.t_rise, ry.t_plateau, ry.t_fall,
            ry.carrier_phase - phi,  # carrier phase -phi = axis tilt +phi
        )
        est = tg.axis_calibration_sequence(params, cal_pulses["rx90"], tilted, 5)
        assert est == pytest.approx(phi, rel=0.10)

    def test_one_family_build_per_calibration(self, params, monkeypatch):
        # every train of both root searches shares one edge series (rise and
        # fall are equal) and one plateau solve, and no call reuses another's
        # (the calibration solves its plateau itself and passes the solve to
        # every train, which would solve through evolve's sweep otherwise)
        builds = []
        for module, name in ((evolve, "_fall_series"), (evolve, "quasienergy_sweep"),
                             (tg, "quasienergy_sweep")):
            def spy(*args, _name=name, _build=getattr(module, name)):
                builds.append(_name)
                return _build(*args)

            monkeypatch.setattr(module, name, spy)
        tg.prerotation_pulses.__wrapped__(params)
        assert sorted(builds) == ["_fall_series", "quasienergy_sweep"]
        tg.prerotation_pulses.__wrapped__(params)
        assert sorted(builds) == ["_fall_series"] * 2 + ["quasienergy_sweep"] * 2

    def test_sequence_validation(self, params, cal_pulses):
        with pytest.raises(ValueError):
            tg.angle_calibration_sequence(params, cal_pulses["rx90"], 0)


def _bracketed(kind, r, c):
    """An increasing function with its root at r, of one of seven shapes."""
    return (
        lambda x: c * (x - r) ** 3 + (x - r),
        lambda x: math.sin(2.0 * (x - r)) + (2.0 + c) * (x - r),
        lambda x: math.expm1(c * (x - r)),
        lambda x: math.atan(10.0 * (x - r)),
        lambda x: math.tanh(50.0 * (x - r)),
        lambda x: c * (x - r) ** 5,  # flat at the root: often runs out of iterations
        # tiny values: the extrapolation's denominator underflows to 0
        lambda x: 1e-300 * (c * (x - r) ** 3 + (x - r)),
    )[kind]


def _root_or_none(solve, *args, **kwargs):
    """The root, or None when the solver runs out of iterations."""
    try:
        return solve(*args, **kwargs)
    except (RuntimeError, NumericError):
        return None


class TestBrentq:
    def test_matches_scipy_bitwise(self):
        rng = np.random.default_rng(7)
        converged = 0
        for k in range(3000):
            a, r, b = np.sort(rng.uniform(-3.0, 3.0, 3)).tolist()
            if k % 2:
                a, b = b, a
            f = _bracketed(k % 7, r, float(rng.uniform(0.1, 2.0)))
            xtol = 10.0 ** rng.uniform(-14.0, -2.0)
            ref = _root_or_none(optimize.brentq, f, a, b, xtol=xtol)
            assert _root_or_none(tg._brentq, f, a, b, xtol) == ref
            converged += ref is not None
        assert converged > 2800

    def test_calibration_roots_match_scipy_bitwise(self, params, cal_pulses):
        amp, edge = tg.PREROTATION_AMPLITUDE, tg.PREROTATION_EDGE
        rx = cal_pulses["rx90"]

        def angle_err(t_p):
            pulse = PulseSpec(amp, params.delta, edge, t_p, edge, 0.0)
            return tg.angle_calibration_sequence(params, pulse, 5)

        def axis_err(phi):
            pulse_y = PulseSpec(amp, params.delta, edge, rx.t_plateau, edge, phi)
            return tg.axis_calibration_sequence(params, rx, pulse_y, 5)

        t_guess = (np.pi / 2.0) / amp - edge
        t_ref = optimize.brentq(angle_err, 0.8 * t_guess, 1.2 * t_guess, xtol=1e-7)
        phi_ref = optimize.brentq(axis_err, -np.pi / 2 - 0.15, -np.pi / 2 + 0.15, xtol=1e-7)
        assert rx.t_plateau == t_ref
        assert cal_pulses["ry90"].carrier_phase == phi_ref

    def test_same_sign_bracket_raises(self):
        with pytest.raises(NumericError, match=r"\[1\.0, 2\.0\].*no sign change"):
            tg._brentq(lambda x: x, 1.0, 2.0, 1e-12)

    def test_nan_value_raises(self):
        # finite at the ends, NaN at the first bisection point x = 0
        f = lambda x: x if abs(x) > 0.5 else math.nan  # noqa: E731
        with pytest.raises(ValueError):
            optimize.brentq(f, -1.0, 1.0)
        with pytest.raises(NumericError, match=r"\[-1\.0, 1\.0\].*NaN"):
            tg._brentq(f, -1.0, 1.0, 1e-12)

    def test_no_convergence_raises(self):
        # a step bisects every time; 100 halvings cannot reach xtol = 1e-300
        f = lambda x: 1.0 if x > 1e-200 else -1.0  # noqa: E731
        with pytest.raises(RuntimeError):
            optimize.brentq(f, -1.0, 1.0, xtol=1e-300)
        with pytest.raises(NumericError, match=r"\[-1\.0, 1\.0\].*100 iterations"):
            tg._brentq(f, -1.0, 1.0, 1e-300)
