"""Floquet solver: matrix structure, parity-sector branches, oracle, analytic chain."""

import re

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy import special
from scipy.linalg import eigh_tridiagonal

from strongdrive import evolve as ev
from strongdrive import floquet as fq
from strongdrive._magnus import magnus_segment
from strongdrive.errors import AccuracyError, NumericError
from strongdrive.model import PulseSpec, QubitParams
from strongdrive.units import TWO_PI

DELTA = TWO_PI * 2.288

# pi/2 rotation about y taking the lab energy eigenbasis to the frame in
# which the Floquet matrix is real: psi_rot = ROT @ psi_lab.
ROT = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)


def _photon_indices(spec):
    """The harmonics n = -N..N of the rows of ``table``."""
    return np.arange(-spec.truncation_n, spec.truncation_n + 1)


def _lab(spec):
    """The lab table of ``spec`` as (harmonic, branch, component): row n of
    ``table`` on component n mod 2, the other component 0."""
    return np.einsum("nj,nk->njk", spec.table, np.eye(2)[_photon_indices(spec) % 2])


def _rotated(spec):
    """Each branch's lab table rotated into the Floquet matrix's frame and
    flattened to a vector over (n, spin), as ``build_floquet_matrix`` orders it."""
    return [(_lab(spec)[:, j] @ ROT.T).reshape(-1) for j in range(2)]


def _sector_vectors(spec):
    """The sector vectors c, one column per branch: row n of ``table`` is
    c_n for even n and -c_n for odd n."""
    return spec.table * np.where(_photon_indices(spec) % 2, -1.0, 1.0)[:, None]


def _bits(a):
    """The bytes of an array: equal only if every entry is, signed zeros too."""
    return np.ascontiguousarray(a).tobytes()


def _dense_table(spec):
    """The dense oracle of ``table``: the solve's sector vectors at its
    quasienergies, each signed so that its largest |c_n| is positive, as a
    (harmonic, branch, component) array whose even row n is (c_n, 0) and odd
    row (0, -c_n), the other slot filled with 0."""
    diag = fq._even_sector(spec.delta, spec.omega, spec.truncation_n)
    lam = np.array([spec.eps0, spec.eps1])
    vecs = fq._twisted_vectors(diag, np.full(2, -0.5 * spec.amp), lam)
    c = vecs * np.sign(vecs[np.argmax(np.abs(vecs), axis=0), [0, 1]])
    even = spec.truncation_n % 2  # the first row with n even
    table = np.zeros((len(c), 2, 2))
    table[even::2, :, 0] = c[even::2]
    table[1 - even::2, :, 1] = -c[1 - even::2]
    return table


def _dense_edge_rows(spec, table, edge):
    """The dense oracle of ``edge_rows``: the harmonic n of the first row, and
    the live rows of a dense table dressed one harmonic at a time,
    w_k = sum_m u_{k-m} E_m^T over both components."""
    live = np.flatnonzero(np.abs(table).max(axis=(1, 2)) > 1e-16)
    a, b = live[0], live[-1] + 1
    if edge is None:
        return a - spec.truncation_n, table[a:b]
    rows = np.zeros((b - a + len(edge) - 1, 2, 2), dtype=complex)
    for m, e in enumerate(edge):
        rows[m : m + b - a] += np.dot(table[a:b], e.T)
    return a - spec.truncation_n - len(edge) // 2, rows


def _dense_states(rows, first, omega, t, phase):
    """The dense oracle of ``states_at``: both components summed over every row."""
    n = np.arange(first, first + len(rows))
    shift = np.exp(1j * np.multiply.outer(omega * t + phase, n))
    return (rows * shift[..., None, None]).sum(axis=-3).swapaxes(-1, -2)


def central_block(delta):
    """The n = 0 diagonal block [[0, -Delta/2], [-Delta/2, 0]] of the Floquet matrix."""
    return np.array([[0.0, -0.5 * delta], [-0.5 * delta, 0.0]])


class TestMatrixConstruction:
    def test_dimensions_and_hermiticity(self):
        m = fq.build_floquet_matrix(DELTA, TWO_PI * 1.0, DELTA, 50)
        assert m.shape == (202, 202)
        assert np.array_equal(m, m.T)

    def test_block_structure(self):
        m = fq.build_floquet_matrix(3.0, 0.8, 2.0, 2)
        # central block at photon index 0 (blocks of 2, index 2 -> rows 4:6)
        assert m[4, 4] == 0.0
        assert m[4, 5] == -1.5
        # coupling to the next block carries -+ A/2 on the two spin rows
        assert m[4, 6] == -0.4
        assert m[5, 7] == 0.4
        assert m[4, 7] == 0.0

    def test_central_block_eigenvalues(self):
        blk = central_block(DELTA)
        assert np.allclose(blk, [[0.0, -DELTA / 2], [-DELTA / 2, 0.0]])
        assert np.allclose(np.linalg.eigvalsh(blk), [-DELTA / 2, DELTA / 2])

    def test_zero_drive_eigenvalues_are_shifted_pairs(self):
        omega = 0.6 * DELTA
        n = 8
        m = fq.build_floquet_matrix(DELTA, 0.0, omega, n)
        got = np.sort(np.linalg.eigvalsh(m))
        want = np.sort(
            np.concatenate(
                [[k * omega - DELTA / 2, k * omega + DELTA / 2] for k in range(-n, n + 1)]
            )
        )
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            fq.build_floquet_matrix(DELTA, 1.0, DELTA, 0)
        with pytest.raises(ValueError):
            fq.build_floquet_matrix(DELTA, 1.0, -1.0, 5)

    def test_ladder_property(self):
        omega = DELTA
        m = fq.build_floquet_matrix(DELTA, TWO_PI * 1.5, omega, 50)
        evals = np.sort(np.linalg.eigvalsh(m))
        interior = evals[np.abs(evals) < (50 - 10) * omega]
        for e in interior[:: len(interior) // 17 + 1]:
            assert np.min(np.abs(evals - (e + omega))) < 1e-6 * omega


class TestBranchTracking:
    def test_weak_limit_detuned(self):
        for factor in (0.6, 1.4):
            spec = fq.quasienergy_sweep(DELTA, factor * DELTA, [0.0])[0]
            assert spec.delta_eps == pytest.approx(abs(DELTA - factor * DELTA), abs=1e-12)

    def test_resonant_zero_drive_degenerate(self):
        spec = fq.quasienergy_sweep(DELTA, DELTA, [0.0])[0]
        assert spec.delta_eps == pytest.approx(0.0, abs=1e-12)
        assert spec.limit_convention

    def test_eigenvector_normalization_and_residual(self):
        amp = TWO_PI * 1.33
        spec = fq.quasienergy_sweep(DELTA, DELTA, [amp])[0]
        h = fq.build_floquet_matrix(DELTA, amp, DELTA, spec.truncation_n)
        for eps, v in zip((spec.eps0, spec.eps1), _rotated(spec)):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-10
            resid = np.linalg.norm(h @ v - eps * v)
            assert resid < 1e-9 * np.linalg.norm(h, 2)

    def test_mod_omega_classes_distinct(self):
        spec = fq.quasienergy_sweep(DELTA, DELTA, [TWO_PI * 1.0])[0]
        m0, m1 = spec.mod_omega()
        assert fq.zone_distance(m0, m1, spec.omega) > 1e-3

    def test_resonant_limit_states(self):
        # A -> 0+ on resonance: u0 -> (|0> - |1>)/sqrt2, u1 -> (|0> + |1>)/sqrt2
        spec = fq.quasienergy_sweep(DELTA, DELTA, [TWO_PI * 1e-4])[0]
        basis = spec.states_at(0.0)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(abs(np.vdot(minus, basis[:, 0])) - 1.0) < 1e-3
        assert abs(abs(np.vdot(plus, basis[:, 1])) - 1.0) < 1e-3

    def test_truncation_convergence(self):
        amp = TWO_PI * 4.78
        de50 = fq.quasienergy_sweep(DELTA, DELTA, [amp], 50)[0].delta_eps
        de30 = fq.quasienergy_sweep(DELTA, DELTA, [amp], 30)[0].delta_eps
        assert abs(de50 - de30) < 1e-10


def _renormalized_states(spec, t, phase):
    """The resummation ``states_at`` replaced: per branch, the rotated-frame
    table c_n (1, (-1)^n)/sqrt(2) summed over every n, rotated back to the
    lab frame and renormalized."""
    n = np.arange(-spec.truncation_n, spec.truncation_n + 1)
    spin = np.column_stack([np.ones(len(n)), (-1.0) ** n]) / np.sqrt(2.0)
    phases = np.exp(1j * n * (spec.omega * t + phase))
    cols = np.empty((2, 2), dtype=complex)
    for j, c in enumerate(_sector_vectors(spec).T):
        lab = ROT.T @ (phases @ (c[:, None] * spin))
        cols[:, j] = lab / np.linalg.norm(lab)
    return cols


class TestStatesAt:
    @pytest.mark.parametrize("factor", [1.0, 0.6, 1.4, 1.0 / 3.0])
    def test_matches_renormalized_loop(self, factor):
        amps = TWO_PI * np.array([0.0, 0.05, 0.46, 1.33, 2.7, 4.78])
        draws = np.random.default_rng(7).uniform(0.0, [20.0, TWO_PI], (5, 2))
        for spec in fq.quasienergy_sweep(DELTA, factor * DELTA, amps):
            for t, phase in draws:
                got = spec.states_at(t, phase)
                assert np.max(np.abs(got - _renormalized_states(spec, t, phase))) <= 1e-12

    def test_phase_batch_matches_single_phases(self):
        spec = fq.quasienergy_sweep(DELTA, DELTA, [TWO_PI * 1.33])[0]
        phases = np.random.default_rng(3).uniform(-50.0, 50.0, (4, 3))
        batch = spec.states_at(0.37, phases)
        assert batch.shape == (4, 3, 2, 2)
        for got, phase in zip(batch.reshape(-1, 2, 2), phases.ravel()):
            assert np.array_equal(got, spec.states_at(0.37, phase))

    def test_truncation_defect_raises(self):
        # N = 10 leaves a basis defect of about 1e-6 at 4.78 GHz, which
        # renormalizing each column used to hide.  Dressed by an edge, here
        # E(theta) = e^{i theta} sigma_x on rows one wider (an odd harmonic
        # flips the component, as an edge's does), the basis keeps the
        # defect and its cause.
        spec = fq.quasienergy_sweep(DELTA, DELTA, [TWO_PI * 4.78], 10)[0]
        kick = np.zeros((3, 2, 2))
        kick[2] = [[0.0, 1.0], [1.0, 0.0]]
        for rows in (None, spec.edge_rows(kick)):
            for t in (0.0, 0.37):
                with pytest.raises(AccuracyError, match=r"raise truncation_n \(now 10\)"):
                    spec.states_at(t, 0.4, rows)


class TestMonodromyOracle:
    def test_zero_drive(self):
        omega = 0.6 * DELTA
        eps = fq.monodromy_quasienergies(DELTA, 0.0, omega)
        expect = sorted(
            (fq.reduce_to_zone(-DELTA / 2, omega), fq.reduce_to_zone(DELTA / 2, omega))
        )
        assert np.allclose(eps, expect, atol=1e-10)

    @pytest.mark.parametrize("factor", [1.0, 1.0 / 3.0])
    def test_zone_edge_reported_as_plus_half_omega(self, factor):
        # at A = 0 with Delta an odd multiple of omega both eigenphases are
        # -1, on the zone edge; round-off must not pick -omega/2
        omega = factor * DELTA
        single = fq.monodromy_quasienergies(DELTA, 0.0, omega)
        batch = fq.monodromy_quasienergies_batch(DELTA, [0.0], omega)[0]
        for eps in (*single, *batch):
            assert eps == pytest.approx(0.5 * omega, abs=1e-9)

    def test_zero_splitting_pure_drive(self):
        eps = fq.monodromy_quasienergies(0.0 + 1e-300, TWO_PI * 2.0, TWO_PI * 1.0)
        assert abs(eps[0]) < 1e-9 and abs(eps[1]) < 1e-9

    def test_matches_floquet_matrix(self):
        # the oracle-equivalence property, spot-checked over the scan range
        rng = np.random.default_rng(11)
        for factor in (1.0, 0.6, 1.4):
            omega = factor * DELTA
            amps = np.sort(rng.uniform(0.0, 3.5 * omega, 6))
            specs = fq.quasienergy_sweep(DELTA, omega, amps)
            oracle = fq.monodromy_quasienergies_batch(DELTA, amps, omega)
            for s, pair in zip(specs, oracle):
                for x in s.mod_omega():
                    assert min(fq.zone_distance(x, y, omega) for y in pair) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(
        delta=st.floats(0.5, 20.0),
        omega=st.floats(0.5, 20.0),
        amp=st.floats(0.0, 20.0),
    )
    def test_amplitude_sign_is_a_half_period_shift(self, delta, omega, amp):
        # -A cos(wt) = A cos(w(t + T/2)): the one-period propagators at +-A
        # are conjugate, so their quasienergies agree mod omega
        plus, minus = fq.monodromy_quasienergies_batch(delta, [amp, -amp], omega)
        for a, b in ((plus, minus), (minus, plus)):
            for x in a:
                assert min(fq.zone_distance(x, y, omega) for y in b) <= 1e-10

    def test_convergence_in_step(self):
        omega = DELTA
        period = TWO_PI / omega
        a = TWO_PI * 2.0
        e1 = fq.monodromy_quasienergies(DELTA, a, omega, period / 2000)
        e2 = fq.monodromy_quasienergies(DELTA, a, omega, period / 4000)
        assert abs(e1[0] - e2[0]) < 1e-9

    @pytest.mark.parametrize(
        "oracle", ["monodromy_quasienergies", "monodromy_quasienergies_batch"]
    )
    def test_bad_step_rejected(self, oracle):
        with pytest.raises(ValueError):
            getattr(fq, oracle)(DELTA, 1.0, DELTA, -1.0)

    @pytest.mark.parametrize("factor", [1.0, 1.0 / 3.0, 0.6, 1.4])
    def test_su2_eigenphases_match_eigvals(self, factor):
        # the eigvals loop the SU(2) form replaced, on the oracle's own
        # propagators at its default 2000 steps per period; A = 0 with Delta
        # an odd multiple of omega puts both on the zone edge
        omega = factor * DELTA
        amps = np.concatenate([[0.0, 1e-6], np.linspace(0.1, 3.5, 9) * omega])
        got = fq.monodromy_quasienergies_batch(DELTA, amps, omega)
        period = TWO_PI / omega
        for u, row in zip(fq._monodromy_propagators(DELTA, amps, omega, 500), got):
            lam = np.linalg.eigvals(u)
            want = sorted(fq.reduce_to_zone(-np.angle(v) / period, omega) for v in lam)
            assert np.max(np.abs(row - want)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        delta=st.floats(0.5, 20.0),
        omega=st.floats(0.5, 20.0),
        amp=st.floats(0.0, 20.0),
        quarter_steps=st.integers(1, 600),
    )
    @example(delta=DELTA, omega=DELTA, amp=0.0, quarter_steps=500)
    @example(delta=DELTA, omega=DELTA / 3.0, amp=0.0, quarter_steps=500)
    @example(delta=20.0, omega=0.5, amp=20.0, quarter_steps=500)
    def test_quarter_period_composition_is_full_period_stepping(
        self, delta, omega, amp, quarter_steps
    ):
        # the half-period shift and time reversal hold step for step, so the
        # composed U(T) is the full-period Magnus product up to round-off
        amps = np.array([amp, -amp, 0.0])
        got = fq._monodromy_propagators(delta, amps, omega, quarter_steps)
        want = magnus_segment(
            np.broadcast_to(np.eye(2, dtype=complex), (3, 2, 2)).copy(),
            lambda t: amps[:, None] * np.cos(omega * t)[None, :],
            -0.5 * delta,
            0.0,
            TWO_PI / omega,
            4 * quarter_steps,
        )
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_single_amplitude_is_its_batch_row(self):
        omega = 0.6 * DELTA
        amps = [0.0, 1.0, TWO_PI * 2.0, TWO_PI * 4.78]
        batch = fq.monodromy_quasienergies_batch(DELTA, amps, omega)
        for a, row in zip(amps, batch):
            assert np.array_equal(fq.monodromy_quasienergies(DELTA, a, omega), row)

    def test_steps_per_period_round_up_to_a_multiple_of_8(self):
        omega, amps = DELTA, [TWO_PI * 1.33, TWO_PI * 4.78]
        period = TWO_PI / omega
        default = fq.monodromy_quasienergies_batch(DELTA, amps, omega)
        for steps, same in ((1993, True), (2001, False)):
            got = fq.monodromy_quasienergies_batch(DELTA, amps, omega, period / steps)
            assert np.array_equal(got, default) == same

    @pytest.mark.parametrize("factor", [1.0, 0.6, 1.4])
    def test_step_doubling_estimate_is_the_step_error(self, factor):
        # criterion 01's grid at the default step, against 16,000 steps per period
        omega = factor * DELTA
        amps = np.linspace(0.0, 2.1, 100) * DELTA
        period = TWO_PI / omega
        _, estimate = fq._monodromy_oracle(DELTA, amps, omega)
        theta, fine = (
            fq._su2_eigenphases(fq._monodromy_propagators(DELTA, amps, omega, q))
            for q in (500, 4000)
        )
        error = np.max(np.abs(theta - fine)) / period
        assert 1e-12 < error and abs(estimate - error) <= 0.01 * error

    def test_coarse_step_raises_with_the_estimate(self):
        period = TWO_PI / DELTA
        with pytest.raises(AccuracyError) as exc:
            fq.monodromy_quasienergies_batch(DELTA, [TWO_PI * 2.0], DELTA, period / 8)
        msg = str(exc.value)
        assert re.search(r"eigenphase error \d\.\d\de[-+]\d+ rad/ns > 1e-08 at 8 steps", msg)
        assert "integrator_step" in msg and "[solver] monodromy_steps_per_period" in msg

    def test_su2_eigenphases_at_plus_and_minus_identity(self):
        rng = np.random.default_rng(5)
        sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        theta = np.concatenate([[0.0, 1e-9, np.pi - 1e-9, np.pi], rng.uniform(0, np.pi, 60)])
        axis = rng.normal(size=(len(theta), 3))
        axis /= np.linalg.norm(axis, axis=1)[:, None]
        b_sigma = np.einsum("na,aij->nij", axis, sigma)
        u = np.cos(theta)[:, None, None] * np.eye(2) - 1j * np.sin(theta)[:, None, None] * b_sigma
        got = fq._su2_eigenphases(u)
        want = [np.max(np.abs(np.angle(np.linalg.eigvals(x)))) for x in u]
        assert np.max(np.abs(got - want)) <= 1e-14
        assert got[0] == 0.0 and got[3] == np.pi

    def test_reduce_to_zone_arrays_match_scalars(self):
        omega = 1.7
        x = np.concatenate([np.linspace(-5.0, 5.0, 101), [-0.5 * omega, 0.5 * omega]])
        got = fq.reduce_to_zone(x, omega)
        assert isinstance(fq.reduce_to_zone(0.3, omega), float)
        assert got.tolist() == [fq.reduce_to_zone(float(v), omega) for v in x]
        assert fq.reduce_to_zone(-0.5 * omega, omega) == 0.5 * omega


class TestParitySector:
    @settings(max_examples=60, deadline=None)
    @given(
        delta=st.floats(0.5, 20.0),
        amp=st.floats(1e-3, 20.0),
        omega=st.floats(0.5, 20.0),
        n_trunc=st.integers(2, 25),
    )
    def test_branches_are_even_eigenpairs_of_full_matrix(self, delta, amp, omega, n_trunc):
        spec = fq.quasienergy_sweep(delta, omega, [amp], n_trunc)[0]
        h = fq.build_floquet_matrix(delta, amp, omega, n_trunc)
        evals = np.linalg.eigvalsh(h)
        h_norm = np.linalg.norm(h, 2)
        assert spec.eps0 <= spec.eps1
        for eps, v in zip((spec.eps0, spec.eps1), _rotated(spec)):
            assert np.min(np.abs(evals - eps)) < 1e-10
            assert np.linalg.norm(h @ v - eps * v) <= 1e-9 * h_norm
        assert spec.table.shape == (2 * n_trunc + 1, 2) and spec.table.dtype == np.float64

    @settings(max_examples=100, deadline=None)
    @given(
        delta=st.floats(1.0, 30.0),
        omega=st.floats(1.0, 30.0),
        amp_per_omega=st.floats(1e-3, 3.0),
        t_edge=st.floats(0.02, 4.0),
        draw=st.floats(0.0, 1.0),
    )
    def test_rows_are_the_dense_oracles_right_parity_entries(
        self, delta, omega, amp_per_omega, t_edge, draw
    ):
        # Pi = +1: harmonic n lies on component n mod 2 alone, so the compact
        # plain and dressed rows are the dense oracle's right-parity entries
        # bit for bit, its other entries are exactly 0, and each component
        # summed over its own rows gives the dense sum's bits
        amp = amp_per_omega * omega
        spec = fq.quasienergy_sweep(delta, omega, [amp])[0]
        fall = PulseSpec(amp, omega, t_fall=t_edge)
        try:
            series = ev._fall_series(QubitParams(delta), fall, ev._pulse_steps(fall)[2])
        except AccuracyError:
            reject()  # a series over FALL_PHASES_CAP
        dense = _dense_table(spec)
        i, par = np.arange(len(dense)), _photon_indices(spec) % 2
        assert _bits(spec.table) == _bits(dense[i, :, par])
        assert not dense[i, :, 1 - par].any()
        for edge in (None, series):
            first, rows = spec.edge_rows(edge)
            want_first, want = _dense_edge_rows(spec, dense, edge)
            assert first == want_first and rows.shape == want.shape[:2]
            i = np.arange(len(rows))
            par = (first + i) % 2
            assert _bits(rows) == _bits(want[i, :, par])
            assert not want[i, :, 1 - par].any()
            phases = TWO_PI * draw + np.linspace(0.0, TWO_PI, 5)
            got = spec.states_at(0.0, phases, (first, rows))
            assert _bits(got) == _bits(_dense_states(want, first, omega, 0.0, phases))

    @pytest.mark.parametrize("factor", [1.0, 0.6, 1.4])
    def test_eigenvectors_continuous_in_amplitude(self, factor):
        # 0.9: the step-to-step overlap an eigenvector-continuity tracker requires
        omega = factor * DELTA
        amps = np.linspace(1e-3, TWO_PI * 4.8048, 481)
        specs = fq.quasienergy_sweep(DELTA, omega, amps)
        for prev, cur in zip(specs, specs[1:]):
            for j in range(2):
                assert abs(np.vdot(prev.table[:, j], cur.table[:, j])) >= 0.9

    # eps0, eps1 (rad/ns) recorded from an eigenvector-overlap tracker on the
    # full Floquet matrix (bisecting below overlap 0.9); omega = Delta/3 and
    # Delta/7 are odd multiphoton resonances, where the A = 0 anchor ties with
    # a same-sector photon copy
    @pytest.mark.parametrize(
        "divisor, amp_ghz, eps0, eps1",
        [
            (3, 0.5, -6.816485170720197, 2.024509176444575),
            (3, 1.5, -4.5023823615971335, -0.2895936326785204),
            (3, 3.0, -5.265427554985276, 0.47345156070963523),
            (3, 4.5, -3.762881916694722, -1.0290940775809296),
            (7, 0.5, -6.849693888250084, 4.7959898907033836),
            (7, 1.5, -5.592769733792991, 3.5390657362462936),
            (7, 3.0, -6.331985931716017, 4.278281934169322),
            (7, 4.5, -6.6608098853354845, 4.607105887788776),
        ],
    )
    def test_multiphoton_branch_labels(self, divisor, amp_ghz, eps0, eps1):
        spec = fq.quasienergy_sweep(DELTA, DELTA / divisor, [TWO_PI * amp_ghz])[0]
        assert spec.eps0 == pytest.approx(eps0, abs=1e-10)
        assert spec.eps1 == pytest.approx(eps1, abs=1e-10)

    def test_largest_sector_coefficient_positive(self):
        amps = TWO_PI * np.array([0.0, 0.3, 1.33, 2.7, 4.78])
        for factor in (1.0, 0.6, 1.4, 1.0 / 3.0):
            for spec in fq.quasienergy_sweep(DELTA, factor * DELTA, amps):
                for c in _sector_vectors(spec).T:
                    assert c[np.argmax(np.abs(c))] > 0.0
                    assert abs(np.linalg.norm(c) - 1.0) < 1e-12


def _assert_sector_matches_lapack(delta, omega, amps, n_trunc=fq.DEFAULT_TRUNCATION):
    """The oracle: eigh_tridiagonal at the sweep's two ranks."""
    diag = fq._even_sector(delta, omega, n_trunc)
    ranks = fq._branch_ranks(delta, omega, n_trunc)
    for amp, spec in zip(amps, fq.quasienergy_sweep(delta, omega, amps, n_trunc)):
        off = np.full(2 * n_trunc, -0.5 * amp)
        w, v = eigh_tridiagonal(diag, off, select="i", select_range=ranks)
        assert np.max(np.abs([spec.eps0 - w[0], spec.eps1 - w[-1]])) <= 1e-12
        for c, want in zip(_sector_vectors(spec).T, (v[:, 0], v[:, -1])):
            assert min(np.max(np.abs(c - want)), np.max(np.abs(c + want))) <= 1e-12


class TestSectorSolve:
    """The numpy sector solve against LAPACK's tridiagonal eigensolver."""

    @settings(max_examples=60, deadline=None)
    @given(
        delta=st.floats(0.5, 20.0),
        omega=st.floats(0.5, 20.0),
        amps=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=6),
        n_trunc=st.integers(2, 50),
    )
    def test_matches_eigh_tridiagonal(self, delta, omega, amps, n_trunc):
        _assert_sector_matches_lapack(delta, omega, amps, n_trunc)

    @pytest.mark.parametrize("divisor", [1, 3, 7])  # resonance and odd multiphoton resonances
    def test_matches_eigh_tridiagonal_at_resonances(self, divisor):
        amps = TWO_PI * np.array([1e-3 / TWO_PI, 0.01, 0.3, 1.0, 2.4048, 4.8])
        _assert_sector_matches_lapack(DELTA, DELTA / divisor, amps)

    def test_matches_eigh_tridiagonal_as_amplitude_goes_to_zero(self):
        _assert_sector_matches_lapack(DELTA, DELTA, [1e-3, 1e-4])
        _assert_sector_matches_lapack(DELTA, 0.6 * DELTA, [1e-6, 1e-9, 1e-12])

    def test_sweep_cap_raises_numeric_error(self, monkeypatch):
        monkeypatch.setattr(fq, "_MAX_SWEEPS", 2)
        with pytest.raises(NumericError, match="101 photon indices"):
            fq.quasienergy_sweep(DELTA, DELTA, [TWO_PI * 1.0])

    def test_exact_zero_pivots(self):
        # zero diagonal, unit coupling: eigenvalues 2 cos(k pi / 6), and x = 0
        # or +-1 makes a pivot exactly zero in both recurrences
        m = 5
        t = np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)
        w, v = np.linalg.eigh(t)
        off = np.ones(m)
        lam = fq._sector_eigenvalues(np.zeros(m), off, np.arange(m), np.zeros(m))
        assert np.max(np.abs(lam - w)) <= 1e-14
        got = fq._twisted_vectors(np.zeros(m), off, lam)
        assert np.max(np.minimum(np.abs(got - v), np.abs(got + v))) <= 1e-14

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_bad_amplitude_rejected(self, bad):
        with pytest.raises(ValueError, match="amplitudes"):
            fq.quasienergy_sweep(DELTA, DELTA, [1.0, bad])

    def test_zero_amplitudes_only(self):
        specs = fq.quasienergy_sweep(DELTA, 0.6 * DELTA, [0.0, 0.0])
        assert [s.delta_eps for s in specs] == [0.4 * DELTA, 0.4 * DELTA]


class TestBessel:
    @pytest.mark.parametrize("order, oracle", [(0, special.j0), (1, special.j1)])
    def test_matches_scipy(self, order, oracle):
        x = np.concatenate(
            [np.linspace(-100.0, 100.0, 20001), np.random.default_rng(3).uniform(-100, 100, 5000)]
        )
        got = fq.j0(x) if order == 0 else fq.j1(x)
        assert np.max(np.abs(got - oracle(x))) <= 4e-15

    def test_parity_is_exact(self):
        x = np.linspace(0.0, 100.0, 3001)
        assert np.array_equal(fq.j0(-x), fq.j0(x))
        assert np.array_equal(fq.j1(-x), -fq.j1(x))

    def test_scalars_give_floats_equal_to_array_entries(self):
        x = np.linspace(-7.0, 7.0, 57)
        for fn in (fq.j0, fq.j1):
            assert all(type(fn(float(v))) is float for v in x[:3])
            assert [fn(float(v)) for v in x] == fn(x).tolist()
        assert fq.j1(np.zeros((2, 3))).shape == (2, 3)

    def test_analytic_functions_vectorize(self):
        amps = np.linspace(0.0, 30.0, 41)
        de = fq.analytic_delta_epsilon(DELTA, amps, 0.6 * DELTA)
        e0, e1 = fq.analytic_quasienergies(DELTA, amps, 0.6 * DELTA)
        assert de.tolist() == [fq.analytic_delta_epsilon(DELTA, a, 0.6 * DELTA) for a in amps]
        pairs = [fq.analytic_quasienergies(DELTA, a, 0.6 * DELTA) for a in amps]
        assert (e0.tolist(), e1.tolist()) == tuple(map(list, zip(*pairs)))
        assert type(fq.analytic_delta_epsilon(DELTA, 1.0, DELTA)) is float


# The paper's derivation of the closed form: the rotating-frame 4x4 matrix
# kept by the near-degenerate truncation, the pairwise Hadamard transform
# that decouples it, and the 2x2 block whose eigenvalues are the closed-form
# quasienergies.


def truncated_4x4_hamiltonian(delta, amp, omega):
    b0 = 0.5 * delta * fq.j0(2.0 * amp / omega)
    b1 = 0.5 * delta * fq.j1(2.0 * amp / omega)
    return np.array(
        [
            [-omega, -b0, 0.0, -b1],
            [-b0, -omega, b1, 0.0],
            [0.0, b1, 0.0, -b0],
            [-b1, 0.0, -b0, 0.0],
        ]
    )


def block_basis_transform():
    s = np.zeros((4, 4))
    s[0, 0] = s[1, 0] = s[0, 1] = 1.0
    s[1, 1] = -1.0
    s[2, 2] = s[3, 2] = s[2, 3] = 1.0
    s[3, 3] = -1.0
    return s / np.sqrt(2.0)


def truncated_2x2_block(delta, amp, omega):
    b0 = delta * fq.j0(2.0 * amp / omega)
    b1 = delta * fq.j1(2.0 * amp / omega)
    return 0.5 * np.array([[-2.0 * omega + b0, -b1], [-b1, -b0]])


class TestAnalyticChain:
    def test_zero_drive_exact(self):
        for factor in (1.0, 0.6, 1.4):
            omega = factor * DELTA
            assert fq.analytic_delta_epsilon(DELTA, 0.0, omega) == abs(omega - DELTA)

    def test_weak_drive_resonant(self):
        for a in np.linspace(1e-4, 0.1, 20) * DELTA:
            got = fq.analytic_delta_epsilon(DELTA, a, DELTA)
            assert got == pytest.approx(a, rel=0.01)

    def test_first_j0_zero_point(self):
        # 2A/w at the first zero of J0: Omega = w * sqrt(1 + J1^2)
        x0 = 2.404825557695773
        a = 0.5 * x0 * DELTA
        got = fq.analytic_delta_epsilon(DELTA, a, DELTA)
        want = DELTA * np.hypot(1.0, special.j1(x0))
        assert got == pytest.approx(want, rel=1e-12)
        assert got / DELTA == pytest.approx(1.1268, abs=2e-4)

    def test_quasienergy_pair_consistency(self, rng):
        for _ in range(100):
            d, a, w = rng.uniform(0.5, 30.0, 3)
            e0, e1 = fq.analytic_quasienergies(d, a, w)
            assert e1 - e0 == pytest.approx(fq.analytic_delta_epsilon(d, a, w), rel=1e-14)

    def test_block_eigenvalues_match_closed_form(self, rng):
        for _ in range(100):
            d, a, w = rng.uniform(0.5, 30.0, 3)
            evals = np.sort(np.linalg.eigvalsh(truncated_2x2_block(d, a, w)))
            want = np.array(fq.analytic_quasienergies(d, a, w))
            assert np.max(np.abs(evals - want)) < 1e-12 * max(1.0, w)

    def test_4x4_contains_block_after_transform(self, rng):
        s = block_basis_transform()
        assert np.allclose(s.T @ s, np.eye(4), atol=1e-15)
        d, a, w = 14.4, 6.0, 13.0
        h4 = truncated_4x4_hamiltonian(d, a, w)
        tilde = s.T @ h4 @ s
        block = tilde[1:3, 1:3]
        assert np.allclose(block, truncated_2x2_block(d, a, w), atol=1e-14)

    def test_4x4_zero_drive_degenerates(self):
        h4 = truncated_4x4_hamiltonian(DELTA, 0.0, DELTA)
        evals = np.sort(np.linalg.eigvalsh(h4))
        want = np.sort([-DELTA - DELTA / 2, -DELTA + DELTA / 2, -DELTA / 2, DELTA / 2])
        assert np.allclose(evals, want, atol=1e-12)

