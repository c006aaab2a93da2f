"""Model layer: device parameters, pulse envelope, Hamiltonian, units."""

import numpy as np
import pytest

from strongdrive.model import BlochVector, PulseSpec, QubitParams, StateVector, envelope
from strongdrive.units import TWO_PI, ghz_to_rad_per_ns, rad_per_ns_to_ghz

#: Planck constant in J*s and elementary charge in C: exact in the 2019 SI.
_H = 6.62607015e-34
_E = 1.602176634e-19

#: Magnetic flux quantum h/(2e) in Wb.
PHI0 = _H / (2.0 * _E)

#: Reduced Planck constant in J*s.
HBAR = _H / TWO_PI

#: The device's loop persistent current I_p, nA.
PERSISTENT_CURRENT_NA = 690.0


def hamiltonian_at(params, pulse, t):
    """2x2 Hamiltonian -Delta/2 sigma_z + A(t) cos(omega t + phi) sigma_x at
    time t (hbar = 1, rad/ns), the model every propagator integrates; the
    drive is zero outside the pulse support."""
    t = float(t)
    x = envelope(pulse, t, allow_outside=True) * np.cos(pulse.carrier * t + pulse.carrier_phase)
    h = np.zeros((2, 2), dtype=complex)
    h[0, 0] = -0.5 * params.delta
    h[1, 1] = 0.5 * params.delta
    h[0, 1] = x
    h[1, 0] = x
    return h


def transition_frequency(params, flux_offset, persistent_current_na=PERSISTENT_CURRENT_NA):
    """Qubit transition frequency sqrt(Delta^2 + eps^2) in rad/ns away from
    the symmetry point.

    ``flux_offset`` is (Phi_s - Phi_0/2) in units of the flux quantum; the
    energy bias is eps = 2 I_p (Phi_s - Phi_0/2) / hbar converted to rad/ns.
    """
    eps_rad_per_s = 2.0 * (persistent_current_na * 1e-9) * (flux_offset * PHI0) / HBAR
    return float(np.hypot(params.delta, eps_rad_per_s * 1e-9))


class TestQubitParams:
    def test_defaults_match_device(self):
        p = QubitParams()
        assert p.delta == pytest.approx(TWO_PI * 2.288, rel=1e-15)

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            QubitParams(delta=0.0)

    @pytest.mark.parametrize("delta", [np.inf, np.nan])
    def test_delta_must_be_finite(self, delta):
        with pytest.raises(ValueError, match="delta"):
            QubitParams(delta=delta)


class TestEnvelope:
    def setup_method(self):
        self.pulse = PulseSpec(TWO_PI * 1.0, TWO_PI * 2.288, 2.0, 5.0, 3.0)

    def test_endpoints_and_midpoints(self):
        am = self.pulse.amplitude_max
        assert envelope(self.pulse, 0.0) == 0.0
        assert envelope(self.pulse, 2.0) == pytest.approx(am, abs=1e-15)
        assert envelope(self.pulse, 1.0) == pytest.approx(am / 2.0, abs=1e-12)
        assert envelope(self.pulse, 10.0) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            envelope(self.pulse, -0.1)
        with pytest.raises(ValueError):
            envelope(self.pulse, 10.1)
        assert envelope(self.pulse, 10.1, allow_outside=True) == 0.0

    def test_continuity_on_dense_grid(self):
        t = np.linspace(0.0, self.pulse.total, 200001)
        a = envelope(self.pulse, t)
        assert np.max(np.abs(np.diff(a))) < 1e-3 * self.pulse.amplitude_max

    def test_zero_rise_is_step(self):
        p = PulseSpec(1.0, 1.0, 0.0, 2.0, 0.0)
        assert envelope(p, 0.0) == 1.0
        assert envelope(p, 2.0) == 1.0

    def test_negative_durations_rejected(self):
        with pytest.raises(ValueError):
            PulseSpec(1.0, 1.0, -0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            PulseSpec(-1.0, 1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "field", ["amplitude_max", "carrier", "t_rise", "t_plateau", "t_fall", "carrier_phase"]
    )
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_field_rejected(self, field, value):
        # an infinite plateau would turn the Floquet sum into NaN unnoticed
        fields = {"amplitude_max": 1.0, "carrier": 1.0, "t_rise": 0.5, "t_plateau": 3.0,
                  "t_fall": 0.5, "carrier_phase": 0.0}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PulseSpec(**{**fields, field: value})

    @pytest.mark.parametrize("carrier", [0.0, -TWO_PI * 2.288, np.nan])
    def test_non_positive_carrier_rejected(self, carrier):
        # cos(-wt) = cos(wt), but the default step T/200 = 2 pi / (200 w)
        # would be negative (one step per interval) or a division by zero
        with pytest.raises(ValueError, match="carrier"):
            PulseSpec(1.0, carrier, 0.5, 3.0, 0.5)


class TestHamiltonian:
    def test_undriven_is_diagonal(self, params):
        pulse = PulseSpec(0.0, params.delta, 0.0, 10.0, 0.0)
        h = hamiltonian_at(params, pulse, 3.0)
        assert h[0, 0] == -0.5 * params.delta
        assert h[1, 1] == 0.5 * params.delta
        assert h[0, 1] == 0.0

    def test_drive_node(self, params):
        pulse = PulseSpec(TWO_PI * 1.0, params.delta, 0.0, 10.0, 0.0)
        t_node = (np.pi / 2.0) / params.delta
        h = hamiltonian_at(params, pulse, t_node)
        assert abs(h[0, 1]) < 1e-12

    def test_peak_drive_entries(self, params):
        pulse = PulseSpec(TWO_PI * 1.0, params.delta, 0.0, 10.0, 0.0)
        h = hamiltonian_at(params, pulse, 0.0)  # cos(0) = 1
        assert h[0, 1] == pytest.approx(TWO_PI * 1.0, rel=1e-15)
        assert h[0, 0] == pytest.approx(-np.pi * 2.288, rel=1e-15)

    def test_exactly_hermitian(self, params, rng):
        pulse = PulseSpec(TWO_PI * 0.7, params.delta, 1.0, 4.0, 1.0, 0.3)
        for t in rng.uniform(0.0, pulse.total, 50):
            h = hamiltonian_at(params, pulse, t)
            assert np.array_equal(h, h.conj().T)

    def test_zero_outside_support(self, params):
        pulse = PulseSpec(TWO_PI * 1.0, params.delta, 0.5, 1.0, 0.5)
        h = hamiltonian_at(params, pulse, 5.0)
        assert h[0, 1] == 0.0


class TestTransitionFrequency:
    def test_symmetry_point(self, params):
        assert transition_frequency(params, 0.0) == pytest.approx(params.delta, rel=1e-15)

    def test_even_and_minimized(self, params, rng):
        for x in rng.uniform(0.0, 2e-3, 20):
            up = transition_frequency(params, x)
            down = transition_frequency(params, -x)
            assert up == pytest.approx(down, rel=1e-14)
            assert up >= params.delta

    def test_hyperbola_point(self, params):
        # eps(x) is linear in the offset: find x with eps = delta, expect sqrt(2)*delta
        eps_per_offset = transition_frequency(QubitParams(delta=1e-12), 1e-4) / 1e-4
        x = params.delta / eps_per_offset
        assert transition_frequency(params, x) == pytest.approx(
            np.sqrt(2.0) * params.delta, rel=1e-9
        )

    def test_degenerate_limit(self, params):
        tiny = QubitParams(delta=1e-12)
        w = transition_frequency(tiny, 1e-4)
        assert w == pytest.approx(abs(w), rel=1e-12)
        assert w > 1.0  # linear bias term dominates

    def test_constants_match_scipy(self):
        from scipy import constants

        assert PHI0 == constants.physical_constants["mag. flux quantum"][0]
        assert HBAR == constants.hbar


class TestStateAndBloch:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            StateVector(1.0, 1.0)

    def test_bloch_conventions(self):
        assert StateVector.ground().bloch().sz == 1.0
        assert StateVector.excited().bloch().sz == -1.0
        assert StateVector.minus_y().bloch().sy == pytest.approx(-1.0, abs=1e-15)

    def test_bloch_ball_invariant(self):
        with pytest.raises(ValueError):
            BlochVector(1.0, 1.0, 1.0)
        b = StateVector.minus_y().bloch()
        assert b.norm == pytest.approx(1.0, abs=1e-12)

    def test_p1(self):
        assert StateVector.excited().p1 == 1.0
        assert StateVector.ground().p1 == 0.0


class TestUnits:
    def test_round_trip(self, rng):
        for f in rng.uniform(1e-3, 20.0, 100):
            w = ghz_to_rad_per_ns(f)
            assert rad_per_ns_to_ghz(w) == pytest.approx(f, rel=1e-12)

    def test_direct_value(self):
        assert ghz_to_rad_per_ns(2.288) == pytest.approx(2 * np.pi * 2.288, rel=1e-15)
