"""Spectral estimation: DFT normalization, peaks, classification, fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strongdrive import spectral
from strongdrive.errors import NumericError
from strongdrive.units import TWO_PI, ghz_to_rad_per_ns


def make_trace(freqs_ghz, amps, span=40.0, dt=0.005, offset=0.5, phases=None):
    t = np.arange(0.0, span + 1e-12, dt)
    v = np.full_like(t, offset)
    phases = phases if phases is not None else [0.0] * len(freqs_ghz)
    for f, a, p in zip(freqs_ghz, amps, phases):
        v += a * np.cos(2 * np.pi * f * t + p)
    return t, v


class TestDft:
    def test_single_tone_peak_position_and_height(self):
        t, v = make_trace([0.5], [1.0])
        sp = spectral.dft(t, v)
        i = int(np.argmax(sp.magnitudes))
        assert abs(sp.freqs[i] - 0.5) <= sp.resolution
        assert sp.magnitudes[i] == pytest.approx(1.0, abs=0.03)
        assert sp.resolution == pytest.approx(1.0 / 40.0, rel=1e-12)

    def test_constant_trace_zero_spectrum(self):
        t = np.arange(0.0, 10.0, 0.01)
        sp = spectral.dft(t, np.full_like(t, 0.7))
        assert np.max(sp.magnitudes) < 1e-12

    def test_freq_axis_uniform_to_nyquist(self):
        t, v = make_trace([0.5], [1.0], dt=0.004)
        sp = spectral.dft(t, v)
        df = np.diff(sp.freqs)
        assert np.max(np.abs(df - df[0])) < 1e-12
        assert sp.freqs[-1] == pytest.approx(0.5 / 0.004, rel=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            spectral.dft([0, 1, 2], [1, 2, 3])  # too short
        t = np.arange(0.0, 1.0, 0.01) ** 1.1  # non-uniform
        with pytest.raises(ValueError):
            spectral.dft(t, np.ones_like(t))
        t, v = make_trace([0.5], [1.0])
        with pytest.raises(ValueError):
            spectral.dft(t, v, window="boxcar")

    def test_parseval_each_window(self):
        t, v = make_trace([0.31, 1.7], [0.6, 0.2], span=25.0, dt=0.01)
        for window in spectral.WINDOWS:
            sp = spectral.dft(t, v, window, 4)
            w = {"hann": np.hanning, "hamming": np.hamming, "rectangular": np.ones}[
                window
            ](len(v))
            energy = float(np.sum(((v - v.mean()) * w) ** 2))
            assert spectral.spectrum_energy(sp) == pytest.approx(energy, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(16, 700),
        window=st.sampled_from(spectral.WINDOWS),
        pad=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parseval_property(self, n, window, pad, seed):
        v = np.random.default_rng(seed).standard_normal(n)
        t = 0.01 * np.arange(n)
        sp = spectral.dft(t, v, window, pad)
        w = {"hann": np.hanning, "hamming": np.hamming, "rectangular": np.ones}[window](n)
        energy = float(np.sum(((v - v.mean()) * w) ** 2))
        assert spectral.spectrum_energy(sp) == pytest.approx(energy, rel=1e-9)


class TestFindPeaks:
    def test_single_tone_one_peak(self):
        t, v = make_trace([0.5], [1.0])
        peaks = spectral.find_peaks(spectral.dft(t, v), 0.1)
        assert len(peaks) == 1

    def test_two_tones_resolved(self):
        t, v = make_trace([0.50, 0.65], [1.0, 0.6])
        sp = spectral.dft(t, v)
        peaks = spectral.find_peaks(sp, 0.1)
        assert len(peaks) == 2
        got = np.sort([p.frequency for p in peaks])
        assert abs(got[0] - 0.50) < 0.5 * sp.resolution
        assert abs(got[1] - 0.65) < 0.5 * sp.resolution

    def test_off_bin_interpolation_accuracy(self, rng):
        for _ in range(10):
            f0 = rng.uniform(0.4, 2.0)
            t, v = make_trace([f0], [1.0], phases=[rng.uniform(0, TWO_PI)])
            sp = spectral.dft(t, v)
            peaks = spectral.find_peaks(sp, 0.3)
            assert abs(peaks.peaks[0].frequency - f0) < 0.1 * sp.resolution

    def test_sorted_by_amplitude(self):
        t, v = make_trace([0.3, 1.1, 2.2], [0.2, 0.9, 0.5])
        peaks = spectral.find_peaks(spectral.dft(t, v), 0.05)
        amps = peaks.amplitudes()
        assert np.all(np.diff(amps) <= 0.0)

    def test_prominence_validation(self):
        t, v = make_trace([0.5], [1.0])
        with pytest.raises(ValueError):
            spectral.find_peaks(spectral.dft(t, v), 0.0)


class TestClassifyPeaks:
    def test_weak_drive_delta_eps_line(self):
        omega = ghz_to_rad_per_ns(2.288)
        de = ghz_to_rad_per_ns(0.1)
        t, v = make_trace([0.1], [0.4])
        sp = spectral.dft(t, v)
        peaks = spectral.find_peaks(sp, 0.2)
        classified, score = spectral.classify_peaks(peaks, omega, de, 4, sp.resolution)
        assert classified.peaks[0].classification == "n*w+de"
        assert classified.peaks[0].n == 0
        assert score == 0.0

    def test_unassigned_and_odd_score(self):
        omega = ghz_to_rad_per_ns(2.0)
        de = ghz_to_rad_per_ns(0.4)
        # one even line (2w - de = 3.6), one odd line (w = 2.0), one stray
        t, v = make_trace([3.6, 2.0, 1.234], [0.5, 0.2, 0.1])
        sp = spectral.dft(t, v)
        peaks = spectral.find_peaks(sp, 0.05)
        classified, score = spectral.classify_peaks(peaks, omega, de, 4, sp.resolution)
        by_label = {p.classification for p in classified}
        assert "n*w-de" in by_label
        assert "unassigned" in by_label
        assert score == pytest.approx(0.2 / 0.5, abs=0.05)

    def test_even_masking_of_odd_collisions(self):
        # delta_eps = w/2 makes the odd line w - de collide with the even +de
        # at 1.0 GHz; amplitude there must count as classified, not violation
        omega = ghz_to_rad_per_ns(2.0)
        de = 0.5 * omega
        t, v = make_trace([1.0], [0.5])
        sp = spectral.dft(t, v)
        peaks = spectral.find_peaks(sp, 0.2)
        classified, score = spectral.classify_peaks(peaks, omega, de, 4, sp.resolution)
        assert classified.peaks[0].classification == "n*w+de"
        assert score == 0.0  # collided position counts as even, not violation

    @pytest.mark.parametrize(
        "de_ghz, freq_ghz, label, n",
        [
            (0.1, 0.0, "n*w", 0),  # the n = 0 line at 0 GHz is a line
            (0.1, 2 * 2.288 - 0.1, "n*w-de", 2),
            (0.1, 2 * 2.288, "n*w", 2),
            (0.1, 2 * 2.288 + 0.1, "n*w+de", 2),
            (0.0, 0.0, "n*w", 0),  # de = 0: every line sits on an n w
            (0.0, 2 * 2.288, "n*w", 2),
            (2.288, 2.288, "n*w+de", 0),  # de = w: 0 + de and 2w - de coincide
        ],
        ids=["0", "2w-de", "2w", "2w+de", "de0-0", "de0-2w", "de=w-w"],
    )
    def test_peak_on_a_line_takes_its_first_label(self, de_ghz, freq_ghz, label, n):
        # a peak on coinciding lines is classified once, by the lowest n
        peaks = spectral.PeakSet((spectral.Peak(freq_ghz, 0.3), spectral.Peak(1.234, 0.1)))
        classified, score = spectral.classify_peaks(
            peaks, ghz_to_rad_per_ns(2.288), ghz_to_rad_per_ns(de_ghz), 4, 0.025
        )
        assert classified.peaks == (
            spectral.Peak(freq_ghz, 0.3, label, n),
            spectral.Peak(1.234, 0.1),
        )
        assert score == 0.0

    def test_negative_n_max_rejected(self):
        peaks = spectral.PeakSet((spectral.Peak(1.234, 0.1),))
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            spectral.classify_peaks(peaks, ghz_to_rad_per_ns(2.288), 1.0, -1, 0.025)


class TestFastComponentFit:
    def test_synthetic_recovery(self):
        omega = ghz_to_rad_per_ns(2.288)
        de = ghz_to_rad_per_ns(1.3)
        freqs = np.array([de, 2 * omega - de, 2 * omega + de]) / TWO_PI
        t, v = make_trace(freqs, [0.3, 0.05, 0.04], span=30.0, phases=[0.3, 1.1, 2.3])
        lo, hi = spectral.fast_component_amplitudes(t, v, omega, de)
        assert lo == pytest.approx(0.05, abs=1e-3)
        assert hi == pytest.approx(0.04, abs=1e-3)

    def test_short_trace_rejected(self):
        omega = ghz_to_rad_per_ns(2.288)
        de = ghz_to_rad_per_ns(0.05)
        t = np.arange(0.0, 5.0, 0.01)
        with pytest.raises(ValueError):
            spectral.fast_component_amplitudes(t, np.ones_like(t), omega, de)

    def test_zero_delta_eps_names_coincident_pair(self):
        # long enough for any nonzero splitting of this size; 0 is never enough
        t = np.arange(0.0, 50.0, 0.01)
        with pytest.raises(ValueError, match="delta_eps = 0: .* coincide") as exc:
            spectral.fast_component_amplitudes(t, np.ones_like(t), ghz_to_rad_per_ns(2.288), 0.0)
        assert "too short" not in str(exc.value)

    def test_coincident_columns_ill_conditioned(self):
        # at delta_eps = w, cos(delta_eps t) and cos((2w - delta_eps) t) are one column
        omega = ghz_to_rad_per_ns(2.288)
        t = np.arange(0.0, 25.0, 0.01)
        with pytest.raises(NumericError, match="ill-conditioned"):
            spectral.fast_component_amplitudes(t, np.cos(omega * t), omega, omega)
