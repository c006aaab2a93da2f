"""Spectral decomposition of population-oscillation traces.

This module works in plain-frequency units: traces are sampled in ns, so
spectra come out in GHz.  Angular quantities from the Floquet solver
(rad/ns) are converted at the call boundary by the classification helpers.

The amplitude normalization divides the transform by half the window sum, so
a unit-amplitude cosine at a bin center reports magnitude 1.0 (up to the
scalloping loss of the window between bin centers: up to ~36% for rectangular,
~15% for Hann before zero-padding; 4x padding reduces it below 2%).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .units import rad_per_ns_to_ghz

WINDOWS = ("hann", "rectangular", "hamming")


@dataclass(frozen=True)
class Spectrum:
    """One-sided amplitude spectrum of a mean-subtracted windowed trace."""

    freqs: np.ndarray  # GHz, uniform from 0 to Nyquist
    magnitudes: np.ndarray
    resolution: float  # GHz, 1/(trace span); bin spacing is finer when padded
    window: str
    n_samples: int
    window_sum: float
    padded_len: int

    @property
    def bin_spacing(self) -> float:
        return float(self.freqs[1] - self.freqs[0])


def _window(tag: str, n: int) -> np.ndarray:
    if tag == "hann":
        return np.hanning(n)
    if tag == "hamming":
        return np.hamming(n)
    if tag == "rectangular":
        return np.ones(n)
    raise ValueError(f"unknown window {tag!r}; expected one of {WINDOWS}")


def dft(times, values, window: str = "hann", zero_pad_factor: int = 4) -> Spectrum:
    """Mean-subtracted, windowed, zero-padded discrete Fourier transform."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape:
        raise ValueError("times and values must be 1-d arrays of equal length")
    if len(t) < 16:
        raise ValueError("need at least 16 samples")
    dt = np.diff(t)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * max(abs(dt[0]), 1e-300):
        raise ValueError("time grid must be uniform")
    if zero_pad_factor < 1:
        raise ValueError("zero_pad_factor must be >= 1")

    n = len(v)
    w = _window(window, n)
    xw = (v - v.mean()) * w
    m = zero_pad_factor * n
    m += m % 2  # even length so the grid ends exactly at Nyquist
    spec = np.fft.rfft(xw, n=m)
    wsum = float(w.sum())
    mags = 2.0 * np.abs(spec) / wsum
    freqs = np.fft.rfftfreq(m, d=float(dt[0]))
    span = t[-1] - t[0]
    return Spectrum(
        freqs=freqs,
        magnitudes=mags,
        resolution=1.0 / span,
        window=window,
        n_samples=n,
        window_sum=wsum,
        padded_len=m,
    )


def spectrum_energy(s: Spectrum) -> float:
    """Windowed-trace energy reconstructed from the one-sided spectrum.

    Parseval: sum |x_w|^2 = (1/M) * sum_k c_k |X_k|^2 with c_k = 1 for the
    DC and Nyquist bins of the even-length transform and 2 elsewhere.
    """
    x_abs = s.magnitudes * (s.window_sum / 2.0)
    c = np.full_like(x_abs, 2.0)
    c[0] = 1.0
    c[-1] = 1.0  # padded length is even, last bin is Nyquist
    return float(np.sum(c * x_abs**2) / s.padded_len)


@dataclass(frozen=True)
class Peak:
    frequency: float  # GHz
    amplitude: float
    classification: str = "unassigned"  # one of n*w | n*w+de | n*w-de | unassigned
    n: int | None = None


@dataclass(frozen=True)
class PeakSet:
    peaks: tuple[Peak, ...]

    def __iter__(self):
        return iter(self.peaks)

    def __len__(self):
        return len(self.peaks)

    def amplitudes(self) -> np.ndarray:
        return np.array([p.amplitude for p in self.peaks])


def find_peaks(spectrum: Spectrum, min_prominence: float = 0.05) -> PeakSet:
    """Local maxima above min_prominence * max magnitude, parabolic-interpolated.

    Three-point parabolic interpolation on the magnitude puts the frequency
    well under a tenth of a bin off for isolated tones; peaks come back
    sorted by amplitude, strongest first.
    """
    if not 0.0 < min_prominence < 1.0:
        raise ValueError("min_prominence must be in (0, 1)")
    m = spectrum.magnitudes
    if len(m) < 3:
        return PeakSet(())
    thresh = min_prominence * float(m.max())
    core = (m[1:-1] > m[:-2]) & (m[1:-1] >= m[2:]) & (m[1:-1] >= thresh)
    idx = np.nonzero(core)[0] + 1
    df = spectrum.bin_spacing
    peaks = []
    for i in idx:
        denom = m[i - 1] - 2.0 * m[i] + m[i + 1]
        shift = 0.0 if denom == 0.0 else 0.5 * (m[i - 1] - m[i + 1]) / denom
        shift = float(np.clip(shift, -0.5, 0.5))
        freq = spectrum.freqs[i] + shift * df
        amp = m[i] - 0.25 * (m[i - 1] - m[i + 1]) * shift
        peaks.append(Peak(float(freq), float(amp)))
    peaks.sort(key=lambda p: p.amplitude, reverse=True)
    return PeakSet(tuple(peaks))


def classify_peaks(
    peaks: PeakSet,
    omega: float,
    delta_eps: float,
    n_max: int,
    resolution: float,
) -> tuple[PeakSet, float]:
    """Assign peaks to the predicted lines n*w, n*w +- delta_eps (even n).

    ``omega`` and ``delta_eps`` are angular (rad/ns) as produced by the
    Floquet solver; ``resolution`` is the spectral resolution in GHz and one
    resolution bin is the assignment window.  Returns the classified peak
    set and the even-n selection-rule violation score: amplitude found at
    odd-n predictions (excluding those masked by an even-n line within one
    bin) over the total classified amplitude.  ``n_max`` < 0 raises
    ValueError.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    w_ghz = rad_per_ns_to_ghz(omega)
    de_ghz = rad_per_ns_to_ghz(delta_eps)

    even = []
    for n in range(0, n_max + 1, 2):
        even.extend(
            [(n * w_ghz, "n*w", n), (n * w_ghz - de_ghz, "n*w-de", n), (n * w_ghz + de_ghz, "n*w+de", n)]
        )
    even = [(f, lab, n) for f, lab, n in even if f > -1e-12]
    odd = []
    for n in range(1, n_max + 1, 2):
        odd.extend([n * w_ghz, n * w_ghz - de_ghz, n * w_ghz + de_ghz])
    even_freqs = np.array([f for f, _, _ in even])
    odd = [f for f in odd if f > -1e-12 and np.min(np.abs(even_freqs - f)) > resolution]

    out = []
    odd_amp = 0.0
    classified_amp = 0.0
    for p in peaks:
        d = np.abs(even_freqs - p.frequency)
        k = int(np.argmin(d))
        if d[k] <= resolution:
            f, lab, n = even[k]
            out.append(Peak(p.frequency, p.amplitude, lab, n))
            classified_amp += p.amplitude
        else:
            out.append(Peak(p.frequency, p.amplitude, "unassigned", None))
            if odd and np.min(np.abs(np.array(odd) - p.frequency)) <= resolution:
                odd_amp += p.amplitude
    score = odd_amp / classified_amp if classified_amp > 0.0 else 0.0
    return PeakSet(tuple(out)), float(score)


def fast_component_amplitudes(times, values, omega: float, delta_eps: float):
    """Amplitudes of the 2w -+ delta_eps components by a fixed-frequency fit.

    Least squares of the trace onto an offset plus three sinusoids at
    angular frequencies {delta_eps, 2w - delta_eps, 2w + delta_eps}
    (amplitudes and phases free, frequencies fixed).  Returns
    (amp at 2w - delta_eps, amp at 2w + delta_eps).
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    span = t[-1] - t[0]
    if span <= 0.0:
        raise ValueError("trace must span a positive time interval")
    if delta_eps == 0.0:
        raise ValueError(
            "delta_eps = 0: the 2w +- delta_eps components coincide; "
            "no trace length separates them"
        )
    sep_bins = 2.0 * rad_per_ns_to_ghz(delta_eps) * span
    if sep_bins < 3.0:
        raise ValueError(
            "trace too short: the 2w +- delta_eps pair must be >= 3 resolution "
            f"bins apart (got {sep_bins:.2f})"
        )
    freqs = (delta_eps, 2.0 * omega - delta_eps, 2.0 * omega + delta_eps)
    cols = [np.ones_like(t)]
    for f in freqs:
        cols.extend([np.cos(f * t), np.sin(f * t)])
    design = np.column_stack(cols)
    coef, _, _, sv = np.linalg.lstsq(design, v, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf
    if not np.isfinite(cond) or cond > 1e8:
        raise NumericError(f"fit design matrix ill-conditioned (cond={cond:.2e})")
    amp_lo = float(np.hypot(coef[3], coef[4]))
    amp_hi = float(np.hypot(coef[5], coef[6]))
    return amp_lo, amp_hi
