"""Driven two-level system: device parameters, pulse shapes, qubit states.

The qubit is biased at its symmetry point, where the lab-frame Hamiltonian in
the energy eigenbasis {|0>, |1>} is (hbar = 1)

    H(t) = -Delta/2 * sigma_z + A(t) * cos(omega*t + phi) * sigma_x,

with Delta the minimum level splitting and A(t) the shaped drive envelope.
|0> is the ground state, mapped to Bloch +z; the excited-state probability is
P1 = |<1|psi>|^2 = (1 - <sigma_z>)/2.

The drive envelope rises as A_m/2*(1 - cos(pi*t/t_r)), sits at A_m for the
plateau, and falls as A_m/2*(1 + cos(pi*(t - t_p - t_r)/t_f)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .units import TWO_PI

# Pauli matrices.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Default minimum level splitting, rad/ns.
DELTA_DEFAULT = TWO_PI * 2.288


@dataclass(frozen=True)
class QubitParams:
    """Static device parameters.

    delta: minimum level splitting, rad/ns (angular), the only parameter of
    H at the symmetry point.

    The dynamics is closed (unitary): no relaxation or dephasing constants.
    """

    delta: float = DELTA_DEFAULT

    def __post_init__(self):
        if not 0.0 < self.delta < np.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")


@dataclass(frozen=True)
class PulseSpec:
    """Shaped drive pulse: cosine-edged envelope times a cosine carrier.

    amplitude_max: peak envelope value A_m, rad/ns (angular).
    carrier: carrier angular frequency omega, rad/ns.
    t_rise, t_plateau, t_fall: segment durations, ns.
    carrier_phase: phase of the cos carrier at t = 0, rad.

    Every field must be finite.
    """

    amplitude_max: float
    carrier: float
    t_rise: float = 0.0
    t_plateau: float = 0.0
    t_fall: float = 0.0
    carrier_phase: float = 0.0

    def __post_init__(self):
        for name in ("amplitude_max", "carrier", "t_rise", "t_plateau", "t_fall", "carrier_phase"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.amplitude_max < 0.0:
            raise ValueError("amplitude_max must be >= 0")
        if not self.carrier > 0.0:
            raise ValueError(f"carrier must be positive, got {self.carrier}")
        for name in ("t_rise", "t_plateau", "t_fall"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def total(self) -> float:
        """Total pulse duration t_r + t_p + t_f, ns."""
        return self.t_rise + self.t_plateau + self.t_fall


def envelope(pulse: PulseSpec, t, *, allow_outside: bool = False):
    """Drive envelope A(t) in rad/ns; accepts scalars or arrays.

    Raises ValueError for t outside [0, total] unless ``allow_outside`` is
    set, in which case the envelope is 0 there.  A zero rise (fall) time
    makes the envelope step directly to (from) A_m.
    """
    t_arr = np.asarray(t, dtype=float)
    if not allow_outside:
        if np.any(t_arr < 0.0) or np.any(t_arr > pulse.total):
            raise ValueError(
                f"t outside pulse support [0, {pulse.total}] ns"
            )
    am = pulse.amplitude_max
    t_r, t_p, t_f = pulse.t_rise, pulse.t_plateau, pulse.t_fall
    out = np.zeros_like(t_arr)

    inside = (t_arr >= 0.0) & (t_arr <= pulse.total)
    rising = inside & (t_arr < t_r)
    falling = inside & (t_arr > t_r + t_p)
    flat = inside & ~rising & ~falling

    out[flat] = am
    if t_r > 0.0:
        out[rising] = 0.5 * am * (1.0 - np.cos(np.pi * t_arr[rising] / t_r))
    if t_f > 0.0:
        out[falling] = 0.5 * am * (
            1.0 + np.cos(np.pi * (t_arr[falling] - t_p - t_r) / t_f)
        )
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class StateVector:
    """Pure qubit state (c_g, c_e) in the energy eigenbasis."""

    c_g: complex
    c_e: complex

    def __post_init__(self):
        norm = abs(self.c_g) ** 2 + abs(self.c_e) ** 2
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state not normalized: |psi|^2 = {norm}")

    @classmethod
    def from_array(cls, psi) -> "StateVector":
        psi = np.asarray(psi, dtype=complex).reshape(2)
        return cls(complex(psi[0]), complex(psi[1]))

    @classmethod
    def ground(cls) -> "StateVector":
        return cls(1.0 + 0.0j, 0.0j)

    @classmethod
    def excited(cls) -> "StateVector":
        return cls(0.0j, 1.0 + 0.0j)

    @classmethod
    def minus_y(cls) -> "StateVector":
        """(|0> - i|1>)/sqrt(2), the Bloch -y state."""
        s = 1.0 / np.sqrt(2.0)
        return cls(s + 0.0j, -1.0j * s)

    def as_array(self) -> np.ndarray:
        return np.array([self.c_g, self.c_e], dtype=complex)

    @property
    def p1(self) -> float:
        """Excited-state probability |c_e|^2."""
        return abs(self.c_e) ** 2

    def bloch(self) -> "BlochVector":
        z = np.conj(self.c_g) * self.c_e
        return BlochVector(
            sx=2.0 * z.real,
            sy=2.0 * z.imag,
            sz=abs(self.c_g) ** 2 - abs(self.c_e) ** 2,
        )


@dataclass(frozen=True)
class BlochVector:
    """Pauli expectation values (sx, sy, sz); |s| <= 1 for physical states."""

    sx: float
    sy: float
    sz: float

    def __post_init__(self):
        r2 = self.sx**2 + self.sy**2 + self.sz**2
        if r2 > 1.0 + 1e-9:
            raise ValueError(f"Bloch vector outside unit ball: |s|^2 = {r2}")

    def as_array(self) -> np.ndarray:
        return np.array([self.sx, self.sy, self.sz])

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))
