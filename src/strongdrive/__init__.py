"""Floquet analysis and pulse-level simulation of a strongly driven qubit.

Quasienergy spectra of the harmonically driven two-level system (parity
sector of the truncated Floquet matrix, monodromy oracle, closed-form Bessel
formula), time-domain propagation of shaped pulses and fast state
preparation, spectral classification of population oscillations, and a
simulated tomography pipeline (shots, MLE, parametric bootstrap, pulse
calibration).
"""

from .errors import AccuracyError, ConfigError, NumericError, SimulationError
from .evolve import (
    Trajectory,
    continuous_drive_states,
    evolve_interval,
    final_states_for_durations,
    prepare_state,
    propagate,
    propagate_train,
    sweep_pulse_duration,
)
from .floquet import (
    FloquetSpectrum,
    analytic_delta_epsilon,
    analytic_quasienergies,
    build_floquet_matrix,
    monodromy_quasienergies,
    monodromy_quasienergies_batch,
    quasienergy_sweep,
)
from .model import BlochVector, PulseSpec, QubitParams, StateVector, envelope
from .spectral import (
    Peak,
    PeakSet,
    Spectrum,
    classify_peaks,
    dft,
    fast_component_amplitudes,
    find_peaks,
)
from .tomography import (
    DensityMatrix,
    ShotRecord,
    TomographyResult,
    angle_calibration_sequence,
    axis_calibration_sequence,
    bootstrap_errors,
    fidelity,
    mle_reconstruct,
    prerotation_pulses,
    simulate_shots,
)
from .units import ghz_to_rad_per_ns, rad_per_ns_to_ghz

__version__ = "0.1.0"
