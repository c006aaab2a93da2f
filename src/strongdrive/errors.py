"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for numerical failures in solvers and integrators."""


class AccuracyError(SimulationError):
    """An accuracy target could not be met at the allowed step size."""


class NumericError(SimulationError):
    """A numerical routine failed to converge or produced invalid output."""


class ConfigError(Exception):
    """Invalid or unknown experiment configuration entry."""
