"""Experiment configuration: flat INI sections with a strict key schema.

Every key has a typed default; unknown sections or keys are rejected with
the offending name in the message, and a file the INI parser cannot read
(a duplicate key, no section header, a line that is not ``key = value``)
with the parser's message.  User-facing units are GHz (plain frequency)
and ns; the commands convert to angular units internally.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ConfigError
from .spectral import WINDOWS


def _parse_float_list(s: str) -> tuple[float, ...]:
    items = [x.strip() for x in s.split(",") if x.strip()]
    return tuple(float(x) for x in items)


def _parse_pair_list(s: str) -> tuple[tuple[float, float], ...]:
    """'4:0, 0:4' -> ((4.0, 0.0), (0.0, 4.0))."""
    out = []
    for item in s.split(","):
        item = item.strip()
        if not item:
            continue
        a, b = item.split(":")
        out.append((float(a), float(b)))
    return tuple(out)


# section -> key -> (parser, default)
SCHEMA: dict[str, dict[str, tuple]] = {
    "device": {
        "delta_ghz": (float, 2.288),
    },
    "solver": {
        "truncation_n": (int, 50),
        "monodromy_steps_per_period": (int, 2000),
        "propagator_step_ns": (float, 0.0),  # 0 -> per segment: min(T/200, edge/50)
    },
    "quasienergies": {
        "omega_factors": (_parse_float_list, (1.0, 0.6, 1.4)),
        "amp_min_ghz": (float, 0.0),
        "amp_max_ghz": (float, 4.8048),
        "amp_points": (int, 100),
    },
    "rabi": {
        "omega_ghz": (float, 2.288),
        "amp_min_ghz": (float, 0.20),
        "amp_max_ghz": (float, 4.78),
        "amp_points": (int, 12),
        "duration_ns": (float, 50.0),
        "sample_dt_ns": (float, 0.005),
        "window": (str, "hann"),
        "zero_pad_factor": (int, 4),
        "min_prominence": (float, 0.05),
        "n_max": (int, 10),
        "max_freq_ghz": (float, 16.0),
    },
    "tomotrace": {
        "amplitudes_ghz": (_parse_float_list, (0.10, 0.46)),
        "omega_ghz": (float, 2.288),
        "duration_ns": (float, 20.0),
        "sample_dt_ns": (float, 0.005),
    },
    "edges": {
        "amplitude_ghz": (float, 1.33),
        "omega_ghz": (float, 2.288),
        "edge_times_ns": (_parse_float_list, (0.0, 0.5, 1.0, 2.0, 4.0)),
        "asymmetric_pairs_ns": (_parse_pair_list, ((4.0, 0.0), (0.0, 4.0))),
        "duration_ns": (float, 25.0),
        "sample_dt_ns": (float, 0.01),
    },
    "stateprep": {
        "amplitude_ghz": (float, 0.46),
        "min_edge_ns": (float, 0.02),
        "shots": (int, 16384),
        "bootstrap_b": (int, 200),
    },
    "run": {
        "seed": (int, 12345),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration: every schema key bound to a value."""

    values: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __getitem__(self, section: str) -> dict[str, Any]:
        return self.values[section]

    def as_flat_dict(self) -> dict[str, Any]:
        out = {}
        for sec in sorted(self.values):
            for key in sorted(self.values[sec]):
                v = self.values[sec][key]
                if isinstance(v, tuple):
                    v = list(v) if not (v and isinstance(v[0], tuple)) else [list(p) for p in v]
                out[f"{sec}.{key}"] = v
        return out


#: Integer keys with a lower bound (the bootstrap needs b >= 100; numpy
#: seeds are >= 0).
_MINIMUMS = {
    ("quasienergies", "amp_points"): 1,
    ("rabi", "amp_points"): 1,
    ("rabi", "n_max"): 0,
    ("rabi", "zero_pad_factor"): 1,
    ("stateprep", "shots"): 1,
    ("stateprep", "bootstrap_b"): 100,
    ("solver", "monodromy_steps_per_period"): 1,
    ("solver", "truncation_n"): 1,
    ("run", "seed"): 0,
}

#: Time, frequency and amplitude keys that may be 0: the default steps,
#: sharp edges, and zero drive amplitudes.
_ZERO_ALLOWED = {
    ("solver", "propagator_step_ns"),
    ("edges", "edge_times_ns"),
    ("edges", "asymmetric_pairs_ns"),
    ("quasienergies", "amp_min_ghz"),
    ("quasienergies", "amp_max_ghz"),
    ("rabi", "amp_min_ghz"),
    ("rabi", "amp_max_ghz"),
    ("tomotrace", "amplitudes_ghz"),
    ("edges", "amplitude_ghz"),
}


def _check_ranges(values: dict[str, dict[str, Any]]) -> None:
    """Reject parsed values out of range, naming the key.

    Times, steps, frequencies and amplitudes (keys ending in ``_ns`` or
    ``_ghz``, and ``omega_factors``) must be finite and > 0, every entry of
    a list; the keys in ``_ZERO_ALLOWED`` must be finite and >= 0.
    ``rabi.min_prominence``, a fraction of the largest peak, must lie in
    (0, 1).  A scan list must not be empty: ``omega_factors``,
    ``amplitudes_ghz``, and the edge pairs, of which
    ``asymmetric_pairs_ns`` alone may be empty.
    """

    def bad(sec, key, why):
        return ConfigError(f"bad value for {sec}.{key}: {values[sec][key]!r} ({why})")

    for sec, keys in values.items():
        for key, v in keys.items():
            if not key.endswith(("_ns", "_ghz")) and key != "omega_factors":
                continue
            flat = np.ravel(v)
            if (sec, key) in _ZERO_ALLOWED:
                if not np.all(np.isfinite(flat) & (flat >= 0.0)):
                    raise bad(sec, key, "must be finite and >= 0")
            elif not np.all(np.isfinite(flat) & (flat > 0.0)):
                raise bad(sec, key, "must be finite and > 0")
    for sec, key in (("quasienergies", "omega_factors"), ("tomotrace", "amplitudes_ghz")):
        if not values[sec][key]:
            raise bad(sec, key, "must not be empty")
    if not (values["edges"]["edge_times_ns"] or values["edges"]["asymmetric_pairs_ns"]):
        raise bad("edges", "edge_times_ns", "must not be empty when edges.asymmetric_pairs_ns is")
    for (sec, key), lowest in _MINIMUMS.items():
        if values[sec][key] < lowest:
            raise bad(sec, key, f"must be >= {lowest}")
    if values["rabi"]["window"] not in WINDOWS:
        raise bad("rabi", "window", f"expected one of {WINDOWS}")
    if not 0.0 < values["rabi"]["min_prominence"] < 1.0:
        raise bad("rabi", "min_prominence", "must be in (0, 1)")


def default_config() -> ExperimentConfig:
    return ExperimentConfig(
        {sec: {k: d for k, (_, d) in keys.items()} for sec, keys in SCHEMA.items()}
    )


def load_config(path: str | None) -> ExperimentConfig:
    """Defaults overlaid with the INI file at ``path`` (if given)."""
    values = {sec: dict(keys) for sec, keys in default_config().values.items()}
    if path is None:
        return ExperimentConfig(values)
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except configparser.Error as exc:  # duplicate key, no section header, bad line
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found or unreadable: {path}")
    for sec in cp.sections():
        if sec not in SCHEMA:
            raise ConfigError(
                f"unknown config section [{sec}] (known: {sorted(SCHEMA)})"
            )
        for key, raw in cp.items(sec):
            if key not in SCHEMA[sec]:
                raise ConfigError(
                    f"unknown key '{key}' in section [{sec}] "
                    f"(known: {sorted(SCHEMA[sec])})"
                )
            parser = SCHEMA[sec][key][0]
            try:
                values[sec][key] = parser(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {sec}.{key}: {raw!r} ({exc})"
                ) from exc
    _check_ranges(values)
    return ExperimentConfig(values)
