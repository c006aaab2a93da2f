"""Experiment runner: reproducible scans with machine-readable outputs.

Each subcommand reads an INI config (defaults apply when omitted) and
computes plot-ready tables: its ``cmd_*`` function returns them as
{file name: table}, a table being a CSV header plus rows or a JSON payload.
``main`` writes them plus a run_report.json manifest (resolved config,
version, wall time, sha256 of every output), and the acceptance criteria
score the same tables.  Each command is one serial call chain: an amplitude
scan is one Floquet-expansion batch, an edge study one Floquet sum over
all its edge pairs.  Data files are byte-identical for identical config
and seed; the manifest's wall-time field is the one value that varies
between runs.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 acceptance
threshold failure (``check``).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__, evolve, floquet, spectral, tomography
from .config import ExperimentConfig, load_config
from .errors import AccuracyError, ConfigError, SimulationError
from .model import PulseSpec, QubitParams, StateVector
from .units import ghz_to_rad_per_ns, rad_per_ns_to_ghz


#: Rows per %-format call of ``_write_csv``: bounds the strings it builds.
_CSV_BLOCK = 8192

#: glibc ``mallopt`` parameters, and the size from which buffers are mmapped
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 2 << 20


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _distinct_strings(col):
    """(sorted bit patterns, their "%.17g" strings) of a float column with
    fewer distinct values than half its rows, else None.  Keyed by bits, so
    -0.0 and each NaN pattern keep their own string."""
    bits = col.view(np.int64).copy()
    bits.sort()
    first = np.empty(len(bits), dtype=bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    if 2 * np.count_nonzero(first) >= len(bits):
        return None
    bits = bits[first]
    text = ("%.17g," * len(bits)) % tuple(bits.view(np.float64).tolist())
    return bits, np.array(text.split(",")[:-1], dtype=object)


def _write_csv(path: Path, header, rows) -> None:
    """Header plus rows.  A float array, read as rows of len(header) values,
    is written with one %-format per block of rows, whose "%.17g" gives the
    same bytes as ``_fmt``.  A column of few distinct values (a scan's key
    grid) has each formatted once, and their strings are spliced in."""
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            ncol = len(header)
            rows = np.asarray(rows, dtype=float).reshape(-1, ncol)
            keys = [_distinct_strings(col) for col in rows.T]
            line = ",".join("%.17g" if k is None else "%s" for k in keys) + "\n"
            for s in range(0, len(rows), _CSV_BLOCK):
                block = rows[s : s + _CSV_BLOCK]
                args = [None] * block.size
                for j, key in enumerate(keys):
                    col = block[:, j]
                    if key is None:
                        args[j::ncol] = col.tolist()
                    else:
                        bits, strs = key
                        args[j::ncol] = strs[np.searchsorted(bits, col.view(np.int64))].tolist()
                f.write((line * len(block)) % tuple(args))
            return
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, payload) -> None:
    with open(path, "w", newline="\n") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _pin_mmap_threshold() -> None:
    """Map buffers of ``_MMAP_THRESHOLD`` bytes or more on their own rather
    than grow the heap for them.

    glibc raises its mmap threshold to the largest block freed so far, after
    which the scans' multi-MB tables are carved from the heap.  Whether one
    of them fits a free gap or grows the heap then depends on the small
    blocks allocated in between, so the peak memory of the same commands,
    repeated in one process, differed from process to process by about one
    6 MB ``rabi-scan`` table.  With the threshold fixed, such a table is
    taken from free heap space or mapped, and a mapped one goes back to the
    OS when it is freed.  The heap keeps up to twice the threshold free at
    its top, the ratio glibc itself sets when it moves the threshold, so the
    smaller buffers keep reusing heap pages rather than faulting them in
    anew after each trim.  No-op off glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def _device(config: ExperimentConfig) -> QubitParams:
    return QubitParams(delta=ghz_to_rad_per_ns(config["device"]["delta_ghz"]))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


#: {file name: (CSV header, rows) or the payload of a .json file}
Tables = dict[str, Any]


def cmd_quasienergies(config: ExperimentConfig, oracle: bool) -> Tables:
    par = _device(config)
    q = config["quasienergies"]
    amps = ghz_to_rad_per_ns(
        np.linspace(q["amp_min_ghz"], q["amp_max_ghz"], q["amp_points"])
    )
    header = [
        "amplitude_ghz",
        "omega_ghz",
        "eps0_numeric",
        "eps1_numeric",
        "eps0_analytic",
        "eps1_analytic",
        "delta_eps_numeric",
        "delta_eps_analytic",
    ]
    if oracle:
        header += ["eps0_monodromy", "eps1_monodromy"]
    rows = []
    for factor in q["omega_factors"]:
        omega = factor * par.delta
        specs = floquet.quasienergy_sweep(par.delta, omega, amps)
        if oracle:  # each numeric value against the nearer monodromy one, as criterion 01
            mono = floquet.monodromy_quasienergies_batch(par.delta, amps, omega)
            eps = np.array([[s.eps0, s.eps1] for s in specs])
            gap = np.abs(floquet.reduce_to_zone(eps[:, :, None] - mono[:, None], omega))
            if (worst := gap.min(axis=2).max(initial=0.0)) > floquet.MONODROMY_TOL:
                raise AccuracyError(
                    f"numeric vs monodromy quasienergies differ by {worst:.2e} rad/ns mod "
                    f"omega > {floquet.MONODROMY_TOL:g} at omega = {omega:.6g} rad/ns"
                )
        analytic = floquet.analytic_quasienergies(par.delta, amps, omega)
        for i, (a, s, e0a, e1a) in enumerate(zip(amps, specs, *analytic)):
            row = [
                rad_per_ns_to_ghz(a),
                rad_per_ns_to_ghz(omega),
                rad_per_ns_to_ghz(s.eps0),
                rad_per_ns_to_ghz(s.eps1),
                rad_per_ns_to_ghz(e0a),
                rad_per_ns_to_ghz(e1a),
                rad_per_ns_to_ghz(s.delta_eps),
                rad_per_ns_to_ghz(e1a - e0a),
            ]
            if oracle:
                row += [rad_per_ns_to_ghz(mono[i][0]), rad_per_ns_to_ghz(mono[i][1])]
            rows.append(row)
    return {"quasienergies.csv": (header, np.array(rows, dtype=float))}


def cmd_rabi_scan(config: ExperimentConfig) -> Tables:
    par = _device(config)
    r = config["rabi"]
    omega = ghz_to_rad_per_ns(r["omega_ghz"])
    amps = ghz_to_rad_per_ns(np.linspace(r["amp_min_ghz"], r["amp_max_ghz"], r["amp_points"]))
    durations = np.arange(0.0, r["duration_ns"] + 1e-9, r["sample_dt_ns"])
    specs = floquet.quasienergy_sweep(par.delta, omega, amps)
    states = evolve._duration_batch_states(  # sharp pulses: the un-enveloped drive
        [PulseSpec(a, omega) for a in amps], durations, None, specs,
        StateVector.ground().as_array(), None,
    )
    p1 = np.abs(states[..., 1]) ** 2
    amps_ghz = rad_per_ns_to_ghz(amps)
    p1_rows = np.column_stack(
        [np.repeat(amps_ghz, len(durations)), np.tile(durations, len(amps)), p1.ravel()]
    )
    spec_parts = []
    peak_rows = []
    for a_ghz, trace, fspec in zip(amps_ghz, p1, specs):
        sp = spectral.dft(durations, trace, r["window"], r["zero_pad_factor"])
        keep = sp.freqs <= r["max_freq_ghz"]
        spec_parts.append(
            np.column_stack([np.full(keep.sum(), a_ghz), sp.freqs[keep], sp.magnitudes[keep]])
        )
        peaks = spectral.find_peaks(sp, r["min_prominence"])
        classified, score = spectral.classify_peaks(
            peaks, omega, fspec.delta_eps, r["n_max"], sp.resolution
        )
        peak_rows.extend(
            [a_ghz, p.frequency, p.amplitude, p.classification,
             -1 if p.n is None else p.n, score]
            for p in classified
        )
    return {
        "rabi_p1.csv": (["amplitude_ghz", "t_p_ns", "p1"], p1_rows),
        "rabi_spectra.csv": (["amplitude_ghz", "freq_ghz", "magnitude"], np.vstack(spec_parts)),
        "rabi_peaks.csv": (
            ["amplitude_ghz", "freq_ghz", "amplitude", "classification", "n", "odd_score"],
            peak_rows,
        ),
    }


def cmd_tomography_trace(config: ExperimentConfig, shots: int, seed: int) -> Tables:
    """Bloch components and P1 of the continuous drive per amplitude and time;
    ``shots`` > 0 adds ``tomography._sample_bloch`` draws from those components,
    one generator per point from SeedSequence((seed, amplitude in kHz))."""
    par = _device(config)
    t = config["tomotrace"]
    omega = ghz_to_rad_per_ns(t["omega_ghz"])
    durations = np.arange(0.0, t["duration_ns"] + 1e-9, t["sample_dt_ns"])
    header = ["amplitude_ghz", "t_p_ns", "sx", "sy", "sz", "p1"]
    if shots > 0:
        header += ["sx_meas", "sy_meas", "sz_meas"]
    batch = evolve.continuous_drive_states(
        par, ghz_to_rad_per_ns(np.array(t["amplitudes_ghz"])), omega, durations
    )
    parts = []
    for a_ghz, states in zip(t["amplitudes_ghz"], batch):
        bloch = evolve._bloch_components(states)
        cols = [np.full(len(durations), a_ghz), durations, bloch, np.abs(states[:, 1]) ** 2]
        if shots > 0:
            seqs = np.random.SeedSequence((seed, int(a_ghz * 1e6))).spawn(len(durations))
            cols.append(tomography._sample_bloch(bloch, shots, seqs))
        parts.append(np.column_stack(cols))
    return {"bloch_trace.csv": (header, np.array(parts, dtype=float))}


def cmd_edge_study(config: ExperimentConfig) -> Tables:
    par = _device(config)
    e = config["edges"]
    omega = ghz_to_rad_per_ns(e["omega_ghz"])
    amp = ghz_to_rad_per_ns(e["amplitude_ghz"])
    durations = np.arange(0.0, e["duration_ns"] + 1e-9, e["sample_dt_ns"])
    n = len(durations)
    pairs = [(x, x) for x in e["edge_times_ns"]] + list(e["asymmetric_pairs_ns"])
    solver = config["solver"]
    fspec = floquet.quasienergy_sweep(par.delta, omega, [amp])[0]
    states = evolve._duration_batch_states(  # step 0: each edge its default step
        [PulseSpec(amp, omega, t_r, 0.0, t_f) for t_r, t_f in pairs], durations, None,
        [fspec] * len(pairs), StateVector.ground().as_array(), solver["propagator_step_ns"] or None,
    )
    trace_parts = []
    amp_rows = []
    for (t_r, t_f), st in zip(pairs, states):
        p1 = np.abs(st[:, 1]) ** 2
        lo, hi = spectral.fast_component_amplitudes(durations, p1, omega, fspec.delta_eps)
        trace_parts.append(np.column_stack([np.full(n, t_r), np.full(n, t_f), durations, p1]))
        amp_rows.append([t_r, t_f, lo, hi])
    return {
        "edge_traces.csv": (
            ["t_rise_ns", "t_fall_ns", "t_p_ns", "p1"], np.array(trace_parts, dtype=float)
        ),
        "edge_fast_amplitudes.csv": (
            ["t_rise_ns", "t_fall_ns", "amp_2w_minus_de", "amp_2w_plus_de"], amp_rows
        ),
    }


def cmd_state_prep(config: ExperimentConfig, shots: int, seed: int) -> Tables:
    par = _device(config)
    sp = config["stateprep"]
    amp = ghz_to_rad_per_ns(sp["amplitude_ghz"])
    edges = sp["min_edge_ns"]
    n_shots = shots if shots > 0 else sp["shots"]
    report = {}
    for offset, (name, target) in enumerate(
        (("minus_y", StateVector.minus_y()), ("excited", StateVector.excited()))
    ):
        pulse, fid, final = evolve.prepare_state(par, target, amp, edges)
        recs = [
            tomography.simulate_shots(final, b, n_shots, seed=seed + 13 * i + 1000 * offset)
            for i, b in enumerate(tomography.BASES)
        ]
        result = tomography.bootstrap_errors(
            recs, tomography.DensityMatrix.from_state(target), b=sp["bootstrap_b"], seed=seed
        )
        report[name] = {
            "pulse": {
                "amplitude_ghz": rad_per_ns_to_ghz(pulse.amplitude_max),
                "carrier_ghz": rad_per_ns_to_ghz(pulse.carrier),
                "t_rise_ns": pulse.t_rise,
                "t_plateau_ns": pulse.t_plateau,
                "t_fall_ns": pulse.t_fall,
                "carrier_phase_rad": pulse.carrier_phase,
                "total_ns": pulse.total,
            },
            "unitary_fidelity": fid,
            "reconstructed_fidelity": result.fidelity_to_target,
            "fidelity_stderr": result.fidelity_stderr,
            "bootstrap_b": result.bootstrap_b,
            "shots": n_shots,
        }
    return {"state_prep.json": report}


def cmd_check(full: bool) -> int:
    from . import acceptance  # the only command that needs it: keeps start-up lean

    checks = acceptance.ALL_CHECKS if full else (
        acceptance.check_analytic_limits,
        acceptance.check_printed_matrices,
        acceptance.check_numerical_hygiene,
    )
    failed = 0
    for fn in checks:
        result = fn()
        print(result.line())
        failed += 0 if result.passed else 1
    return 4 if failed else 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def non_negative_int(text: str) -> int:
    """argparse type of ``--shots`` and ``--seed``: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongdrive",
        description="Floquet analysis and pulse simulation of a strongly driven qubit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="INI config path")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument(
        "--seed", type=non_negative_int, default=None, help="override [run] seed"
    )

    shots = argparse.ArgumentParser(add_help=False)
    shots.add_argument(
        "--shots", type=non_negative_int, default=0,
        help="shots per basis (0: noiseless trace, or [stateprep] shots)",
    )

    quasi = sub.add_parser("quasienergies", parents=[common])
    quasi.add_argument("--oracle", action="store_true", help="add monodromy oracle columns")
    sub.add_parser("rabi-scan", parents=[common])
    sub.add_parser("tomography-trace", parents=[common, shots])
    sub.add_parser("edge-study", parents=[common])
    sub.add_parser("state-prep", parents=[common, shots])
    check = sub.add_parser("check")
    check.add_argument("--full", action="store_true", help="run every acceptance criterion")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _pin_mmap_threshold()
    t0 = time.time()
    try:
        if args.command == "check":
            return cmd_check(args.full)
        config = load_config(args.config)
        seed = args.seed if args.seed is not None else config["run"]["seed"]
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # an existing file, or a path under one
            raise ConfigError(f"--out {args.out} cannot be a directory: {exc.strerror}") from exc
        if args.command == "quasienergies":
            tables = cmd_quasienergies(config, args.oracle)
        elif args.command == "rabi-scan":
            tables = cmd_rabi_scan(config)
        elif args.command == "tomography-trace":
            tables = cmd_tomography_trace(config, args.shots, seed)
        elif args.command == "edge-study":
            tables = cmd_edge_study(config)
        elif args.command == "state-prep":
            tables = cmd_state_prep(config, args.shots, seed)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, ValueError) as exc:
        # domain errors raised by the solvers on bad config values land here
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3

    outputs = []
    for name in list(tables):  # in the command's order, each freed once written
        path = out_dir / name
        if name.endswith(".json"):
            _write_json(path, tables.pop(name))
        else:
            _write_csv(path, *tables.pop(name))
        outputs.append({"path": name, "bytes": path.stat().st_size, "sha256": _sha256(path)})
    report = {
        "command": args.command,
        "argv": list(argv) if argv is not None else sys.argv[1:],
        "version": __version__,
        "config": config.as_flat_dict(),
        "seed": seed,
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": outputs,
    }
    _write_json(out_dir / "run_report.json", report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
