"""CLI: config validation, command outputs, determinism, manifests."""

import ctypes
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from strongdrive import cli, evolve, floquet, tomography
from strongdrive.config import default_config, load_config
from strongdrive.errors import ConfigError
from strongdrive.model import PulseSpec, QubitParams, StateVector
from strongdrive.units import TWO_PI, ghz_to_rad_per_ns


def write_config(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


SMALL_RABI = """
[rabi]
amp_min_ghz = 0.4
amp_max_ghz = 1.2
amp_points = 3
duration_ns = 20
sample_dt_ns = 0.01
[run]
seed = 77
"""


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg["device"]["delta_ghz"] == 2.288
        assert list(cfg["solver"]) == ["propagator_step_ns"]  # the solves size themselves
        assert cfg["stateprep"]["min_edge_ns"] == 0.02

    def test_unknown_section(self, tmp_path):
        p = write_config(tmp_path / "c.ini", "[nope]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(p)

    def test_unknown_key(self, tmp_path):
        p = write_config(tmp_path / "c.ini", "[rabi]\nbogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key 'bogus'"):
            load_config(p)

    @pytest.mark.parametrize(
        "section, key",
        [
            ("device", "t1_ns"),
            ("device", "t_ramsey_ns"),
            ("device", "persistent_current_na"),
            ("run", "threads"),
            ("solver", "refine"),  # the step is the one accuracy control
            ("solver", "truncation_n"),  # each solve sizes its own truncation
            ("solver", "monodromy_steps_per_period"),  # and the oracle its step
        ],
    )
    def test_removed_keys_rejected(self, tmp_path, capsys, section, key):
        p = write_config(tmp_path / "c.ini", f"[{section}]\n{key} = true\n")
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[{section}\]"):
            load_config(p)
        assert cli.main(["edge-study", "--config", p, "--out", str(tmp_path)]) == 2
        assert f"unknown key '{key}' in section [{section}]" in capsys.readouterr().err
        assert not (tmp_path / "run_report.json").exists()

    def test_bad_value(self, tmp_path):
        p = write_config(tmp_path / "c.ini", "[rabi]\namp_points = lots\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(p)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/definitely/not/here.ini")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("stateprep", "bootstrap_b", "99"),
            ("stateprep", "shots", "0"),
            ("quasienergies", "amp_points", "0"),
            ("rabi", "amp_points", "-3"),
            ("rabi", "window", "boxcar"),
            ("rabi", "duration_ns", "0"),
            ("rabi", "sample_dt_ns", "-0.01"),
            ("tomotrace", "sample_dt_ns", "nan"),
            ("edges", "duration_ns", "-25"),
            ("stateprep", "min_edge_ns", "0"),
            ("solver", "propagator_step_ns", "-0.001"),
            ("edges", "edge_times_ns", "0, -1"),
            ("edges", "asymmetric_pairs_ns", "4:-1"),
            ("device", "delta_ghz", "0"),
            ("quasienergies", "omega_factors", "1, 0"),
            ("quasienergies", "amp_min_ghz", "-0.5"),
            ("quasienergies", "amp_max_ghz", "-1"),
            ("rabi", "omega_ghz", "0"),
            ("rabi", "amp_min_ghz", "-0.2"),
            ("rabi", "amp_max_ghz", "-1"),
            ("rabi", "max_freq_ghz", "-1"),
            ("rabi", "n_max", "-1"),
            ("rabi", "zero_pad_factor", "0"),
            ("rabi", "min_prominence", "1.5"),
            ("tomotrace", "amplitudes_ghz", "0.1, -1"),
            ("tomotrace", "omega_ghz", "-2.288"),
            ("edges", "amplitude_ghz", "-1.33"),
            ("edges", "omega_ghz", "0"),
            ("stateprep", "amplitude_ghz", "0"),
            ("run", "seed", "-1"),
            # inf passes "> 0"; the solvers then failed without naming the key
            ("stateprep", "min_edge_ns", "inf"),
            ("device", "delta_ghz", "inf"),
            ("rabi", "duration_ns", "inf"),
            ("quasienergies", "omega_factors", "1, inf"),
            ("edges", "edge_times_ns", "0, inf"),
        ],
    )
    def test_out_of_range_value_names_key(self, tmp_path, section, key, value):
        p = write_config(tmp_path / "c.ini", f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"bad value for {section}\.{key}: "):
            load_config(p)

    def test_out_of_range_rejected_before_any_work(self, tmp_path, capsys):
        p = write_config(tmp_path / "c.ini", "[stateprep]\nbootstrap_b = 50\n")
        assert cli.main(["state-prep", "--config", p, "--out", str(tmp_path)]) == 2
        assert "stateprep.bootstrap_b" in capsys.readouterr().err
        assert not (tmp_path / "state_prep.json").exists()

    @pytest.mark.parametrize(
        "cmd, text, key",
        [
            ("quasienergies", "[quasienergies]\nomega_factors =\n", "quasienergies.omega_factors"),
            ("tomography-trace", "[tomotrace]\namplitudes_ghz =\n", "tomotrace.amplitudes_ghz"),
            ("edge-study", "[edges]\nedge_times_ns =\nasymmetric_pairs_ns =\n",
             "edges.edge_times_ns"),
        ],
        ids=["quasienergies", "tomography-trace", "edge-study"],
    )
    def test_empty_scan_list_is_rejected(self, tmp_path, capsys, cmd, text, key):
        # an empty scan used to exit 0 with header-only tables
        cfg = write_config(tmp_path / "c.ini", text)
        assert cli.main([cmd, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"bad value for {key}: " in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == []

    def test_zero_propagator_step_and_sharp_edges_allowed(self, tmp_path):
        p = write_config(
            tmp_path / "c.ini",
            "[solver]\npropagator_step_ns = 0\n[edges]\nedge_times_ns = 0\n"
            "asymmetric_pairs_ns = 4:0\n",
        )
        cfg = load_config(p)
        assert cfg["solver"]["propagator_step_ns"] == 0.0
        assert cfg["edges"]["asymmetric_pairs_ns"] == ((4.0, 0.0),)

    def test_lists_and_pairs(self, tmp_path):
        p = write_config(
            tmp_path / "c.ini",
            "[edges]\nedge_times_ns = 0, 1.5, 3\nasymmetric_pairs_ns = 2:0, 0:2\n",
        )
        cfg = load_config(p)
        assert cfg["edges"]["edge_times_ns"] == (0.0, 1.5, 3.0)
        assert cfg["edges"]["asymmetric_pairs_ns"] == ((2.0, 0.0), (0.0, 2.0))


def read_csv(path: Path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestQuasienergiesCommand:
    def test_columns_and_oracle_agreement(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini",
            "[quasienergies]\namp_min_ghz = 0\namp_max_ghz = 1.2\namp_points = 7\n"
            "omega_factors = 1.0, 0.6\n",
        )
        rc = cli.main(
            ["quasienergies", "--config", cfg, "--out", str(tmp_path), "--oracle"]
        )
        assert rc == 0
        header, rows = read_csv(tmp_path / "quasienergies.csv")
        assert header[:8] == [
            "amplitude_ghz",
            "omega_ghz",
            "eps0_numeric",
            "eps1_numeric",
            "eps0_analytic",
            "eps1_analytic",
            "delta_eps_numeric",
            "delta_eps_analytic",
        ]
        assert "eps0_monodromy" in header
        data = np.array([[float(x) for x in r] for r in rows])
        # A = 0 rows: delta_eps = |Delta - omega| in GHz
        for r in data[data[:, 0] == 0.0]:
            assert abs(r[6] - abs(2.288 - r[1])) < 1e-9
        # numeric vs monodromy mod omega, angular tolerance 1e-8 rad/ns
        i0, i1 = header.index("eps0_monodromy"), header.index("eps1_monodromy")
        for r in data:
            omega = TWO_PI * r[1]
            for col in (2, 3):
                x = TWO_PI * r[col]
                best = min(
                    abs((x - TWO_PI * r[j] + omega / 2) % omega - omega / 2)
                    for j in (i0, i1)
                )
                assert best < 1e-8

    @pytest.mark.parametrize("factors", ["1.0, 0.6, 1.4", "0.0437"])
    def test_oracle_gate_passes(self, tmp_path, factors):
        # the default carriers, and omega = 0.1 GHz, where a solve held at
        # N = 50 put 36 of the 100 rows up to 0.047 GHz off their monodromy
        # pair; the command now exits 0 only with every row within 1e-8 rad/ns
        cfg = write_config(tmp_path / "c.ini", f"[quasienergies]\nomega_factors = {factors}\n")
        assert cli.main(["quasienergies", "--config", cfg, "--out", str(tmp_path), "--oracle"]) == 0
        header, rows = read_csv(tmp_path / "quasienergies.csv")
        data = TWO_PI * np.array(rows, dtype=float)
        omega = data[:, [1]]
        numeric = data[:, [2, 3]]
        for mono in data[:, [header.index("eps0_monodromy")]], data[:, [-1]]:
            gap = np.abs((numeric - mono + omega / 2) % omega - omega / 2)
            numeric = np.where(gap < 1e-8, np.nan, numeric)  # matched
        assert len(data) == 100 * len(factors.split(",")) and np.isnan(numeric).all()

    def test_oracle_disagreement_exit_3(self, tmp_path, capsys, monkeypatch):
        oracle = floquet.monodromy_quasienergies_batch
        monkeypatch.setattr(floquet, "monodromy_quasienergies_batch", lambda *a: oracle(*a) + 2e-8)
        cfg = write_config(tmp_path / "c.ini", "[quasienergies]\namp_points = 5\n")
        assert cli.main(["quasienergies", "--config", cfg, "--out", str(tmp_path), "--oracle"]) == 3
        err = capsys.readouterr().err
        assert re.search(
            r"numeric failure: numeric vs monodromy quasienergies differ by 2\.0\de-08 rad/ns", err
        )
        assert not (tmp_path / "run_report.json").exists()

    def test_run_report_manifest(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini",
            "[quasienergies]\namp_points = 3\namp_max_ghz = 0.5\nomega_factors = 1.0\n",
        )
        assert cli.main(["quasienergies", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "run_report.json").read_text())
        assert report["command"] == "quasienergies"
        assert report["version"]
        for entry in report["outputs"]:
            blob = (tmp_path / entry["path"]).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
            assert len(blob) == entry["bytes"]


def test_manifest_hash_of_a_multi_block_file(tmp_path):
    # _sha256 reads 64 KiB blocks; the default rabi_p1.csv is 6.6 MB
    blob = np.random.default_rng(0).bytes(3 * 65536 + 5)
    (tmp_path / "f").write_bytes(blob)
    assert cli._sha256(tmp_path / "f") == hashlib.sha256(blob).hexdigest()


class TestRabiScanCommand:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", SMALL_RABI)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["rabi-scan", "--config", cfg, "--out", str(out_a)]) == 0
        assert cli.main(["rabi-scan", "--config", cfg, "--out", str(out_b)]) == 0
        for name in ("rabi_p1.csv", "rabi_spectra.csv", "rabi_peaks.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_p1_is_the_floquet_expansion_whatever_the_step_policy(self, tmp_path):
        # the amplitude scans take no step: [solver] propagator_step_ns
        # reaches edge-study only
        solver = "[solver]\npropagator_step_ns = 0.0005\n"
        for name, text in (("default", SMALL_ALL), ("stepped", SMALL_ALL + solver)):
            cfg = write_config(tmp_path / f"{name}.ini", text)
            for cmd in ("rabi-scan", "tomography-trace"):
                assert cli.main([cmd, "--config", cfg, "--out", str(tmp_path / name)]) == 0
        default, stepped = tmp_path / "default", tmp_path / "stepped"
        for f in ("rabi_p1.csv", "rabi_spectra.csv", "rabi_peaks.csv", "bloch_trace.csv"):
            assert (default / f).read_bytes() == (stepped / f).read_bytes()
        p1 = np.array([float(r[2]) for r in read_csv(default / "rabi_p1.csv")[1]])
        omega = TWO_PI * 2.288
        states = evolve.continuous_drive_states(
            QubitParams(delta=omega), TWO_PI * np.linspace(0.4, 1.2, 3), omega,
            np.arange(0.0, 20.0 + 1e-9, 0.01),
        )
        assert np.array_equal(p1, (np.abs(states[:, :, 1]) ** 2).ravel())

    def test_one_floquet_sweep_per_scan(self, tmp_path, monkeypatch):
        # the scan classifies peaks with the spectra its traces were summed from
        sweeps, sweep = [], floquet.quasienergy_sweep

        def counted(*args, **kwargs):
            sweeps.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(evolve, "quasienergy_sweep", counted)
        monkeypatch.setattr(floquet, "quasienergy_sweep", counted)
        cfg = write_config(tmp_path / "c.ini", SMALL_RABI)
        assert cli.main(["rabi-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(sweeps) == 1
        # an edge study solves its plateau once, whatever the edges and the
        # step; state preparation once per target
        solver = "[solver]\npropagator_step_ns = 0.0005\n"
        cfg = write_config(tmp_path / "e.ini", SMALL_ALL + solver)
        sweeps.clear()
        assert cli.main(["edge-study", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(sweeps) == 1
        sweeps.clear()
        assert cli.main(["state-prep", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(sweeps) == 2

    def test_small_carrier_sizes_its_truncation(self, tmp_path):
        # 4.78 GHz on a 0.2 GHz carrier reaches |n| = 50, where a solve held
        # there exited 3; the solve doubles to N = 100, and the largest
        # amplitude's trace meets the time-stepped drive
        cfg = write_config(tmp_path / "c.ini", "[rabi]\nomega_ghz = 0.2\nduration_ns = 2\n")
        assert cli.main(["rabi-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        data = np.array(read_csv(tmp_path / "rabi_p1.csv")[1], dtype=float)
        top = data[-401:]
        amp = ghz_to_rad_per_ns(np.linspace(0.2, 4.78, 12))[-1]
        pulse = PulseSpec(amp, TWO_PI * 0.2, 0.0, 2.0, 0.0)
        traj = evolve.propagate(QubitParams(), pulse, sample_dt=0.005, target_step=1e-4)
        assert np.allclose(traj.times, top[:, 1], rtol=0.0, atol=1e-12)
        assert np.max(np.abs(traj.p1 - top[:, 2])) <= 1e-11

    def test_weak_drive_peak_near_amplitude(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini",
            "[rabi]\namp_min_ghz = 0.10\namp_max_ghz = 0.10\namp_points = 1\n"
            "duration_ns = 50\nsample_dt_ns = 0.01\n",
        )
        assert cli.main(["rabi-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "rabi_peaks.csv")
        top = max(rows, key=lambda r: float(r[2]))
        assert abs(float(top[1]) - 0.10) < 0.03  # dominant peak near 0.10 GHz
        assert top[3] == "n*w+de"


class TestTomographyTraceCommand:
    def test_initial_row_and_rabi_consistency(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini",
            "[tomotrace]\namplitudes_ghz = 0.46\nduration_ns = 6\nsample_dt_ns = 0.01\n"
            "[rabi]\namp_min_ghz = 0.46\namp_max_ghz = 0.46\namp_points = 1\n"
            "duration_ns = 6\nsample_dt_ns = 0.01\n",
        )
        assert cli.main(["tomography-trace", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "bloch_trace.csv")
        first = [float(x) for x in rows[0]]
        assert first[1] == 0.0
        assert first[2:5] == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        assert cli.main(["rabi-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rabi_rows = read_csv(tmp_path / "rabi_p1.csv")
        sz = np.array([float(r[4]) for r in rows])
        p1 = np.array([float(r[2]) for r in rabi_rows])
        assert np.max(np.abs(sz - (1.0 - 2.0 * p1))) < 1e-9

    def test_shot_columns(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini",
            "[tomotrace]\namplitudes_ghz = 0.3\nduration_ns = 2\nsample_dt_ns = 0.1\n",
        )
        assert cli.main(
            ["tomography-trace", "--config", cfg, "--out", str(tmp_path), "--shots", "512"]
        ) == 0
        header, rows = read_csv(tmp_path / "bloch_trace.csv")
        assert header[-3:] == ["sx_meas", "sy_meas", "sz_meas"]
        meas = np.array([[float(x) for x in r[-3:]] for r in rows])
        exact = np.array([[float(x) for x in r[2:5]] for r in rows])
        assert np.max(np.abs(meas - exact)) < 0.25  # 512 shots of binomial noise

    def test_shot_columns_are_the_per_point_draws(self, tmp_path, monkeypatch):
        # reference: one StateVector, then measured_p1 and a binomial draw per
        # basis in the order ry90, rx90, id, from one generator per point
        cfg = write_config(tmp_path / "c.ini", SMALL_ALL)
        made = []
        for cls in (StateVector, tomography.DensityMatrix):
            init = cls.__post_init__
            monkeypatch.setattr(
                cls, "__post_init__", lambda self, init=init: made.append(self) or init(self)
            )
        argv = ["tomography-trace", "--config", cfg, "--out", str(tmp_path), "--shots", "64"]
        assert cli.main(argv) == 0
        monkeypatch.undo()
        assert made == [StateVector.ground()]  # the drive's initial state, once
        _, rows = read_csv(tmp_path / "bloch_trace.csv")

        config = load_config(cfg)
        t = config["tomotrace"]
        durations = np.arange(0.0, t["duration_ns"] + 1e-9, t["sample_dt_ns"])
        batch = evolve.continuous_drive_states(
            cli._device(config), ghz_to_rad_per_ns(np.array(t["amplitudes_ghz"])),
            ghz_to_rad_per_ns(t["omega_ghz"]), durations,
        )
        want = []
        for a_ghz, states in zip(t["amplitudes_ghz"], batch):
            seqs = np.random.SeedSequence((77, int(a_ghz * 1e6))).spawn(len(durations))
            for child, psi in zip(seqs, states):
                state, rng = StateVector.from_array(psi), np.random.default_rng(child)
                row = []
                for basis, sign in (("ry90", -1.0), ("rx90", 1.0), ("id", 1.0)):
                    p = np.clip(tomography.measured_p1(state, basis), 0.0, 1.0)
                    row.append(cli._fmt(sign * (1.0 - 2.0 * rng.binomial(64, p) / 64)))
                want.append(row)
        assert [r[-3:] for r in rows] == want


class TestEdgeStudyCommand:
    def test_zero_edge_matches_rabi(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini",
            "[edges]\namplitude_ghz = 1.33\nedge_times_ns = 0\nasymmetric_pairs_ns =\n"
            "duration_ns = 12\nsample_dt_ns = 0.01\n"
            "[rabi]\namp_min_ghz = 1.33\namp_max_ghz = 1.33\namp_points = 1\n"
            "duration_ns = 12\nsample_dt_ns = 0.01\n"
            "[solver]\npropagator_step_ns = 0.0005\n",
        )
        assert cli.main(["edge-study", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert cli.main(["rabi-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, edge_rows = read_csv(tmp_path / "edge_traces.csv")
        _, rabi_rows = read_csv(tmp_path / "rabi_p1.csv")
        p_edge = np.array([float(r[3]) for r in edge_rows])
        p_rabi = np.array([float(r[2]) for r in rabi_rows])
        assert np.max(np.abs(p_edge - p_rabi)) < 1e-9

    def test_fast_amplitude_columns(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini",
            "[edges]\nedge_times_ns = 0, 2\nasymmetric_pairs_ns = 2:0\n"
            "duration_ns = 15\nsample_dt_ns = 0.01\n",
        )
        assert cli.main(["edge-study", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "edge_fast_amplitudes.csv")
        assert header == ["t_rise_ns", "t_fall_ns", "amp_2w_minus_de", "amp_2w_plus_de"]
        assert len(rows) == 3

    def test_each_distinct_edge_is_built_once(self, monkeypatch):
        # the pairs share the plateau solve, which keeps every edge it
        # dressed: (0, 0) .. (4, 4), (4, 0), (0, 4) need the sharp edge and
        # the 0.5, 1, 2 and 4 ns series, each once
        built, fall_series = [], evolve._fall_series

        def spy(params, template, step):
            built.append((template.t_fall, step))
            return fall_series(params, template, step)

        monkeypatch.setattr(evolve, "_fall_series", spy)
        cli.cmd_edge_study(default_config())
        assert len(built) == len(set(built)) == 5
        assert sorted(t for t, _ in built) == [0.0, 0.5, 1.0, 2.0, 4.0]


def _row_writer(path, header, rows):
    """Reference CSV writer: ``_fmt`` on every value, one row at a time."""
    if isinstance(rows, np.ndarray):
        rows = rows.reshape(-1, len(header))
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(cli._fmt(v) for v in row) + "\n")


SMALL_ALL = SMALL_RABI + """
[quasienergies]
amp_max_ghz = 1.0
amp_points = 5
omega_factors = 1.0, 0.6
[tomotrace]
amplitudes_ghz = 0.1, 0.46
duration_ns = 2
sample_dt_ns = 0.02
[edges]
edge_times_ns = 0, 1
asymmetric_pairs_ns = 1:0
duration_ns = 8
sample_dt_ns = 0.01
"""


class TestBulkCsvWriter:
    def test_special_values_match_row_writer(self, tmp_path):
        table = np.array(
            [[0.0, -0.0, 5e-324], [2.2e-308 / 3, np.nan, np.inf], [-np.inf, 1 / 3, -1e300]]
        )
        cli._write_csv(tmp_path / "bulk.csv", ["a", "b", "c"], table)
        _row_writer(tmp_path / "rows.csv", ["a", "b", "c"], table)
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    @staticmethod
    def _same_bytes(path, table, keyed):
        header = [f"c{j}" for j in range(table.shape[1])]
        assert [cli._distinct_strings(col) is not None for col in table.T] == keyed
        cli._write_csv(path / "bulk.csv", header, table)
        _row_writer(path / "rows.csv", header, table)
        assert (path / "bulk.csv").read_bytes() == (path / "rows.csv").read_bytes()

    def test_key_columns_keep_every_bit_pattern(self, tmp_path, monkeypatch):
        # formatted once per bit pattern: -0 is not 0, and each NaN keeps its own
        payload_nan = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]
        special = [0.0, -0.0, np.nan, -np.nan, payload_nan, np.inf, -np.inf, 5e-324, 1 / 3]
        n = 8 * len(special)
        table = np.column_stack([
            np.repeat(special, 8), np.tile(special, 8),
            np.random.default_rng(5).permutation(np.resize(special, n)),
            np.random.default_rng(6).random(n),
        ])
        monkeypatch.setattr(cli, "_CSV_BLOCK", 5)  # splices cross block edges
        self._same_bytes(tmp_path, table, [True, True, True, False])

    @pytest.mark.parametrize("distinct, keyed", [(50, False), (49, True)])
    def test_half_the_rows_distinct_is_not_a_key(self, tmp_path, distinct, keyed):
        col = np.resize(np.linspace(-1.0, 1.0, distinct), 100)
        self._same_bytes(tmp_path, np.column_stack([col, col[::-1]]), [keyed, keyed])

    def test_one_row(self, tmp_path):
        self._same_bytes(tmp_path, np.array([[0.1, -0.0, np.nan]]), [False, False, False])

    def test_non_contiguous_input(self, tmp_path, monkeypatch):
        t = np.arange(0.0, 3.0, 0.01)
        table = np.column_stack([np.repeat([0.1, 0.2, 0.7], len(t)), np.tile(t, 3),
                                 np.random.default_rng(7).random(3 * len(t))])
        monkeypatch.setattr(cli, "_CSV_BLOCK", 64)
        self._same_bytes(tmp_path, table[:, ::-1], [False, True, True])
        self._same_bytes(tmp_path, table[::2], [True, True, False])

    def test_key_columns_add_little_memory(self, tmp_path):
        # rabi_p1.csv's shape: amplitude (repeat), t_p (tile), p1.  One
        # %-format per block traces 1.5 MB, the key columns 2.1 MB; holding
        # full-length np.unique inverse indices instead traced 7.6 MB
        amps, t = np.linspace(0.1, 6.0, 12), np.arange(10001) * 0.002
        table = np.column_stack([
            np.repeat(amps, len(t)), np.tile(t, len(amps)),
            np.random.default_rng(0).random(len(amps) * len(t)),
        ])
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "t.csv", ["amplitude_ghz", "t_p_ns", "p1"], table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6

    def test_empty_tables_write_the_header_only(self, tmp_path):
        for rows in (np.empty((0, 3)), []):
            cli._write_csv(tmp_path / "t.csv", ["a", "b", "c"], rows)
            assert (tmp_path / "t.csv").read_text() == "a,b,c\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["rabi-scan"],
            ["edge-study"],
            ["tomography-trace"],
            ["tomography-trace", "--shots", "64"],
            ["quasienergies", "--oracle"],
        ],
    )
    def test_outputs_match_row_writer(self, tmp_path, monkeypatch, argv):
        cfg = write_config(tmp_path / "c.ini", SMALL_ALL)
        bulk, rows = tmp_path / "bulk", tmp_path / "rows"
        monkeypatch.setattr(cli, "_CSV_BLOCK", 1000)  # several blocks, the last one partial
        assert cli.main([*argv, "--config", cfg, "--out", str(bulk)]) == 0
        monkeypatch.setattr(cli, "_write_csv", _row_writer)
        assert cli.main([*argv, "--config", cfg, "--out", str(rows)]) == 0
        names = sorted(p.name for p in bulk.glob("*.csv"))
        assert names == sorted(p.name for p in rows.glob("*.csv")) and names
        for name in names:
            digest = [hashlib.sha256((d / name).read_bytes()).hexdigest() for d in (bulk, rows)]
            assert digest[0] == digest[1], name


class TestStatePrepCommand:
    def test_report_fields(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini", "[stateprep]\nshots = 4096\nbootstrap_b = 100\n"
        )
        assert cli.main(
            ["state-prep", "--config", cfg, "--out", str(tmp_path), "--seed", "5"]
        ) == 0
        report = json.loads((tmp_path / "state_prep.json").read_text())
        for name in ("minus_y", "excited"):
            entry = report[name]
            assert 0.99 < entry["unitary_fidelity"] <= 1.0
            assert 0.97 < entry["reconstructed_fidelity"] <= 1.0
            assert entry["fidelity_stderr"] >= 0.0
            assert entry["bootstrap_b"] == 100
            # reconstruction consistent with the simulated preparation
            assert (
                abs(entry["reconstructed_fidelity"] - entry["unitary_fidelity"])
                <= 3.0 * entry["fidelity_stderr"] + 5e-4
            )
        assert report["excited"]["pulse"]["total_ns"] == pytest.approx(1.08, abs=0.05)

    def test_shots_sample_the_scanned_state(self, tmp_path, monkeypatch):
        prepared, sampled, stepped = [], [], []
        prepare, simulate = evolve.prepare_state, tomography.simulate_shots

        def prepare_spy(*args, **kwargs):
            out = prepare(*args, **kwargs)
            prepared.append(out[2])
            return out

        monkeypatch.setattr(evolve, "prepare_state", prepare_spy)
        monkeypatch.setattr(
            tomography, "simulate_shots",
            lambda state, *a, **k: sampled.append(state) or simulate(state, *a, **k),
        )
        monkeypatch.setattr(evolve, "propagate", lambda *a, **k: stepped.append(a))
        assert cli.main(["state-prep", "--out", str(tmp_path)]) == 0
        assert stepped == []  # the pulse is not propagated a second time
        assert len(prepared) == 2 and len(sampled) == 6  # three bases per target
        assert all(state is prepared[k // 3] for k, state in enumerate(sampled))


class TestCheckCommand:
    def test_quick_check_reports_known_failure(self, capsys):
        # the analytic strong-drive clause is a documented spec defect, so
        # the quick check exits 4 while the other lines pass
        rc = cli.main(["check"])
        out = capsys.readouterr().out
        assert rc == 4
        assert "[FAIL] analytic formula limits" in out
        assert "[PASS] printed-matrix fidelities" in out
        assert "[PASS] numerical hygiene" in out


def _fresh_loaded(code: str, modules) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after ``code``
    (this one has loaded them for the tests)."""
    code += f"\nimport sys\nprint(*(m for m in {tuple(modules)!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    return out.split()


class TestStartup:
    def test_import_leaves_unused_modules_unloaded(self):
        assert _fresh_loaded("import strongdrive.cli", ("scipy", "strongdrive.acceptance")) == []

    def test_acceptance_imports_cli_without_a_cycle(self):
        assert _fresh_loaded("import strongdrive.acceptance", ("strongdrive.cli",)) == [
            "strongdrive.cli"
        ]

    def test_floquet_work_loads_no_scipy(self):
        code = (
            "from strongdrive import floquet\n"
            "floquet.quasienergy_sweep(14.4, 14.4, [0.0, 1.0, 2.0])\n"
            "floquet.analytic_delta_epsilon(14.4, 1.0, 14.4)"
        )
        assert _fresh_loaded(code, ("scipy",)) == []

    @pytest.mark.skipif(
        sys.platform != "linux" or not hasattr(ctypes.CDLL(None), "mallinfo2"),
        reason="needs glibc >= 2.33",
    )
    def test_large_buffers_stay_mmapped_after_a_larger_one_is_freed(self):
        # a fresh interpreter: its heap has no free 8 MiB block to carve the
        # table from.  Unpinned, freeing the 16 MiB block would raise glibc's
        # threshold past 8 MiB and the table would grow the heap instead.
        code = (
            "import ctypes, numpy as np\n"
            "from strongdrive import cli\n"
            "class Info(ctypes.Structure):\n"
            "    _fields_ = [(f, ctypes.c_size_t) for f in ('arena', 'ordblks', 'smblks',\n"
            "        'hblks', 'hblkhd', 'usmblks', 'fsmblks', 'uordblks', 'fordblks', 'keepcost')]\n"
            "info = ctypes.CDLL(None).mallinfo2\n"
            "info.restype = Info\n"
            "cli._pin_mmap_threshold()\n"
            "np.ones(2 << 20)  # 16 MiB, mapped and freed\n"
            "before = info().hblkhd\n"
            "table = np.ones(1 << 20)\n"
            "print(info().hblkhd - before >= table.nbytes)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        ).stdout
        assert out.split() == ["True"]


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [["rabi-scan", "--oracle"], ["edge-study", "--shots", "5"], ["check", "--seed", "1"]],
    )
    def test_flag_on_command_that_ignores_it_exit_2(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not (tmp_path / "run_report.json").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["tomography-trace", "--shots", "-5"], "--shots"),
            (["state-prep", "--shots", "-5"], "--shots"),
            (["rabi-scan", "--seed", "-1"], "--seed"),
            (["state-prep", "--seed", "-1"], "--seed"),
        ],
    )
    def test_negative_shots_or_seed_exit_2_names_flag(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"argument {flag}: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "run_report.json").exists()

    def test_truncation_too_small_exit_3(self, tmp_path, capsys, monkeypatch):
        # 4.78 GHz on a 0.2 GHz carrier needs N = 100; capped at 50 the solve
        # stops, naming A/omega
        monkeypatch.setattr(floquet, "TRUNCATION_CAP", 50)
        cfg = write_config(tmp_path / "c.ini", "[rabi]\nomega_ghz = 0.2\n")
        assert cli.main(["rabi-scan", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "at A/omega = 23.9, and N may not double past 50" in capsys.readouterr().err
        assert not (tmp_path / "run_report.json").exists()

    def test_edge_study_truncation_too_small_exit_3(self, tmp_path, capsys, monkeypatch):
        # the plateau is the same solve, with the same cap
        monkeypatch.setattr(floquet, "TRUNCATION_CAP", 50)
        cfg = write_config(tmp_path / "c.ini", "[edges]\namplitude_ghz = 4.78\nomega_ghz = 0.2\n")
        assert cli.main(["edge-study", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "at A/omega = 23.9, and N may not double past 50" in capsys.readouterr().err
        assert not (tmp_path / "run_report.json").exists()

    def test_past_the_truncation_cap_exit_3(self, tmp_path, capsys):
        # 4.78 GHz on a 0.0065 GHz carrier: 2A/omega = 1471 is within the
        # Bessel bound, but the sector vectors still reach |n| = 800
        cfg = write_config(
            tmp_path / "c.ini",
            f"[quasienergies]\nomega_factors = {0.0065 / 2.288!r}\namp_min_ghz = 4.78\n"
            "amp_max_ghz = 4.78\namp_points = 1\n",
        )
        assert cli.main(["quasienergies", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "reach |n| = N = 800" in err
        assert "at A/omega = 735.4, and N may not double past 800" in err
        assert not (tmp_path / "run_report.json").exists()

    @pytest.mark.parametrize("command", ["quasienergies", "state-prep"])
    def test_bessel_argument_past_the_cap_exit_3(self, tmp_path, capsys, command):
        # Delta = 1e-9 GHz makes 2A/omega about 1e10 on a resonant carrier,
        # which asked _bessel for that many nodes per value
        cfg = write_config(tmp_path / "c.ini", "[device]\ndelta_ghz = 1e-9\n")
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert re.search(r"numeric failure: Bessel argument \|x\| = \|2A/omega\| = \S+ > 1600", err)
        assert not (tmp_path / "run_report.json").exists()

    def test_near_degenerate_basis_exit_3_names_delta_eps(self, tmp_path, capsys):
        # a tiny amplitude on resonance: no truncation_n gives a unitary basis
        cfg = write_config(
            tmp_path / "c.ini",
            "[rabi]\namp_min_ghz = 1e-10\namp_max_ghz = 1e-10\namp_points = 1\n",
        )
        assert cli.main(["rabi-scan", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "delta_eps = 6.28e-10" in err and "raise truncation_n" not in err
        assert not (tmp_path / "run_report.json").exists()

    def test_coarse_monodromy_step_exit_3(self, tmp_path, capsys, monkeypatch):
        # a 0.05 GHz carrier needs 4000 steps per period; capped at 2000 the
        # step-doubling gate stops the oracle, where unitarity could not
        monkeypatch.setattr(floquet, "MONODROMY_STEPS_CAP", 2000)
        cfg = write_config(
            tmp_path / "c.ini", f"[quasienergies]\nomega_factors = {0.05 / 2.288!r}\n"
        )
        argv = ["quasienergies", "--config", cfg, "--out", str(tmp_path), "--oracle"]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "at 2000 steps per period, the most it may use" in err
        assert not (tmp_path / "run_report.json").exists()

    def test_sector_sweep_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(floquet, "_MAX_SWEEPS", 1)
        assert cli.main(["quasienergies", "--out", str(tmp_path)]) == 3
        assert "101 photon indices" in capsys.readouterr().err
        assert not (tmp_path / "run_report.json").exists()

    def test_state_prep_scan_over_the_cap_exit_2_names_key(self, tmp_path, capsys):
        # 1e-6 GHz would scan ~1e8 coarse durations, tens of GB
        cfg = write_config(tmp_path / "c.ini", "[stateprep]\namplitude_ghz = 1e-6\n")
        assert cli.main(["state-prep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "[stateprep] amplitude_ghz" in capsys.readouterr().err
        assert not (tmp_path / "state_prep.json").exists()

    @pytest.mark.parametrize("under_file", [False, True], ids=["existing-file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_exit_2_names_path(
        self, tmp_path, capsys, monkeypatch, under_file
    ):
        # mkdir's FileExistsError and NotADirectoryError used to escape main
        # as a traceback
        taken = tmp_path / "taken"
        taken.write_text("kept")
        out = taken / "sub" if under_file else taken
        work = []
        monkeypatch.setattr(cli, "cmd_rabi_scan", work.append)
        assert cli.main(["rabi-scan", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {out} cannot be a directory")
        assert work == []
        assert list(tmp_path.iterdir()) == [taken] and taken.read_text() == "kept"

    def test_config_error_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[rabi]\nbogus = 1\n")
        assert cli.main(["rabi-scan", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "text, why",
        [
            ("[rabi]\namp_points = 3\namp_points = 4\n", "already exists"),
            ("amp_points = 3\n", "no section headers"),
            ("[rabi]\namp_points = 3\nnot a key line\n", "not a key line"),
        ],
        ids=["duplicate-key", "no-section-header", "unparsable-line"],
    )
    def test_malformed_ini_exit_2_names_file(self, tmp_path, capsys, text, why):
        # configparser's own errors used to escape main as a traceback
        cfg = write_config(tmp_path / "c.ini", text)
        assert cli.main(["rabi-scan", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot parse config file")
        assert cfg in err and why in err
        assert not (tmp_path / "run_report.json").exists()

    def test_domain_error_exit_2(self, tmp_path):
        # duration too short to separate the fast pair in the fit
        cfg = write_config(
            tmp_path / "c.ini", "[edges]\nduration_ns = 0.5\nsample_dt_ns = 0.01\n"
        )
        assert cli.main(["edge-study", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_zero_drive_on_resonance_names_coincident_pair(self, tmp_path, capsys):
        # at A = 0 and w = Delta, delta_eps = 0: no trace length separates the pair
        cfg = write_config(
            tmp_path / "c.ini",
            "[edges]\namplitude_ghz = 0\nedge_times_ns = 0\nasymmetric_pairs_ns =\n"
            "duration_ns = 5\nsample_dt_ns = 0.01\n",
        )
        assert cli.main(["edge-study", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "delta_eps = 0" in err and "coincide" in err
        assert "too short" not in err


class TestConfigRoundTrip:
    def test_report_config_reruns_identically(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", SMALL_RABI)
        out_a = tmp_path / "a"
        assert cli.main(["rabi-scan", "--config", cfg, "--out", str(out_a)]) == 0
        report = json.loads((out_a / "run_report.json").read_text())
        # rebuild an INI from the resolved config echoed in the report
        sections = {}
        for flat_key, value in report["config"].items():
            sec, key = flat_key.split(".", 1)
            if isinstance(value, list):
                if value and isinstance(value[0], list):
                    value = ", ".join(f"{a}:{b}" for a, b in value)
                else:
                    value = ", ".join(str(x) for x in value)
            sections.setdefault(sec, []).append(f"{key} = {value}")
        text = "\n".join(
            f"[{sec}]\n" + "\n".join(lines) + "\n" for sec, lines in sections.items()
        )
        cfg2 = write_config(tmp_path / "echo.ini", text)
        out_b = tmp_path / "b"
        assert cli.main(["rabi-scan", "--config", cfg2, "--out", str(out_b)]) == 0
        for name in ("rabi_p1.csv", "rabi_spectra.csv", "rabi_peaks.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
