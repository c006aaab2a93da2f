"""Acceptance criteria, one test per criterion at its stated tolerance.

Three criteria encode quantitative claims that the exact dynamics does not
satisfy (closed-form validity ranges and the -Y preparation duration); they
are implemented faithfully and fail with the measured numbers.
"""

from strongdrive import acceptance, cli
from strongdrive.config import default_config


def _run(check):
    result = check()
    print(result.line())
    assert result.passed, result.details
    return result


def test_criterion_01_quasienergy_oracle():
    _run(acceptance.check_quasienergy_oracle)


def test_criterion_02_analytic_limits():
    _run(acceptance.check_analytic_limits)


def test_criterion_03_fig_s1():
    _run(acceptance.check_fig_s1)


def test_criterion_04_fig2_peaks():
    _run(acceptance.check_fig2)


def test_criterion_05_state_prep():
    _run(acceptance.check_state_prep)


def test_criterion_06_fig4_suppression():
    _run(acceptance.check_fig4)


def test_criterion_07_printed_matrices():
    _run(acceptance.check_printed_matrices)


def test_criterion_08_tomography_roundtrip():
    _run(acceptance.check_tomography_roundtrip)


def test_criterion_09_calibration_slopes():
    _run(acceptance.check_calibration_slopes)


def test_criterion_10_numerical_hygiene():
    _run(acceptance.check_numerical_hygiene)


class TestCriteriaScoreCommandTables:
    """Criteria 04-06 score the tables ``cli.cmd_*`` return: fed stand-ins,
    each prints the stand-ins' numbers."""

    def test_criterion_04_scores_rabi_peaks(self, monkeypatch):
        configs = []

        def rabi_scan(config):
            configs.append(config)
            peaks = [[1.0, 0.5, 0.1, "unassigned", -1, 0.0], [1.0, 4.1, 0.1, "2w-de", 2, 0.03]]
            return {"rabi_peaks.csv": (["amplitude_ghz"], peaks)}

        monkeypatch.setattr(cli, "cmd_rabi_scan", rabi_scan)
        result = acceptance.check_fig2()
        default = default_config()
        assert configs[0] == default
        assert {k: v for k, v in configs[1]["rabi"].items() if default["rabi"][k] != v} == {
            "omega_ghz": 1.373, "amp_min_ghz": 0.30, "amp_max_ghz": 4.30, "amp_points": 9
        }
        assert not result.passed
        assert result.details.count("2 peaks, 1 unassigned, worst odd-n score 0.0300") == 2

    def test_criterion_05_scores_state_prep_json(self, monkeypatch):
        calls = []

        def state_prep(config, shots, seed):
            calls.append((config, shots, seed))
            return {"state_prep.json": {
                name: {"pulse": {"total_ns": total}, "unitary_fidelity": 0.999}
                for name, total in (("minus_y", 0.5), ("excited", 1.1))
            }}

        monkeypatch.setattr(cli, "cmd_state_prep", state_prep)
        result = acceptance.check_state_prep()
        assert calls == [(default_config(), 0, default_config()["run"]["seed"])]
        assert result.passed
        assert "-Y: F=0.99900 at 0.500 ns" in result.details
        assert "|1>: F=0.99900 at 1.100 ns" in result.details

    def test_criterion_06_scores_edge_fast_amplitudes(self, monkeypatch):
        configs = []

        def edge_study(config):
            configs.append(config)
            rows = [[4.0, 0.0, 0.3, 0.4], [0.0, 4.0, 0.03, 0.04]]
            rows += [[e, e, 0.1 / (1 + e) ** 2, 0.2 / (1 + e) ** 2] for e in (4.0, 2.0, 1.0, 0.5, 0.0)]
            return {"edge_fast_amplitudes.csv": (["t_rise_ns"], rows)}

        monkeypatch.setattr(cli, "cmd_edge_study", edge_study)
        result = acceptance.check_fig4()
        assert configs == [default_config()]
        assert result.passed
        assert "amps(2w-de) [0.1    0.0444 0.025  0.0111 0.004 ]" in result.details
        assert result.details.endswith("asym ratio 10.0")
