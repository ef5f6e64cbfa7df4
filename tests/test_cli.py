import errno
import json
import os

import pytest

from flexmarket.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "--case", "toy2", "--mode", "compare", "--frobnicate")
    assert code == 2


def test_scenarios_lists_modifiers(capsys):
    code, out, _ = run_cli(capsys, "scenarios")
    assert code == 0
    assert "generator_capacity_scale" in out
    assert "ramp_scale" in out
    assert "tie_capacity:" in out


def test_unknown_case_reports_config_error(capsys):
    code, _, err = run_cli(capsys, "run", "--case", "nonexistent", "--mode", "compare")
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "config"


def test_bad_scenario_value(capsys):
    code, _, err = run_cli(capsys, "run", "--case", "toy2", "--mode", "compare",
                           "--scenario", "ramp_scale=abc")
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "config"


def _failure(err):
    return json.loads(err.strip().splitlines()[-1])


@pytest.mark.parametrize("scenario, kind, message", [
    ("tie_capacity:NOPE=5", "validation", "scenario rejected"),
    ("ramp_scale", "config", "--scenario expects KEY=VALUE, got 'ramp_scale'"),
    ("foo=1", "config", "unknown scenario modifier 'foo'"),
])
def test_a_bad_scenario_names_its_fault(capsys, scenario, kind, message):
    code, _, err = run_cli(capsys, "run", "--case", "toy2", "--mode", "compare",
                           "--scenario", scenario)
    assert code == 2
    payload = _failure(err)
    assert (payload["error"], payload["message"]) == (kind, message)
    if kind == "validation":
        assert payload["detail"] == ["tie capacity override references unknown tie-line NOPE"]


def test_a_mechanism_failure_exits_three_naming_the_round(capsys, monkeypatch):
    from flexmarket import coupling

    def failing_run(net, config):
        raise coupling.MechanismError(7, "area[A]: clearing iteration_limit")

    monkeypatch.setattr(coupling, "run", failing_run)
    code, _, err = run_cli(capsys, "run", "--case", "toy2", "--mode", "decentralized")
    assert code == 3
    assert _failure(err) == {"error": "solver",
                             "message": "round 7: area[A]: clearing iteration_limit"}


def test_an_infeasible_centralized_clearing_exits_three(capsys, monkeypatch):
    from flexmarket import benchmark

    def failing_solve(net, tol, max_iter):
        raise benchmark.CentralizedInfeasible("infeasible", "path failed, 3 iterations")

    monkeypatch.setattr(benchmark, "solve_centralized", failing_solve)
    code, _, err = run_cli(capsys, "run", "--case", "toy2", "--mode", "centralized")
    assert code == 3
    assert _failure(err) == {
        "error": "solver",
        "message": "centralized clearing: infeasible: path failed, 3 iterations"}


@pytest.mark.parametrize("flag, value", [
    ("--tol", "inf"), ("--rho0", "nan"), ("--rho-k0", "nan"), ("--rho-k0", "inf"),
])
def test_bad_mechanism_setting_is_a_config_error(capsys, flag, value):
    code, _, err = run_cli(capsys, "run", "--case", "toy2", "--mode", "compare", flag, value)
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "config"


@pytest.mark.parametrize("flag, value", [
    ("--scenario", "ramp_scale=-1"), ("--scenario", "ramp_scale=nan"),
    ("--scenario", "ramp_scale=inf"), ("--scenario", "generator_capacity_scale=0"),
    ("--scenario", "generator_capacity_scale=inf"), ("--scenario", "demand_cov=-0.1"),
    ("--scenario", "demand_cov=nan"), ("--scenario", "demand_cov=inf"),
    ("--scenario", "tie_capacity:AB=nan"), ("--scenario", "tie_capacity:AB=inf"),
    ("--objective-gap-threshold", "nan"), ("--objective-gap-threshold", "-1"),
])
def test_bad_input_value_is_a_config_error(capsys, flag, value):
    code, _, err = run_cli(capsys, "run", "--case", "toy2", "--mode", "compare", flag, value)
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["error"] == "config"


def test_invalid_case_file_gets_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"areas": ["A"]}')
    code, _, err = run_cli(capsys, "run", "--case", str(bad), "--mode", "centralized")
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "validation"
    assert any("missing top-level key" in v for v in payload["detail"])


def test_a_case_path_naming_a_directory_is_a_config_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--case", str(tmp_path), "--mode", "centralized")
    assert code == 2
    payload = _failure(err)
    assert payload["error"] == "config"
    assert payload["message"].startswith(f"case {str(tmp_path)!r} is neither bundled (")
    assert payload["message"].endswith(f" nor a readable file: {os.strerror(errno.EISDIR)}")


def test_a_case_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    case = tmp_path / "latin1.json"
    case.write_bytes(b"\xff{")
    code, _, err = run_cli(capsys, "run", "--case", str(case), "--mode", "centralized")
    assert code == 2
    payload = _failure(err)
    assert (payload["error"], payload["message"]) == ("validation",
                                                      f"case file {str(case)!r} rejected")
    assert payload["detail"][0].startswith("parse error: 'utf-8' codec can't decode")


@pytest.mark.parametrize("flag, name", [("--trace", "missing/out.csv"), ("--report", ".")])
def test_an_output_path_that_cannot_be_a_file_fails_before_the_run(tmp_path, capsys,
                                                                    monkeypatch, flag, name):
    from flexmarket import coupling

    def no_run(net, config):
        raise AssertionError("the run started")

    monkeypatch.setattr(coupling, "run", no_run)
    path = str(tmp_path / name)
    code, _, err = run_cli(capsys, "run", "--case", "toy2", "--mode", "decentralized",
                           flag, path)
    assert code == 2
    assert _failure(err) == {"error": "config", "message":
                             f"cannot write {path!r}: not a file in an existing directory"}


def test_a_failed_write_is_a_config_error(tmp_path, capsys, monkeypatch):
    from pathlib import Path

    def full_disk(self, text, encoding=None):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(Path, "write_text", full_disk)
    path = str(tmp_path / "report.json")
    code, _, err = run_cli(capsys, "run", "--case", "toy2", "--mode", "centralized",
                           "--report", path)
    assert code == 2
    assert _failure(err) == {"error": "config",
                             "message": f"cannot write {path!r}: {os.strerror(errno.ENOSPC)}"}


def test_infeasible_case_exits_three(tmp_path, capsys):
    doc = {
        "areas": ["X", "Y"],
        "buses": [{"id": "X1", "area": "X"}, {"id": "Y1", "area": "Y"}],
        "generators": [
            {"id": "GX", "bus": "X1", "cost_quadratic": 0.5, "cost_linear": 0.0,
             "cost_constant": 0.0, "p_min": 0.0, "p_max": 100.0,
             "ramp_down": -50.0, "ramp_up": 50.0, "p_da": 0.0},
            {"id": "GY", "bus": "Y1", "cost_quadratic": 0.5, "cost_linear": 0.0,
             "cost_constant": 0.0, "p_min": 0.0, "p_max": 6.0,
             "ramp_down": -50.0, "ramp_up": 50.0, "p_da": 0.0},
        ],
        "tie_lines": [{"id": "XY", "from_area": "X", "from_bus": "X1", "to_area": "Y",
                       "to_bus": "Y1", "reactance": 0.1, "capacity": 50.0, "t_da": 0.0}],
        "demand": {"buses": {"X1": {"mean": 0.0}, "Y1": {"mean": 10.0}}},
        "confidence": {"X": 0.5, "Y": 0.5},
    }
    case = tmp_path / "infeasible.json"
    case.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "run", "--case", str(case), "--mode", "centralized")
    assert code == 3
    assert json.loads(err.strip().splitlines()[-1])["error"] == "validation"


def test_compare_toy2_passes_thresholds(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "run", "--case", "toy2", "--mode", "compare",
                           "--report", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["objective_gap"] <= 1e-3
    assert report["checks"]["objective_gap"] is True
    assert set(report["kkt_residuals"]) == {"primal_eq", "primal_ineq",
                                            "dual_stationarity", "complementarity"}
    assert "nash_gaps" in report and set(report["nash_gaps"]) == {"A", "B"}


def test_congested_decentralized_trace_shows_positive_mu(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code, *_ = run_cli(capsys, "run", "--case", "toy2-congested", "--mode", "decentralized",
                       "--trace", str(trace_path), "--tol", "1e-9")
    assert code == 0
    lines = trace_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    final = lines[-1].split(",")
    mu = float(final[header.index("AB.mu")])
    assert mu > 1.0


def test_slackness_check_fails_on_a_priced_tie_below_capacity(tmp_path, capsys):
    # after 80 rounds at beta 0.5 the AB tie carries mu ~ 30 with its flow just
    # under the 5 MW capacity: mu times the capacity surrogate is about -1.46
    report_path = tmp_path / "report.json"
    code, *_ = run_cli(capsys, "run", "--case", "toy2-congested", "--mode", "decentralized",
                       "--beta", "0.5", "--max-rounds", "80", "--report", str(report_path))
    report = json.loads(report_path.read_text())
    assert code == 4
    assert report["final"]["slackness"] < -1.0
    assert report["checks"]["slackness"] is False


def test_exit_four_when_not_converged(capsys):
    code, _, err = run_cli(capsys, "run", "--case", "toy2", "--mode", "decentralized",
                           "--max-rounds", "3")
    assert code == 4
    assert "converged" in err


def test_ramp_scenario_raises_reliability_prices(tmp_path, capsys):
    base_path = tmp_path / "base.json"
    tight_path = tmp_path / "tight.json"
    code1, *_ = run_cli(capsys, "run", "--case", "tri3", "--mode", "decentralized",
                        "--report", str(base_path), "--tol", "1e-9")
    code2, *_ = run_cli(capsys, "run", "--case", "tri3", "--mode", "decentralized",
                        "--report", str(tight_path), "--scenario", "ramp_scale=0.75",
                        "--tol", "1e-9")
    assert code1 == 0 and code2 == 0
    base = json.loads(base_path.read_text())["final"]["reliability_prices"]
    tight = json.loads(tight_path.read_text())["final"]["reliability_prices"]
    for area in base:
        assert tight[area] >= base[area] - 1e-6


def test_compare_runs_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, *_ = run_cli(capsys, "run", "--case", "toy2", "--mode", "compare",
                           "--trace", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
