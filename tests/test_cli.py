import csv
import json

import numpy as np
import pytest

from mqrank import simulation
from mqrank.cli import main
from mqrank.datamodel import all_subsets
from mqrank.exceptions import MqrankError


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(12)
    n = 80
    x = rng.standard_normal(n)
    z = 0.3 * x + np.sqrt(0.91) * rng.standard_normal(n)
    y = 0.5 + 0.9 * x + 0.5 * z + rng.standard_normal(n)
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["resp", "xcov", "zcov"])
        for row in zip(y, x, z):
            writer.writerow([f"{v:.12g}" for v in row])
    return path


def run_cli(*argv):
    return main(list(argv))


def test_cmd_test_json_structure(data_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli("test", "--input", str(data_csv), "--response", "resp",
                   "--target", "xcov", "--nuisance", "zcov",
                   "--taus", "0.25,0.5,0.75", "--weighting", "identity",
                   "--verbose", "--format", "json", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["hypotheses"]) == 3
    assert len(payload["subsets"]) == 7
    for record in payload["hypotheses"]:
        assert {"tau", "beta_hat", "local_p", "adjusted_p", "reject"} <= set(record)
    # strong signal: everything rejected
    assert all(r["reject"] for r in payload["hypotheses"])


def test_cmd_test_csv_format(data_csv, capsys):
    code = run_cli("test", "--input", str(data_csv), "--response", "resp",
                   "--target", "xcov", "--nuisance", "zcov",
                   "--taus", "0.5", "--format", "csv")
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("hypothesis,tau,null_value,beta_hat")
    assert len(lines) == 2


def test_cmd_test_missing_column(data_csv, capsys):
    code = run_cli("test", "--input", str(data_csv), "--response", "resp",
                   "--target", "nope", "--taus", "0.5")
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_cmd_test_missing_file(capsys):
    code = run_cli("test", "--input", "/no/such/file.csv", "--response", "y",
                   "--target", "x", "--taus", "0.5")
    assert code == 2


def test_cmd_test_non_numeric_cell(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("y,x\n1.0,2.0\nfoo,3.0\n")
    code = run_cli("test", "--input", str(path), "--response", "y",
                   "--target", "x", "--taus", "0.5")
    assert code == 2
    assert "line 3" in capsys.readouterr().err


def test_cmd_test_constant_response_fails_validation(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "const.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "x", "z"])
        for _ in range(30):
            writer.writerow(["2.0", f"{rng.standard_normal():.6f}",
                             f"{rng.standard_normal():.6f}"])
    code = run_cli("test", "--input", str(path), "--response", "y",
                   "--target", "x", "--nuisance", "z", "--taus", "0.5")
    assert code == 2
    assert "SampleTooSmall" in capsys.readouterr().err


def test_cmd_test_refuses_multiple_weightings(data_csv, capsys):
    code = run_cli("test", "--input", str(data_csv), "--response", "resp",
                   "--target", "xcov", "--taus", "0.5",
                   "--weighting", "identity,inverse")
    assert code == 2
    assert "one weighting" in capsys.readouterr().err


def test_cmd_test_non_numeric_taus(data_csv, capsys):
    code = run_cli("test", "--input", str(data_csv), "--response", "resp",
                   "--target", "xcov", "--taus", "0.5,abc")
    assert code == 2
    assert "--taus" in capsys.readouterr().err


def test_cmd_test_duplicate_taus(data_csv, capsys):
    code = run_cli("test", "--input", str(data_csv), "--response", "resp",
                   "--target", "xcov", "--nuisance", "zcov",
                   "--taus", "0.5,0.5")
    assert code == 2
    assert "DuplicateQuantile" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
def test_cmd_test_alpha_out_of_range_exit_2(data_csv, alpha, capsys):
    code = run_cli("test", "--input", str(data_csv), "--response", "resp",
                   "--target", "xcov", "--taus", "0.25,0.5", "--alpha", alpha)
    assert code == 2
    out = capsys.readouterr()
    assert out.err == "error: alpha must be in (0, 1)\n"
    assert out.out == ""


def test_cmd_test_custom_weighting(data_csv, tmp_path):
    wpath = tmp_path / "w.txt"
    wpath.write_text("2.0 0.1\n0.1 1.0\n")
    code = run_cli("test", "--input", str(data_csv), "--response", "resp",
                   "--target", "xcov", "--nuisance", "zcov",
                   "--taus", "0.25,0.75", "--weighting", f"custom:{wpath}")
    assert code == 0


def test_cmd_test_custom_weighting_bad_shape(data_csv, tmp_path, capsys):
    wpath = tmp_path / "w.txt"
    wpath.write_text("1.0 0.0\n0.0 1.0\n")
    code = run_cli("test", "--input", str(data_csv), "--response", "resp",
                   "--target", "xcov", "--taus", "0.25,0.5,0.75",
                   "--weighting", f"custom:{wpath}")
    assert code == 2


def test_cmd_test_numerical_failure_exit_code(tmp_path, capsys):
    # target identical to the nuisance column: the weighted projection
    # residual vanishes and the statistic is undefined
    rng = np.random.default_rng(3)
    path = tmp_path / "collinear.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "x", "z"])
        for _ in range(40):
            z = rng.standard_normal()
            writer.writerow([f"{rng.standard_normal():.8f}", f"{z:.8f}",
                             f"{z:.8f}"])
    code = run_cli("test", "--input", str(path), "--response", "y",
                   "--target", "x", "--nuisance", "z", "--taus", "0.25,0.5")
    assert code == 3


def test_cmd_simulate_bundled_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code = run_cli("simulate", "--scenario", "null_calibration",
                       "--replications", "8", "--format", "csv",
                       "--out", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "seed: 20260809" in capsys.readouterr().err


def test_cmd_simulate_seed_override_changes_output(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    run_cli("simulate", "--scenario", "null_calibration", "--replications", "8",
            "--seed", "1", "--format", "json", "--out", str(out1))
    run_cli("simulate", "--scenario", "null_calibration", "--replications", "8",
            "--seed", "2", "--format", "json", "--out", str(out2))
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert a["scenario"]["seed"] == 1 and b["scenario"]["seed"] == 2
    assert a != b


def test_cmd_simulate_scenario_file(tmp_path):
    path = tmp_path / "tiny.scenario"
    path.write_text("dgp = null_normal\nn = 60\ntaus = 0.25, 0.75\n"
                    "replications = 5\nseed = 2\n")
    out = tmp_path / "rep.json"
    code = run_cli("simulate", "--scenario", str(path), "--format", "json",
                   "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["replications_used"] == 5
    assert payload["error_count"] == 0
    assert "closed:identity" in payload["hypothesis_rejections"]


def test_cmd_simulate_invalid_levels_exit_2(tmp_path, capsys):
    path = tmp_path / "bad_taus.scenario"
    path.write_text("dgp = null_normal\nn = 60\ntaus = 0.5, 1.5\n"
                    "replications = 5\nseed = 2\n")
    code = run_cli("simulate", "--scenario", str(path),
                   "--weightings", "inverse", "--format", "json")
    assert code == 2
    assert "QuantileOutOfRange" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1.5", "0", "nan"])
def test_cmd_simulate_alpha_out_of_range_exit_2(alpha, capsys):
    code = run_cli("simulate", "--scenario", "null_calibration",
                   "--methods", "closed,raw", "--weightings", "inverse",
                   "--replications", "2", "--alpha", alpha)
    assert code == 2
    out = capsys.readouterr()
    assert out.err == "error: alpha must be in (0, 1)\n"
    assert out.out == ""


def test_cmd_simulate_all_replications_failed_exit_3(monkeypatch, tmp_path,
                                                      capsys):
    def failing(dataset, spec):
        raise MqrankError("synthetic failure")

    monkeypatch.setattr(simulation, "score_state", failing)
    out = tmp_path / "rep.json"
    code = run_cli("simulate", "--scenario", "null_calibration",
                   "--replications", "3", "--format", "json", "--out", str(out))
    assert code == 3
    assert "synthetic failure" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_simulate_unknown_dgp(tmp_path, capsys):
    path = tmp_path / "bad.scenario"
    path.write_text("dgp = lognormal\n")
    code = run_cli("simulate", "--scenario", str(path))
    assert code == 2


def test_cmd_simulate_unknown_name(capsys):
    assert run_cli("simulate", "--scenario", "no_such_scenario") == 2


def test_cmd_power_null_gives_alpha(capsys):
    code = run_cli("power", "--taus", "0.25,0.5,0.75", "--g", "0,0,0",
                   "--alpha", "0.05", "--format", "json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["power"]) == 7
    for row in payload["power"]:
        assert row["power"] == pytest.approx(0.05, abs=1e-6)


def test_cmd_power_inverse_matches_identity_path_when_equivalent(capsys):
    # inverse weighting routes through the closed-form noncentral path
    code = run_cli("power", "--taus", "0.25,0.75", "--g", "1,1",
                   "--weighting", "inverse", "--format", "json")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    joint = [r for r in payload["power"] if r["size"] == 2][0]
    # frozen noncentral chi-square oracle value (zeta = 8)
    assert joint["power"] == pytest.approx(0.7174789, abs=3 * 0.000142)


def test_cmd_power_too_many_levels_exit_3(capsys):
    taus = ",".join(f"{t:.4f}" for t in np.linspace(0.04, 0.96, 16))
    g = ",".join(["0.1"] * 16)
    assert run_cli("power", "--taus", taus, "--g", g,
                   "--weighting", "inverse") == 3
    assert "65535 subsets" in capsys.readouterr().err


def test_cmd_power_dimension_mismatch(capsys):
    assert run_cli("power", "--taus", "0.25,0.75", "--g", "1,2,3") == 2


@pytest.mark.parametrize("flag, value", [("--vn", "nan"), ("--vn", "inf"),
                                         ("--g", "nan,0.1"), ("--g", "0.1,inf")])
def test_cmd_power_non_finite_input_exit_2(capsys, flag, value):
    args = {"--taus": "0.25,0.75", "--g": "0.5,0.5", "--vn": "1.0", flag: value}
    assert run_cli("power", *(item for pair in args.items() for item in pair)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_cmd_power_csv(capsys):
    code = run_cli("power", "--taus", "0.25,0.75", "--g", "0.5,0.5",
                   "--format", "csv")
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "subset,size,power"
    assert len(lines) == 4


def test_subset_rows_follow_all_subsets_order(data_csv, capsys):
    order = [str(s) for s in all_subsets(3)]
    test_args = ("test", "--input", str(data_csv), "--response", "resp",
                 "--target", "xcov", "--nuisance", "zcov",
                 "--taus", "0.25,0.5,0.75", "--verbose")
    assert run_cli(*test_args, "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["subset"] for r in payload["subsets"]] == order
    assert run_cli(*test_args, "--format", "csv") == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert [r[0] for r in rows[-len(order):]] == order

    power_args = ("power", "--taus", "0.25,0.5,0.75", "--g", "0.5,0.2,0.9")
    assert run_cli(*power_args, "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["subset"] for r in payload["power"]] == order
    assert run_cli(*power_args, "--format", "csv") == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert [r[0] for r in rows[1:]] == order
