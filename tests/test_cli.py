"""CLI: parsing, deterministic reports, exit codes, verify wiring."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ruinkit import cli
from ruinkit.distributions import DistributionError


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_table_roundtrip(capsys):
    code, out = run(capsys, ["table", "--dist", "bernoulli(1/2)", "--n", "6"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "table"
    assert report["results"]["x"][:5] == ["1", "0", "2", "-2", "6"]
    assert report["results"]["d"][0] == "1"
    assert report["dist"] == {"family": "bernoulli", "p": "1/2"}
    assert len(report["dist_sha256"]) == 64


def test_conjecture_holds(capsys):
    code, out = run(capsys, ["conjecture", "--dist", "geometric(1/3)", "--n", "80"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["verdict"] == "holds_up_to_80"
    assert report["results"]["violation_index"] is None


def test_conjecture_spec_invocation(capsys):
    code, out = run(capsys, ["conjecture", "--dist", "bernoulli(1/3)", "--n", "100"])
    assert code == 0
    assert json.loads(out)["results"]["verdict"] == "holds_up_to_100"


def test_conjecture_violation_exits_two(capsys, monkeypatch):
    # no claim law is known to violate the pattern, so the failure wiring is
    # exercised with a fabricated report
    from ruinkit.recurrence import ConjectureReport

    fake = ConjectureReport(
        dist_label="fake", horizon=10, holds=False,
        violation_index=7, even_level_margin=-1, odd_level_margin=0,
        even_step_margin=0, odd_step_margin=0,
    )
    monkeypatch.setattr(cli.recurrence, "check_conjecture", lambda *a, **k: fake)
    code = cli.main(["conjecture", "--dist", "bernoulli(1/2)", "--n", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert "7" in captured.err
    assert json.loads(captured.out)["results"]["verdict"] == "violated_at(7)"


def test_roots_report(capsys):
    code, out = run(capsys, ["roots", "--dist", "geometric(1/4)", "--tol", "1e-14"])
    assert code == 0
    results = json.loads(out)["results"]
    assert abs(float(results["alpha"]) - 2.302775637731995) < 1e-12
    assert abs(float(results["beta"]) - 1.302775637731995) < 1e-12
    assert results["r"] == 1
    assert float(results["residuals"]["alpha"]) < 1e-12


def test_asympt_report(capsys):
    code, out = run(capsys, ["asympt", "--dist", "geometric(1/2)", "--n", "60"])
    assert code == 0
    results = json.loads(out)["results"]
    assert abs(float(results["ratio_estimate"]) - float(results["ratio_limit"])) < 1e-3
    assert results["n0"] == 0
    assert results["n0_is_empirical"] is True


def test_asympt_past_double_range(capsys):
    # alpha = 11, so alpha^300 and x_300 both exceed the largest double
    code = cli.main(["asympt", "--dist", "pmf:1/12,5/6,1/12", "--n", "300"])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["diagnostics"]["residual_converged"] is True
    assert report["results"]["stabilized"] is True


def test_solve_all_routes(capsys):
    code, out = run(
        capsys, ["solve", "--dist", "geometric(1/2)", "--u-max", "8", "--route", "all"]
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["regime"] == "survivable"
    assert abs(float(results["phi0"]) - 0.6180339887498949) < 1e-12
    assert float(results["route_diagnostics"]["max_route_delta"]) < 1e-8
    assert len(results["phi_table"]) == 9
    assert len(results["xi"]) == 9


def test_dp_and_simulate(capsys):
    code, out = run(capsys, ["dp", "--dist", "geometric(1/2)", "--u", "0", "--horizon", "2"])
    assert code == 0
    assert abs(float(json.loads(out)["results"]["value"]) - 0.6875) < 1e-14

    code, out = run(
        capsys,
        ["simulate", "--dist", "geometric(1/2)", "--u", "0", "--horizon", "2",
         "--trials", "20000", "--seed", "42"],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert abs(float(results["estimate"]) - 0.6875) < 3 * float(results["half_width_95"])


def test_simulate_seed_out_of_range_exits_one(capsys):
    for seed in ("-1", str(2**64)):
        code = cli.main(["simulate", "--dist", "geometric(1/2)", "--trials", "8",
                         "--horizon", "5", "--seed", seed])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: seed") and captured.err.count("\n") == 1


def test_exact_commands_do_not_load_numpy():
    # numpy serves only the oracles; a fresh interpreter solving a law
    # never imports it
    script = (
        "import sys\n"
        "from ruinkit import cli\n"
        "assert cli.main(['solve', '--dist', 'geometric(1/2)', '--u-max', '20',"
        " '--route', 'all']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_byte_identical_reports(capsys):
    argv = ["solve", "--dist", "geometric(1/2)", "--u-max", "12", "--route", "all"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second
    argv = ["simulate", "--dist", "pmf:1/3,1/3,1/3", "--horizon", "10",
            "--trials", "5000", "--seed", "11"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_csv_format(capsys):
    code, out = run(capsys, ["roots", "--dist", "bernoulli(1/2)", "--format", "csv"])
    assert code == 0
    lines = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert lines["results.alpha"] == "2"
    assert lines["command"] == "roots"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, ["table", "--dist", "pmf:1/2,0,1/2", "--n", "4",
                             "--out", str(target)])
    assert code == 0
    assert target.read_text() == out


def test_shorthand_parsing():
    assert cli.parse_dist("bernoulli(1/3)").kind == "bernoulli"
    assert cli.parse_dist("pmf:1/2,0,1/2").pmf[2] == 0.5
    assert cli.parse_dist("even:1/2,1/2").kind == "even_lattice"
    assert cli.parse_dist('{"family":"geometric","p":"1/5"}').kind == "geometric"
    with pytest.raises(DistributionError):
        cli.parse_dist("weibull(2)")


def test_spec_file_loading(tmp_path, capsys):
    spec = tmp_path / "dist.json"
    spec.write_text('{"pmf": ["2/5", "1/5", "1/5", "1/5"]}')
    code, out = run(capsys, ["solve", "--dist", str(spec), "--u-max", "4"])
    assert code == 0
    assert json.loads(out)["results"]["regime"] == "survivable"


def test_malformed_spec_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"family": "bernoulli", "p": 0.5}')  # float literal
    code = cli.main(["roots", "--dist", str(bad)])
    err = capsys.readouterr().err
    assert code == 1
    assert "p" in err

    broken = tmp_path / "broken.json"
    broken.write_text('{"pmf": ["1/2",')
    code = cli.main(["roots", "--dist", str(broken)])
    assert code == 1


def test_documented_errors_exit_one_with_one_line(capsys, monkeypatch):
    from ruinkit import roots, survival
    from ruinkit.roots import MomentConditionError

    def one_line_error(argv, start):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert captured.err.startswith(start) and captured.err.count("\n") == 1, captured.err

    for spec in ("pmf:1/2,1/3", "bernoulli(3/2)", "pmf:1/2,x", "poisson(1)"):
        one_line_error(["roots", "--dist", spec], "error: ")
    one_line_error(["roots", "--dist", "even:1/2,1/2"], "error: imprimitive claim law")

    def no_fourth_moment(dist):
        raise MomentConditionError("E Z = 2 requires a finite fourth moment")

    with monkeypatch.context() as patch:
        patch.setattr(roots, "vanishing_order", no_fourth_moment)
        one_line_error(["roots", "--dist", "geometric(1/3)"], "error: E Z = 2")

    # a wrong phi(1) leaves the pi system unsolved, which its residual check sees
    closed_form = survival.initial_values_closed_form
    monkeypatch.setattr(
        survival, "initial_values_closed_form",
        lambda dist, alpha=None: tuple(2 * v for v in closed_form(dist, alpha)),
    )
    one_line_error(["solve", "--dist", "geometric(1/2)", "--u-max", "4"], "error: pi system residuals")


def test_usage_error_exits_one(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["table"]) == 1  # missing --dist


def test_route_disagreement_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(cli, "ROUTE_AGREEMENT_TOL", 0.0)
    code = cli.main(["solve", "--dist", "geometric(1/2)", "--u-max", "4", "--route", "all"])
    assert code == 2


def test_verify_matrix(capsys):
    code, out = run(capsys, ["verify", "--n", "40"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["breaches"] == []
    assert len(results["fixtures"]) == 11
    for checks in results["fixtures"].values():
        assert all(checks.values())
