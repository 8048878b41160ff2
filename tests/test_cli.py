"""CLI: parsing, deterministic reports, exit codes, verify wiring."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruinkit import ClaimDistribution, build_table, cli, deflate_G
from ruinkit.distributions import DistributionError
from ruinkit.recurrence import SequenceTable

from common import (
    all_fixtures,
    laws,
    reference_identity_checks,
    reference_ratio,
    reference_render,
)


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


def test_dist_sha256_is_the_sha256_of_the_canonical_spec(capsys):
    # the report hash uses the interpreter's builtin SHA-256, not hashlib's
    even = ClaimDistribution.even_lattice(["1/2", "1/4", "1/4"])
    for dist in [*all_fixtures(), even]:
        spec = dist.to_spec()
        code, out = run(capsys, ["table", "--dist", json.dumps(spec), "--n", "2"])
        assert code == 0
        canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        assert json.loads(out)["dist_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()


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
    code, out = run(capsys, ["roots", "--dist", "geometric(1/4)"])
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


def test_solve_even_lattice_report_shape(capsys):
    # an even-lattice law has alpha = 1 and no root profile: its report keeps
    # the pi source, the xi skip note and null xi fields, and no root keys
    code, out = run(
        capsys, ["solve", "--dist", "even:1/2,1/4,1/4", "--u-max", "6", "--route", "all"]
    )
    assert code == 0
    results = json.loads(out)["results"]
    diag = results["route_diagnostics"]
    assert diag["pi_source"] == "half-process table differences"
    assert diag["notes"] == ["generating-function route skipped: even-lattice law"]
    assert diag["routes"]["xi_series"] is None
    assert results["xi"] is None
    assert not {"alpha", "alpha_bits", "vanishing_order"} & diag.keys()
    assert (results["phi0"], results["phi1"]) == ("0.25", "0.5")
    assert (results["pi0"], results["pi1"]) == ("0.5", "0")
    assert results["phi_table"] == ["0.25", "0.5", "0.5", "0.75", "0.75", "0.875", "0.875"]


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


def test_simulate_surplus_past_int64_exits_zero(capsys):
    code, out = run(capsys, ["simulate", "--dist", "geometric(1/2)", "--u", str(10**20),
                             "--horizon", "20", "--trials", "100"])
    assert code == 0
    assert json.loads(out)["results"]["estimate"] == "1"


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


@dataclass
class _Pair:
    left: object
    right: object


# repeated floats, so that a list's formatted-float cache is hit, with 0.0
# and -0.0 (equal, but written apart) and non-finite values among them
_report_leaves = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.fractions(),
    st.integers(-(2**300), 2**300),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
)
_report_trees = st.recursive(
    _report_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=8),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-9, 9)), children, max_size=4),
        st.builds(_Pair, children, children),
    ),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(report=st.dictionaries(st.text(max_size=4), _report_trees, max_size=4))
@example(report={"t": [0.0, -0.0, 1.0, -0.0, 1.0, 0.0]})
# equal values of other types must not share a float's cached text
@example(report={"t": [0.5, Fraction(1, 2), 1.0, True, 1, Fraction(1), 2.0, 2]})
@example(report={"x": [math.nan, math.nan, math.inf, -math.inf], "é": "ü\n\"", "n": 10**80})
@example(report={"e": [], "d": {}, "t": (), "p": _Pair([], {}), "z": [[], [[]]], "1": {1: None}})
def test_render_report_is_the_two_pass_renderer(report):
    # one walk writes the bytes of jsonable + json.dumps(indent=2), and the
    # csv rows of the flattened jsonable report
    for fmt in ("json", "csv"):
        assert cli.render_report(report, fmt) == reference_render(report, fmt)


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
    from ruinkit import survival

    def one_line_error(argv, start):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert captured.err.startswith(start) and captured.err.count("\n") == 1, captured.err

    for spec in ("pmf:1/2,1/3", "bernoulli(3/2)", "pmf:1/2,x", "poisson(1)"):
        one_line_error(["roots", "--dist", spec], "error: ")
    one_line_error(["roots", "--dist", "even:1/2,1/2"], "error: imprimitive claim law")
    one_line_error(["dp", "--dist", '{"family": "geometric", "p": "1/2", "tail_epsilon": "1e-10"}',
                    "--horizon", "5"], "error: unknown field")
    one_line_error(["dp", "--dist", '{"family": "geometric", "p": "1/2", "pmf": ["1/2", "1/2"]}',
                    "--horizon", "5"], "error: field(s) ['family', 'p'] conflict")
    one_line_error(["simulate", "--dist", "geometric(1/2)", "--horizon", "0"], "error: horizon")
    # geometric(1/4) has E Z = 3 > 2, where the ratio route itself is skipped
    for law in ("geometric(1/2)", "geometric(1/4)"):
        for n in ("0", "-2"):
            one_line_error(["solve", "--dist", law, "--route", "limit", "--n", n],
                           "error: the ratio route needs n_limit (--n) >= 1")

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


@settings(max_examples=25, deadline=None)
@given(dist=laws.filter(lambda d: d.is_primitive()), n=st.integers(4, 120))
@example(dist=ClaimDistribution.tabulated(["1/12", "5/6", "1/12"]), n=120)
def test_asympt_ratio_matches_reduced_fractions(dist, n):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["asympt", "--dist", json.dumps(dist.to_spec()), "--n", str(n)])
    assert code == 0
    ratio = float(json.loads(out.getvalue())["results"]["ratio_estimate"])
    assert ratio == reference_ratio(build_table(dist, n + 2).d, n)


def test_verify_matrix(capsys):
    code, out = run(capsys, ["verify", "--n", "40"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["breaches"] == []
    assert len(results["fixtures"]) == 11
    for checks in results["fixtures"].values():
        assert all(checks.values())


def test_verify_flags_broken_identities(capsys, monkeypatch):
    # verify multiplies x, y and G back through H - s^2 up to order 60, so a
    # change to the top coefficient of any of them is a breach on every fixture
    from ruinkit import recurrence, series

    top = 60
    integer_table, deflate_G = recurrence._integer_table, series.deflate_G

    def table_with_bumped(seq):
        # x_60 += 1 is N_60 += q_0^61 and y_60 += 1 is N_61 += r_0 q_0^61, in
        # the table of horizon 62 that verify multiplies back
        def perturbed(dist, n_max):
            table = integer_table(dist, n_max)
            if n_max == top + 2:
                if seq == "x":
                    table.numerators[top] += table.q0 ** (top + 1)
                else:
                    table.numerators[top + 1] += table.r0 * table.q0 ** (top + 1)
            return table

        return perturbed

    def bumped_G(dist, n_max):
        g = deflate_G(dist, n_max)
        g[top] += 1
        return g

    cases = (
        (recurrence, "_integer_table", table_with_bumped("x"), "series_matches_recurrence"),
        (recurrence, "_integer_table", table_with_bumped("y"), "y_identity"),
        (series, "deflate_G", bumped_G, "deflation_identity"),
    )
    for module, name, fake, check in cases:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, fake)
            code, out = run(capsys, ["verify", "--n", "20"])
        assert code == 2, check
        results = json.loads(out)["results"]
        assert len(results["fixtures"]) == 11
        for label, checks in results["fixtures"].items():
            assert checks[check] is False, (label, check)
            assert f"{label}:{check}" in results["breaches"]


@settings(max_examples=30, deadline=None)
@given(
    dist=laws,
    index=st.integers(0, 61),
    delta=st.integers(-3, 3).filter(bool),
    den=st.integers(1, 9),
)
@example(dist=ClaimDistribution.even_lattice(["1/2", "1/4", "1/4"]), index=61, delta=1, den=1)
@example(dist=ClaimDistribution.tabulated(["1/7", "0", "0", "6/7"]), index=60, delta=-1, den=7)
@example(dist=ClaimDistribution.geometric("1/3"), index=0, delta=1, den=3)
@example(dist=ClaimDistribution.tabulated(["1/2", "1/4", "1/4"]), index=37, delta=2, den=2)
def test_pair_identities_match_dense_reference(dist, index, delta, den):
    # verify's checks on the pair (P, R) give the verdicts of the dense
    # (H - s^2)X = H products on the pmf prefix, on honest tables and on
    # tables with one numerator bumped or one entry of G moved
    table = build_table(dist, 62)
    g = deflate_G(dist, 60)
    got = cli._identity_checks(dist, table, g)
    want = reference_identity_checks(dist, table, g)
    assert want == dict.fromkeys(want, True)
    assert {k: got[k] for k in want} == want

    numerators = list(table.numerators)
    numerators[index] += delta
    bumped = SequenceTable(dist, numerators, table.q0, table.r0)
    moved = list(g)
    moved[min(index, 60)] += Fraction(delta, den)
    for t, gt in ((bumped, g), (table, moved)):
        got = cli._identity_checks(dist, t, gt)
        want = reference_identity_checks(dist, t, gt)
        assert not all(want.values())
        assert {k: got[k] for k in want} == want


def test_verify_flags_g_off_the_denominators_of_the_law(capsys, monkeypatch):
    # g_k is an integer over r_0^(k+1); an entry over 7, with 7 not dividing
    # any fixture's r_0, must breach, also when the change is below
    # 1/r_0^61, where rescaling by a floor division would drop it
    from ruinkit import series

    assert all(d.rational_pgf[1][0] % 7 for d in all_fixtures())
    original = series.deflate_G

    for change in (lambda r0: Fraction(1, 7), lambda r0: Fraction(1, 7 * r0**62)):

        def foreign(dist, n_max):
            g = original(dist, n_max)
            g[30] += change(dist.rational_pgf[1][0])
            return g

        with monkeypatch.context() as patch:
            patch.setattr(series, "deflate_G", foreign)
            code, out = run(capsys, ["verify", "--n", "20"])
        assert code == 2
        fixtures = json.loads(out)["results"]["fixtures"]
        assert len(fixtures) == 11
        for label, checks in fixtures.items():
            assert checks["deflation_identity"] is False, label
            assert checks["series_matches_recurrence"] and checks["y_identity"], label


def test_verify_forms_q_from_p_and_r(monkeypatch):
    # a wrong Q in rational_pgf builds a table that solves Q X = P for that
    # Q; verify forms P - s^2 R itself, so the table breaches
    original = ClaimDistribution.__dict__["rational_pgf"].func

    def wrong_q(self):
        p, r, q = original(self)
        return p, r, (q[0], q[1] + 1, *q[2:])

    for dist in all_fixtures():
        honest = cli._identity_checks(dist, build_table(dist, 62), deflate_G(dist, 60))
        assert honest["series_matches_recurrence"] is True
        with monkeypatch.context() as patch:
            patch.setattr(ClaimDistribution, "rational_pgf", property(wrong_q))
            table, g = build_table(dist, 62), deflate_G(dist, 60)
            assert dist.rational_pgf[2] != original(dist)[2]
            checks = cli._identity_checks(dist, table, g)
        assert checks["series_matches_recurrence"] is False, dist.label()
