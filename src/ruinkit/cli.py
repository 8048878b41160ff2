"""Command-line interface: one subcommand per capability plus `verify`.

Reports are deterministic: keys are sorted, floats are serialized with 17
significant digits, rationals as "num/den" strings, so identical invocations
(including seeds) produce byte-identical output.  One emitter,
``render_report``, writes them in a single walk: as the bytes of
``json.dumps(..., sort_keys=True, indent=2)`` or as csv rows.

Exit codes: 0 success; 1 usage or distribution-spec errors; 2 when a check
fails (determinant pattern violated, or cross-route disagreement beyond
tolerance).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

# the builtin SHA-256: importing hashlib maps OpenSSL, +3.6 MB resident
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import asymptotics, oracle, recurrence, roots, series, survival
from ._scalars import float_str, fraction_str
from .distributions import ClaimDistribution, DistributionError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2

ROUTE_AGREEMENT_TOL = 1e-8
ROOT_RESIDUAL_TOL = 1e-12
COEFFICIENT_TOL = 1e-12


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse usage errors to exit code 1
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# distribution loading

_SHORTHAND = re.compile(r"(bernoulli|geometric)\((.+)\)$")


def parse_dist(text: str) -> ClaimDistribution:
    """Accept a JSON file path, an inline JSON object, or a shorthand.

    Shorthands: bernoulli(1/3), geometric(1/2), pmf:1/2,0,1/2,
    even:1/2,1/2 (base pmf of the doubled law).
    """
    text = text.strip()
    if text.startswith("{"):
        return ClaimDistribution.from_spec(json.loads(text))
    m = _SHORTHAND.match(text)
    if m:
        return getattr(ClaimDistribution, m.group(1))(m.group(2).strip())
    if text.startswith("pmf:"):
        return ClaimDistribution.tabulated([v.strip() for v in text[4:].split(",")])
    if text.startswith("even:"):
        return ClaimDistribution.even_lattice([v.strip() for v in text[5:].split(",")])
    path = Path(text)
    if path.exists():
        try:
            return ClaimDistribution.from_spec(json.loads(path.read_text()))
        except json.JSONDecodeError as exc:
            raise DistributionError(f"malformed JSON in {text}: {exc}") from exc
    raise DistributionError(
        f"cannot interpret distribution {text!r}: not a file, JSON object, or shorthand"
    )


# ---------------------------------------------------------------------------
# deterministic serialization

def _node(value):
    """A report value as the writers see it: a dict with str keys (from a
    dict or a dataclass), a list or tuple, or a leaf as a str, int, bool or
    None, with floats and rationals formatted as strings."""
    # float first: Fraction's isinstance check goes through ABCMeta
    if isinstance(value, float):
        return float_str(value)
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): v for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return value
    if hasattr(value, "__dataclass_fields__"):
        return {k: getattr(value, k) for k in value.__dataclass_fields__}
    return str(value)


def _json(value, pad: str) -> str:
    """``value`` as json.dumps(..., sort_keys=True, indent=2) writes its
    node, at the nesting level whose line break and indent are ``pad``."""
    node = _node(value)
    if isinstance(node, str):
        return json.encoder.encode_basestring_ascii(node)
    if node is None:
        return "null"
    if node is True:
        return "true"
    if node is False:
        return "false"
    if isinstance(node, int):
        return int.__repr__(node)
    if not node:
        return "{}" if isinstance(node, dict) else "[]"
    inner = pad + "  "
    if isinstance(node, dict):
        items = (
            json.encoder.encode_basestring_ascii(k) + ": " + _json(node[k], inner)
            for k in sorted(node)
        )
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    texts = [
        _json(v, inner) if text is None else text
        for v, text in zip(node, _float_texts(node, '"'))
    ]
    return "[" + inner + ("," + inner).join(texts) + pad + "]"


def _float_texts(items, quote: str) -> list:
    """float_str of each float in ``items``, between two ``quote``s, and
    None for every other item.

    A survival table repeats few distinct floats (most entries are 1.0), so
    each distinct nonzero value is formatted once; zeros are formatted every
    time, as 0.0 == -0.0 would share a key."""
    seen: dict = {}
    out = []
    for v in items:
        if type(v) is not float:
            out.append(None)
        elif not v:
            out.append(quote + float_str(v) + quote)
        else:
            text = seen.get(v)
            if text is None:
                text = seen[v] = quote + float_str(v) + quote
            out.append(text)
    return out


def _flatten(prefix: str, value, rows: list):
    node = _node(value)
    if isinstance(node, dict):
        for k in sorted(node):
            _flatten(f"{prefix}.{k}" if prefix else k, node[k], rows)
    elif isinstance(node, (list, tuple)):
        for i, (v, text) in enumerate(zip(node, _float_texts(node, ""))):
            if text is None:
                _flatten(f"{prefix}[{i}]", v, rows)
            else:
                rows.append((f"{prefix}[{i}]", text))
    else:
        rows.append((prefix, "" if node is None else str(node)))


def render_report(report: dict, fmt: str) -> str:
    """The report as deterministic text in one walk: csv rows "key,value"
    with dotted keys, or exactly the bytes of json.dumps(..., sort_keys=True,
    indent=2) on the report with every float and Fraction formatted as a
    string, written without the json module's pure-Python indent encoder."""
    if fmt == "csv":
        rows: list = []
        _flatten("", report, rows)
        return "\n".join(f"{k},{v}" for k, v in rows) + "\n"
    return _json(report, "\n") + "\n"


def _dist_hash(dist: ClaimDistribution) -> str:
    canonical = json.dumps(dist.to_spec(), sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode()).hexdigest()


def _emit(args, command: str, results: dict, diagnostics: dict, modes: list, status: int) -> int:
    report = {
        "command": command,
        "dist": args.dist_obj.to_spec() if getattr(args, "dist_obj", None) else None,
        "dist_sha256": _dist_hash(args.dist_obj) if getattr(args, "dist_obj", None) else None,
        "modes": modes,
        "results": results,
        "diagnostics": diagnostics,
        "status": status,
    }
    text = render_report(report, args.format)
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return status


# ---------------------------------------------------------------------------
# subcommands

def _cmd_table(args) -> int:
    table = recurrence.build_table(args.dist_obj, args.n)
    results = {"x": table.x, "y": table.y, "d": table.d}
    return _emit(args, "table", results, {}, ["exact"], EXIT_OK)


def _cmd_conjecture(args) -> int:
    report = recurrence.check_conjecture(args.dist_obj, args.n)
    results = {
        "verdict": report.verdict,
        "holds": report.holds,
        "violation_index": report.violation_index,
        "horizon": report.horizon,
        "margins": {
            "even_level": report.even_level_margin,
            "odd_level": report.odd_level_margin,
            "even_step": report.even_step_margin,
            "odd_step": report.odd_step_margin,
        },
    }
    status = EXIT_OK if report.holds else EXIT_CHECK_FAILED
    if not report.holds:
        sys.stderr.write(f"determinant pattern violated at index {report.violation_index}\n")
    return _emit(args, "conjecture", results, {}, ["exact"], status)


def _cmd_roots(args) -> int:
    profile = roots.root_profile(args.dist_obj)
    residuals = {"alpha": roots.alpha_residual(args.dist_obj, profile.alpha)}
    if profile.beta is not None:
        residuals["beta"] = roots.beta_residual(args.dist_obj, profile.beta)
    results = {
        "alpha": profile.alpha,
        "beta": profile.beta,
        "r": profile.r,
        "residuals": residuals,
        "bracket_width_achieved": profile.bracket_width_achieved,
    }
    return _emit(args, "roots", results, {}, ["float"], EXIT_OK)


def _cmd_asympt(args) -> int:
    if args.n < 4:
        raise ValueError("--n must be at least 4 for the ratio estimate")
    dist = args.dist_obj
    profile = roots.root_profile(dist)
    coeffs = asymptotics.compute_coefficients(dist, profile)
    table = recurrence.build_table(dist, args.n + 2)
    pattern = asymptotics.verify_sign_monotonicity(table, coeffs)
    # D_n / D_{n-2} = M_n / (q_0^4 M_{n-2}): one int/int quotient, rounded once
    ratio = table.minor(args.n) / (table.q0**4 * table.minor(args.n - 2))
    results = {
        "a": coeffs.a,
        "b": coeffs.b,
        "c1": coeffs.c1,
        "c2": coeffs.c2,
        "r": coeffs.r,
        "alpha": coeffs.alpha,
        "beta": coeffs.beta,
        "n0": pattern.n0,
        "n0_is_empirical": True,
        "stabilized": pattern.stabilized,
        "ratio_estimate": ratio,
        "ratio_limit": asymptotics.determinant_ratio_limit(coeffs),
        "growth": pattern.growth,
    }
    diag = {"residual_converged": asymptotics.residuals_converged(table, coeffs)}
    return _emit(args, "asympt", results, diag, ["exact", "float"], EXIT_OK)


def _cmd_solve(args) -> int:
    sol = survival.solve(
        args.dist_obj, u_max=args.u_max, route=args.route, n_limit=args.n
    )
    results = {
        "regime": sol.regime,
        "phi0": sol.phi0,
        "phi1": sol.phi1,
        "pi0": sol.pi0,
        "pi1": sol.pi1,
        "phi_table": sol.phi_table,
        "xi": sol.xi,
        "method": sol.method,
        "route_diagnostics": sol.diagnostics,
    }
    delta = sol.diagnostics.get("max_route_delta", 0.0)
    status = EXIT_OK
    if args.route != "closed" and delta > ROUTE_AGREEMENT_TOL:
        status = EXIT_CHECK_FAILED
        sys.stderr.write(f"route disagreement {delta:.3e} exceeds {ROUTE_AGREEMENT_TOL}\n")
    return _emit(args, "solve", results, {}, ["exact", "float"], status)


def _cmd_dp(args) -> int:
    cfg = oracle.DPConfig(horizon=args.horizon, surplus_cap=args.cap)
    res = oracle.finite_horizon_dp(args.dist_obj, args.u, cfg)
    return _emit(args, "dp", {**vars(res), "u": args.u}, {}, ["float"], EXIT_OK)


def _cmd_simulate(args) -> int:
    cfg = oracle.MCConfig(trials=args.trials, horizon=args.horizon, seed=args.seed)
    res = oracle.mc_estimate(args.dist_obj, args.u, cfg)
    return _emit(args, "simulate", {**vars(res), "u": args.u}, {}, ["float"], EXIT_OK)


# ---------------------------------------------------------------------------
# verify: the fixture x route matrix; the series identities it multiplies
# back are series.identity_checks

def _verify_fixtures() -> list[ClaimDistribution]:
    return [
        ClaimDistribution.bernoulli(Fraction(1, 5)),
        ClaimDistribution.bernoulli(Fraction(1, 3)),
        ClaimDistribution.bernoulli(Fraction(1, 2)),
        ClaimDistribution.bernoulli(Fraction(4, 5)),
        ClaimDistribution.geometric(Fraction(1, 5)),
        ClaimDistribution.geometric(Fraction(1, 3)),
        ClaimDistribution.geometric(Fraction(1, 2)),
        ClaimDistribution.geometric(Fraction(2, 3)),
        ClaimDistribution.tabulated([Fraction(1, 2), 0, Fraction(1, 2)]),
        ClaimDistribution.tabulated([Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]),
        ClaimDistribution.tabulated(
            [Fraction(2, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)]
        ),
    ]


def _verify_one(dist: ClaimDistribution, horizon: int) -> dict:
    checks: dict = {}
    conj = recurrence.check_conjecture(dist, horizon)
    checks["conjecture"] = conj.holds

    # x, y and G through order 60, multiplied back on the law's pair
    # (P, R) by series.identity_checks; the distributions tests tie that
    # pair to each construction record
    table = recurrence.build_table(dist, 62)
    checks.update(series.identity_checks(dist, table))

    if dist.is_primitive():
        profile = roots.root_profile(dist)
        checks["alpha_residual"] = (
            roots.alpha_residual(dist, profile.alpha) < ROOT_RESIDUAL_TOL
        )
        if profile.beta is not None:
            checks["beta_residual"] = (
                roots.beta_residual(dist, profile.beta) < ROOT_RESIDUAL_TOL
            )
        if dist.kind == "geometric" and profile.r == 1:
            coeffs = asymptotics.compute_coefficients(dist, profile)
            ref = asymptotics.geometric_partial_fraction(dist.p)
            checks["coefficient_goldens"] = all(
                abs(got - want) < COEFFICIENT_TOL
                for got, want in zip((coeffs.a, coeffs.b, coeffs.c1), ref)
            )
    if survival.regime(dist) == survival.SURVIVABLE:
        sol = survival.solve(dist, u_max=40, route="all", n_limit=60)
        checks["route_agreement"] = (
            sol.diagnostics["max_route_delta"] < ROUTE_AGREEMENT_TOL
        )
        checks["phi_monotone"] = all(
            lo <= hi + 1e-12
            for lo, hi in zip(sol.phi_table, sol.phi_table[1:])
        ) and sol.phi_table[-1] <= 1.0 + 1e-12
    else:
        sol = survival.solve(dist, u_max=10, route="all")
        checks["zero_regime"] = (
            sol.phi0 == 0.0 and sol.phi1 == 0.0 and not any(sol.phi_table)
        )
    return checks


def _cmd_verify(args) -> int:
    horizon = args.n
    fixtures: dict = {}
    breaches: list[str] = []
    for dist in _verify_fixtures():
        checks = _verify_one(dist, horizon)
        fixtures[dist.label()] = checks
        for name, ok in checks.items():
            if not ok:
                breaches.append(f"{dist.label()}:{name}")
    results = {"fixtures": fixtures, "breaches": breaches, "horizon": horizon}
    status = EXIT_OK if not breaches else EXIT_CHECK_FAILED
    if breaches:
        sys.stderr.write("verification breaches: " + ", ".join(breaches) + "\n")
    return _emit(args, "verify", results, {}, ["exact", "float"], status)


# ---------------------------------------------------------------------------

def _add_common(sub, dist_required: bool = True):
    if dist_required:
        sub.add_argument("--dist", required=True, help="spec file, JSON, or shorthand")
    sub.add_argument("--out", default=None, help="also write the report to this file")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="ruinkit", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("table", help="x/y/D tables from the recurrences")
    _add_common(p)
    p.add_argument("--n", type=int, default=50)
    p.set_defaults(func=_cmd_table)

    p = subs.add_parser("conjecture", help="exact determinant sign/monotonicity check")
    _add_common(p)
    p.add_argument("--n", type=int, default=200)
    p.set_defaults(func=_cmd_conjecture)

    p = subs.add_parser("roots", help="interior zeros of H(s) - s^2 and the order at 1")
    _add_common(p)
    p.set_defaults(func=_cmd_roots)

    p = subs.add_parser("asympt", help="expansion coefficients and growth checks")
    _add_common(p)
    p.add_argument("--n", type=int, default=200)
    p.set_defaults(func=_cmd_asympt)

    p = subs.add_parser("solve", help="survival probabilities by the three routes")
    _add_common(p)
    p.add_argument("--u-max", dest="u_max", type=int, default=100)
    p.add_argument("--route", choices=("closed", "limit", "xi", "all"), default="closed")
    p.add_argument("--n", type=int, default=60, help="index for the ratio route")
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser("dp", help="finite-horizon survival by dynamic programming")
    _add_common(p)
    p.add_argument("--u", type=int, default=0)
    p.add_argument("--horizon", type=int, default=1000)
    p.add_argument("--cap", type=int, default=None, help="surplus cap (default exact)")
    p.set_defaults(func=_cmd_dp)

    p = subs.add_parser("simulate", help="seeded Monte Carlo survival estimate")
    _add_common(p)
    p.add_argument("--u", type=int, default=0)
    p.add_argument("--horizon", type=int, default=1000)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("verify", help="full fixture-by-route cross-check matrix")
    _add_common(p, dist_required=False)
    p.add_argument("--n", type=int, default=200, help="determinant check horizon")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "dist", None) is not None:
            args.dist_obj = parse_dist(args.dist)
        else:
            args.dist_obj = None
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (DistributionError, ValueError, TypeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
