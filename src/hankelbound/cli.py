"""Command-line front end.

Subcommands:
  verify        maximise |H_{2,1}| for one family (Y-lemma, then a search
                in p1) and check it against the closed-form sharp bound
  sweep         run verify over --values of the family's first parameter
  ymax-certify  seeded random certification of the piecewise disk maximum
  extremal      extremal-function coefficients and equality residual
  gamma         logarithmic coefficients and H_{2,1} by both routes

Exit status: 0 pass, 1 verification failure or failed internal cross-check,
2 usage or range error.  The --tol of verify, sweep and extremal is relative
to the bound, and a bound below the smallest normal float fails.
Machine output: complex numbers are serialized as [re, im]; JSON output is
byte-stable for identical configurations (seeds included in the report).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import json
import math
import sys
from typing import Any

import numpy as np

from . import __version__
from .families import (
    FAMILIES,
    CoeffTriple,
    FamilySpec,
    ParameterRangeError,
    extremal_coeffs,
    family_fields,
    sharp_bound,
)
from .hankel import PathMismatchError, h21, h21_monomial, log_coeffs
from .search import SearchReport, bound_monotonicity, global_max, sweep
from .ymax import (CERT_ANGULAR, CERT_RADIAL, YCase, _oracle_nodes, grid_allowance,
                   y_closed_form, y_oracle)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

GAP_FLOOR = -1e-9  # search must never beat the proven bound (relative to it)
#: Largest ymax-certify --n; the triples are drawn at once, 24 bytes each.
MAX_CERTIFY_N = 10 ** 6
#: Largest number of sweep --values.  search.sweep holds about 30 KB per member
#: at once: 29 MiB for 1000 Ozaki members at the default grid (tracemalloc).
MAX_SWEEP_VALUES = 1000
#: Largest modulus of a gamma literal.  H_{2,1} is of degree 4 in (a2, a3, a4), so
#: no term on either path exceeds 1e76^4 = 1e304, and their sums stay below 1.8e308.
MAX_LITERAL = 1e76


def _cx(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _family_from_args(args: argparse.Namespace) -> FamilySpec:
    cls, names = FAMILIES[args.family]
    return cls(**{attr: getattr(args, attr) for attr in names.values()})


def _finite(text: str, positive: bool = False) -> float:
    """argparse type of --alpha, --beta, --nu and --lambda: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and (value > 0.0 or not positive)):
        rule = "finite and > 0" if positive else "finite"
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite float > 0."""
    return _finite(text, positive=True)


def _count(text: str) -> int:
    """argparse type of --n: an integer in [1, MAX_CERTIFY_N]."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 1 <= n <= MAX_CERTIFY_N:
        raise argparse.ArgumentTypeError(f"must be in [1, {MAX_CERTIFY_N}], got {text!r}")
    return n


def _values(text: str) -> list[float]:
    """argparse type of --values: 1 to MAX_SWEEP_VALUES comma-separated numbers."""
    values = []
    for item in text.split(","):
        if item.strip():
            try:
                values.append(float(item))
            except ValueError:
                raise argparse.ArgumentTypeError(f"not a number: {item!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"no value given in {text!r}")
    if len(values) > MAX_SWEEP_VALUES:
        raise argparse.ArgumentTypeError(
            f"at most {MAX_SWEEP_VALUES} values, got {len(values)}")
    return values


def _report_row(rep: SearchReport) -> dict[str, Any]:
    row = family_fields(rep.family)
    row.update(
        bound=rep.bound,
        max_abs_h21=rep.max_abs_h21,
        gap=rep.gap,
        argmax_p1=rep.argmax.p1,
        argmax_p2=_cx(rep.argmax.p2),
        argmax_p3=_cx(rep.argmax.p3),
        grid=rep.grid,
    )
    return row


def _flatten(row: dict[str, Any]) -> dict[str, Any]:
    flat: dict[str, Any] = {}
    for key, value in row.items():
        if isinstance(value, list) and len(value) == 2 and all(
            isinstance(v, float) for v in value
        ):
            flat[key + "_re"], flat[key + "_im"] = value
        elif isinstance(value, dict):
            flat.update((f"{key}_{k}", v) for k, v in value.items())
        else:
            flat[key] = value
    return flat


def _emit(payload: dict[str, Any], args: argparse.Namespace) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    elif args.format == "csv":
        rows = [_flatten({**r, "summary": payload["summary"]}) for r in payload["results"]]
        fields: list[str] = []
        for row in rows:
            fields.extend(k for k in row if k not in fields)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        lines = [f"command: {payload['command']}"]
        for row in payload["results"]:
            lines.append("-" * 40)
            lines.extend(f"{k}: {v}" for k, v in row.items())
        lines.append("-" * 40)
        lines.extend(f"{k}: {v}" for k, v in payload["summary"].items())
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _payload(command: str, config: dict[str, Any], results: list[dict[str, Any]],
             ok: bool, worst: float) -> dict[str, Any]:
    return {
        "command": command,
        "config": config,
        "results": results,
        "summary": {"pass": bool(ok), "worst_residual": float(worst)},
    }


def _judge(gap: float, bound: float, tol: float) -> tuple[bool, float]:
    """(verdict, gap / bound): the gap relative to the bound lies in
    [GAP_FLOOR, tol], and the bound is a normal float.  A smaller bound fails,
    and the quotient divides by the smallest normal instead, so it stays finite."""
    rel = gap / max(bound, sys.float_info.min)
    return bound >= sys.float_info.min and GAP_FLOOR <= rel <= tol, rel


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _family_from_args(args)
    rep = global_max(spec, coarse=args.coarse, refine_rounds=args.refine_rounds)
    ok, worst = _judge(rep.gap, rep.bound, args.tol)
    config = family_fields(spec)
    config.update(coarse=args.coarse, refine_rounds=args.refine_rounds, tol=args.tol)
    _emit(_payload("verify", config, [_report_row(rep)], ok, worst), args)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_sweep(args: argparse.Namespace) -> int:
    # --values holds the first parameter; a bad one exits 2 before any search.
    swept = next(iter(FAMILIES[args.family][1].values()))
    specs = [_family_from_args(argparse.Namespace(**{**vars(args), swept: v}))
             for v in args.values]
    reports = sweep(specs, coarse=args.coarse, refine_rounds=args.refine_rounds)
    verdicts, rels = zip(*(_judge(rep.gap, rep.bound, args.tol) for rep in reports))
    ok, worst = all(verdicts), max(rels)
    names = ("family", "values", "beta", "coarse", "refine_rounds", "tol")
    config = {name: getattr(args, name) for name in names}
    payload = _payload("sweep", config, [_report_row(r) for r in reports], ok, worst)
    payload["summary"]["bound_monotonicity"] = bound_monotonicity(reports)
    _emit(payload, args)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_ymax_certify(args: argparse.Namespace) -> int:
    _oracle_nodes(args.radial, args.angular)  # check the grid before any draw
    rng = np.random.default_rng(args.seed)
    triples = rng.uniform(-5.0, 5.0, size=(args.n, 3))
    worst = 0.0
    worst_triple = [0.0, 0.0, 0.0]
    passed = 0
    cases = dict.fromkeys((case.value for case in YCase), 0)
    grids = y_oracle(*triples.T, radial=args.radial, angular=args.angular)
    for (A, B, C), grid in zip(triples, grids):
        res = y_closed_form(A, B, C)
        cases[res.case_label.value] += 1
        disc = abs(res.value - grid)
        if disc <= args.tol + grid_allowance(B, C, args.radial, args.angular):
            passed += 1
        if disc > worst:
            worst = disc
            worst_triple = [float(A), float(B), float(C)]
    ok = passed == args.n
    config = {name: getattr(args, name) for name in ("n", "seed", "tol", "radial", "angular")}
    results = [{
        "n": args.n,
        "passed": passed,
        "worst_discrepancy": worst,
        "worst_triple": worst_triple,
        "cases": cases,
    }]
    _emit(_payload("ymax-certify", config, results, ok, worst), args)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_extremal(args: argparse.Namespace) -> int:
    spec = _family_from_args(args)
    a = extremal_coeffs(spec)
    bound = sharp_bound(spec)
    value = abs(h21(a))
    residual = abs(value - bound)
    ok, worst = _judge(residual, bound, args.tol)
    config = family_fields(spec)
    config["tol"] = args.tol
    row = family_fields(spec)
    row.update(
        a2=_cx(a.a2), a3=_cx(a.a3), a4=_cx(a.a4),
        abs_h21=value, bound=bound, residual=residual,
    )
    _emit(_payload("extremal", config, [row], ok, worst), args)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_gamma(args: argparse.Namespace) -> int:
    if args.koebe:
        a = CoeffTriple(2.0, 3.0, 4.0)
        source = "koebe"
    elif args.family:
        spec = _family_from_args(args)
        a = extremal_coeffs(spec)
        source = f"extremal-{args.family}"
    else:
        try:
            a = CoeffTriple(complex(args.a2), complex(args.a3), complex(args.a4))
        except ValueError as exc:
            raise ParameterRangeError(f"malformed complex literal: {exc}") from exc
        if not all(cmath.isfinite(z) for z in (a.a2, a.a3, a.a4)):
            raise ParameterRangeError("a2, a3 and a4 must be finite")
        # math.hypot: abs() of a finite complex can raise OverflowError.
        if max(math.hypot(z.real, z.imag) for z in (a.a2, a.a3, a.a4)) > MAX_LITERAL:
            raise ParameterRangeError(f"a2, a3 and a4 must have modulus <= {MAX_LITERAL:g}")
        source = "literal"
    g = log_coeffs(a)
    via_gamma = h21(a)
    via_monomial = h21_monomial(a)
    residual = abs(via_gamma - via_monomial)
    row = {
        "source": source,
        "a2": _cx(a.a2), "a3": _cx(a.a3), "a4": _cx(a.a4),
        "gamma1": _cx(g.g1), "gamma2": _cx(g.g2), "gamma3": _cx(g.g3),
        "h21_gamma_path": _cx(via_gamma),
        "h21_monomial_path": _cx(via_monomial),
        "path_residual": residual,
    }
    config = {"source": source}
    _emit(_payload("gamma", config, [row], True, residual), args)
    return EXIT_PASS


def _add_family_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--family", choices=list(FAMILIES), required=required)
    parser.add_argument("--alpha", type=_finite, default=0.0)
    parser.add_argument("--beta", type=_finite, default=0.0)
    parser.add_argument("--nu", type=_finite, default=1.0)
    parser.add_argument("--lambda", dest="lam", type=_finite, default=0.5)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["json", "csv", "table"], default="json")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hankelbound",
        description="Certify sharp bounds on the second Hankel determinant "
                    "of logarithmic coefficients.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="search the parameter domain and compare "
                                      "against the proven bound")
    _add_family_flags(p)
    p.add_argument("--coarse", type=int, default=128)
    p.add_argument("--refine-rounds", type=int, default=3)
    p.add_argument("--tol", type=_tolerance, default=5e-4)
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="verify over a list of parameter values")
    p.add_argument("--family", choices=list(FAMILIES), required=True)
    p.add_argument("--values", type=_values, required=True,
                   help="comma-separated parameter values (alpha, nu, or lambda)")
    p.add_argument("--beta", type=_finite, default=0.0,
                   help="fixed beta for spirallike sweeps")
    p.add_argument("--coarse", type=int, default=128)
    p.add_argument("--refine-rounds", type=int, default=3)
    p.add_argument("--tol", type=_tolerance, default=5e-4)
    _add_output_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ymax-certify", help="random certification of the "
                                            "piecewise disk maximum")
    p.add_argument("--n", type=_count, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    p.add_argument("--radial", type=int, default=CERT_RADIAL)
    p.add_argument("--angular", type=int, default=CERT_ANGULAR)
    _add_output_flags(p)
    p.set_defaults(func=cmd_ymax_certify)

    p = sub.add_parser("extremal", help="extremal coefficients and equality "
                                        "residual")
    _add_family_flags(p)
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    _add_output_flags(p)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("gamma", help="logarithmic coefficients and H_{2,1}")
    p.add_argument("--koebe", action="store_true", help="use the Koebe coefficients")
    _add_family_flags(p, required=False)
    p.add_argument("--a2", default="0")
    p.add_argument("--a3", default="0")
    p.add_argument("--a4", default="0")
    _add_output_flags(p)
    p.set_defaults(func=cmd_gamma)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PathMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (OSError, ValueError) as exc:  # an unwritable --out is found after the work
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
