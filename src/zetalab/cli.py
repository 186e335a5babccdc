"""Command-line front end.

Subcommands: poly, moment, decompose, value, scan, verify.  The command
table `_COMMANDS` is the one list of them; a run builds only the invoked
command's parser.  stdout carries machine-parseable CSV or JSON only, and
one emitter, `_emit`, writes it for every command: the payload as one JSON
line, or under --format csv an RFC 4180 table of the command's rows.
Diagnostics and progress go to stderr.
Exit codes: 0 success, 1 verification failure, 2 usage or validation error.

Desk-scale defaults: 30 digits of precision, 10**5 Monte Carlo samples.
decompose, value and scan read through a decomposition cache when --cache
or the ZETALAB_CACHE environment variable names its directory; the cache
stores exact rationals, so cached and fresh results compare equal exactly.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import mpmath

from .cache import DecompositionCache
from .decomp import decompose, decomposition_report, moment_from_coeffs
from .polys import Poly, legendre_coeffs
from .verify import _check_precision, crosscheck, eval_combination, rationality_criterion

__all__ = ["main"]


def _parse_coeffs(text: str) -> Poly:
    try:
        coeffs = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError("--coeffs must be a comma-separated list of integers") from None
    p = Poly(coeffs)
    if p.is_zero:
        raise ValueError("--coeffs describes the zero polynomial")
    return p


def _pick_poly(args) -> Poly:
    if args.coeffs is not None and args.n is not None:
        raise ValueError("give either --n or --coeffs, not both")
    if args.coeffs is not None:
        return _parse_coeffs(args.coeffs)
    if args.n is None:
        raise ValueError("one of --n or --coeffs is required")
    return legendre_coeffs(args.n)


def _decomposer(args):
    """`decompose`, read through the cache at --cache or $ZETALAB_CACHE if one is named."""
    path = args.cache if args.cache is not None else os.environ.get("ZETALAB_CACHE")
    return DecompositionCache(path).decompose if path else decompose


def _csv_cell(x):
    if x is None:
        return ""
    if isinstance(x, (dict, list)):
        return json.dumps(x, sort_keys=True)
    return x


def _emit(payload, fmt: str = "json", rows: list | None = None) -> None:
    """Write `payload` as one JSON line, or under fmt "csv" an RFC 4180 table of `rows`.

    The rows default to the payload itself, as the one row.  Dict rows get a
    header of the first row's keys; a list row is written as it is, headerless.
    None becomes an empty cell; a dict or list cell becomes its JSON text.
    """
    if fmt == "json":
        sys.stdout.write(json.dumps(payload) + "\n")
        return
    rows = [payload] if rows is None else rows
    w = csv.writer(sys.stdout, lineterminator="\r\n")
    if isinstance(rows[0], dict):
        w.writerow(list(rows[0]))
        rows = [row.values() for row in rows]
    w.writerows([_csv_cell(x) for x in row] for row in rows)


# -- subcommand handlers -----------------------------------------------------


def _cmd_poly(args) -> int:
    coeffs = [str(c) for c in legendre_coeffs(args.n).coeffs]
    _emit(coeffs, args.format)
    return 0


def _cmd_moment(args) -> int:
    num, den = moment_from_coeffs(_pick_poly(args))
    obj = {
        "numerator": [str(c) for c in num.coeffs],
        "denominator": [str(c) for c in den.coeffs],
    }
    _emit(obj, args.format, [{"part": part, "coefficients": c} for part, c in obj.items()])
    return 0


def _cmd_decompose(args) -> int:
    poly = _pick_poly(args)
    combo = _decomposer(args)(poly, args.r, args.v)
    report = decomposition_report(poly, args.r, args.v, combo=combo)
    _emit(report.to_json_dict(), args.format)
    return 0


def _cmd_value(args) -> int:
    poly = _pick_poly(args)
    _check_precision(args.prec)
    combo = _decomposer(args)(poly, args.r, args.v)
    hp = eval_combination(combo, args.prec)
    obj = {"n": args.n, "r": args.r, "v": args.v, "precision": args.prec, **hp.to_json_dict()}
    _emit(obj, args.format)
    return 0


def _cmd_scan(args) -> int:
    if args.progress_every < 0:
        raise ValueError("--progress-every must be >= 0")
    progress = None
    if args.progress_every:
        def progress(n, every=args.progress_every, top=args.n_max):
            if n % every == 0 or n == top:
                print(f"scan: n={n}/{top} done", file=sys.stderr)

    records = rationality_criterion(
        args.r, args.v, args.n_max, args.prec, progress, decomposer=_decomposer(args)
    )

    def fmt(x):
        return None if x is None else mpmath.nstr(x, args.prec)

    rows = [
        {
            "n": rec.n,
            "abs_c": fmt(rec.abs_c),
            "lcm_pow": str(rec.lcm_pow),
            "lcm_scaled": fmt(rec.lcm_scaled),
            "exp_scaled": fmt(rec.exp_scaled),
            "ratio_to_prev": fmt(rec.ratio_to_prev),
        }
        for rec in records
    ]
    _emit(rows, args.format, rows)
    return 0


def _cmd_verify(args) -> int:
    poly = _pick_poly(args)
    report = crosscheck(
        poly, args.r, args.v, precision=args.prec, samples=args.samples, seed=args.seed
    )
    _emit({"n": args.n, **report.to_json_dict()})
    return 0 if report.passed else 1


# -- parser ------------------------------------------------------------------


def _add_rv(p):
    p.add_argument("--r", type=int, required=True, help="number of integral folds (>= 2)")
    p.add_argument("--v", type=int, required=True, help="log-weight power (>= 0)")


def _add_poly_selection(p):
    p.add_argument("--n", type=int, help="degree of the built-in family member")
    p.add_argument(
        "--coeffs",
        help=(
            "comma-separated integer coefficients, lowest degree first; "
            "write --coeffs=-3,2 when the first one is negative"
        ),
    )


def _add_format(p, default):
    p.add_argument("--format", choices=("csv", "json"), default=default)


def _poly_arguments(p):
    p.add_argument("--n", type=int, required=True)
    _add_format(p, "json")


def _moment_arguments(p):
    _add_poly_selection(p)
    _add_format(p, "json")


def _decompose_arguments(p):
    _add_poly_selection(p)
    _add_rv(p)
    _add_format(p, "json")
    p.add_argument("--cache", help="cache directory (default: $ZETALAB_CACHE)")


def _value_arguments(p):
    _add_poly_selection(p)
    _add_rv(p)
    p.add_argument("--prec", type=int, default=30, help="decimal digits (default 30)")
    _add_format(p, "json")
    p.add_argument("--cache", help="cache directory (default: $ZETALAB_CACHE)")


def _scan_arguments(p):
    _add_rv(p)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--prec", type=int, default=30, help="decimal digits (default 30)")
    _add_format(p, "csv")
    p.add_argument("--cache", help="cache directory (default: $ZETALAB_CACHE)")
    p.add_argument(
        "--progress-every",
        type=int,
        default=0,
        help="print progress to stderr every K rows (0 = off)",
    )


def _verify_arguments(p):
    _add_poly_selection(p)
    _add_rv(p)
    p.add_argument("--prec", type=int, default=30, help="decimal digits (default 30)")
    p.add_argument(
        "--samples", type=int, default=100_000, help="Monte Carlo samples (default 100000)"
    )
    p.add_argument("--seed", type=int, default=42, help="Monte Carlo seed (default 42)")


# name: (help, add_arguments, handler); the one list of subcommands, in help order
_COMMANDS = {
    "poly": ("print the degree-n family polynomial", _poly_arguments, _cmd_poly),
    "moment": ("print the moment rational function M(s)", _moment_arguments, _cmd_moment),
    "decompose": ("exact zeta-combination report", _decompose_arguments, _cmd_decompose),
    "value": (
        "high-precision numeric value of the decomposition",
        _value_arguments,
        _cmd_value,
    ),
    "scan": ("criterion-quantity table over n = 0..n_max", _scan_arguments, _cmd_scan),
    "verify": (
        "three-path crosscheck; exit 0 on pass, 1 on fail",
        _verify_arguments,
        _cmd_verify,
    ),
}


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser that add_parser would make for `name`, built once per process."""
    p = argparse.ArgumentParser(prog=f"zetalab {name}")
    _COMMANDS[name][1](p)
    return p


def _top_parser() -> argparse.ArgumentParser:
    """The whole tree, for an argv that does not start with a command."""
    ap = argparse.ArgumentParser(
        prog="zetalab",
        description=(
            "Exact zeta-value decompositions of r-fold log-weighted unit-cube "
            "integrals, with certified numerics and Monte Carlo verification. "
            "Defaults: 30-digit precision, 10**5 Monte Carlo samples."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return ap


def main(argv=None) -> int:
    # exact results print past Python's 4300-digit int<->str limit (3.10.7+):
    # lift it for the run, and give the caller's limit back even on SystemExit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        if argv and argv[0] in _COMMANDS:
            command, args = argv[0], _command_parser(argv[0]).parse_args(argv[1:])
        else:
            args = _top_parser().parse_args(argv)
            command = args.command
        return _COMMANDS[command][2](args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
