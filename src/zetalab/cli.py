"""Command-line front end.

Subcommands: poly, moment, decompose, value, scan, verify.  The command
table `_COMMANDS` is the one list of them and of their options.  A
well-formed command line (exact long flags, each once, with valid values)
is read straight from that table.  Anything else (--help, abbreviations,
negative separate values, unknown or repeated flags) goes to argparse,
which is imported, and its parsers built from the same table, only then:
help texts and usage errors are argparse's own.

stdout carries machine-parseable CSV or JSON only, and one emitter,
`_emit`, writes it for every command: the payload as one JSON line, or
under --format csv an RFC 4180 table of the command's rows.
Diagnostics and progress go to stderr.
Exit codes: 0 success, 1 verification failure, 2 usage or validation error.

Desk-scale defaults: 30 digits of precision, 10**5 Monte Carlo samples.
decompose, value and scan read through a decomposition cache when --cache
or the ZETALAB_CACHE environment variable names its directory; the cache
stores exact rationals, so cached and fresh results compare equal exactly.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

import mpmath

from .cache import DecompositionCache
from .decomp import decompose, decomposition_report, moment_from_coeffs
from .polys import Poly, legendre_coeffs
from .verify import _check_precision, crosscheck, eval_combination, rationality_criterion

if TYPE_CHECKING:
    import argparse

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


# -- options -----------------------------------------------------------------


class _Option(NamedTuple):
    """One --flag of a command: the arguments argparse's add_argument takes."""

    flag: str
    dest: str
    type: Callable[[str], object] = str
    default: object = None
    required: bool = False
    choices: tuple[str, ...] | None = None
    help: str | None = None


_N = _Option("--n", "n", int, help="degree of the built-in family member")
_COEFFS = _Option(
    "--coeffs",
    "coeffs",
    help=(
        "comma-separated integer coefficients, lowest degree first; "
        "write --coeffs=-3,2 when the first one is negative"
    ),
)
_R = _Option("--r", "r", int, required=True, help="number of integral folds (>= 2)")
_V = _Option("--v", "v", int, required=True, help="log-weight power (>= 0)")
_PREC = _Option("--prec", "prec", int, 30, help="decimal digits (default 30)")
_FORMAT = _Option("--format", "format", default="json", choices=("csv", "json"))
_CACHE = _Option("--cache", "cache", help="cache directory (default: $ZETALAB_CACHE)")


class _Command(NamedTuple):
    help: str
    options: tuple[_Option, ...]
    handler: Callable[[SimpleNamespace], int]


# the one list of subcommands, in help order, each with its options in usage order
_COMMANDS = {
    "poly": _Command(
        "print the degree-n family polynomial",
        (_Option("--n", "n", int, required=True), _FORMAT),
        _cmd_poly,
    ),
    "moment": _Command(
        "print the moment rational function M(s)", (_N, _COEFFS, _FORMAT), _cmd_moment
    ),
    "decompose": _Command(
        "exact zeta-combination report", (_N, _COEFFS, _R, _V, _FORMAT, _CACHE), _cmd_decompose
    ),
    "value": _Command(
        "high-precision numeric value of the decomposition",
        (_N, _COEFFS, _R, _V, _PREC, _FORMAT, _CACHE),
        _cmd_value,
    ),
    "scan": _Command(
        "criterion-quantity table over n = 0..n_max",
        (
            _R,
            _V,
            _Option("--n-max", "n_max", int, required=True),
            _PREC,
            _FORMAT._replace(default="csv"),
            _CACHE,
            _Option(
                "--progress-every", "progress_every", int, 0,
                help="print progress to stderr every K rows (0 = off)",
            ),
        ),
        _cmd_scan,
    ),
    "verify": _Command(
        "three-path crosscheck; exit 0 on pass, 1 on fail",
        (
            _N,
            _COEFFS,
            _R,
            _V,
            _PREC,
            _Option(
                "--samples", "samples", int, 100_000, help="Monte Carlo samples (default 100000)"
            ),
            _Option("--seed", "seed", int, 42, help="Monte Carlo seed (default 42)"),
        ),
        _cmd_verify,
    ),
}


def _read_args(name: str, argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for command `name`, if `argv` is well formed.

    Well formed: only exact long flags of the command, none twice, each
    written `--flag value` or `--flag=value`; no value is empty or "--"
    (which argparse strips), no separate value starts with "-", every value
    converts by its type and lies within its choices, and every required
    flag is present.  Anything else returns None and is left to argparse,
    which owns help and usage errors.
    """
    options = _COMMANDS[name].options
    by_flag = {option.flag: option for option in options}
    values = {}
    tokens = iter(argv)
    for token in tokens:
        flag, eq, text = token.partition("=")
        option = by_flag.get(flag)
        if option is None or option.dest in values:
            return None
        if not eq:
            text = next(tokens, "")
            if text.startswith("-"):
                return None
        if not text or text == "--":
            return None
        try:
            value = option.type(text)
        except ValueError:
            return None
        if option.choices is not None and value not in option.choices:
            return None
        values[option.dest] = value
    if any(option.required and option.dest not in values for option in options):
        return None
    return SimpleNamespace(**{o.dest: values.get(o.dest, o.default) for o in options})


# -- argparse: help and usage errors only ------------------------------------


def _add_options(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    for o in _COMMANDS[name].options:
        p.add_argument(
            o.flag,
            dest=o.dest,
            type=o.type,
            default=o.default,
            required=o.required,
            choices=o.choices,
            help=o.help,
        )
    return p


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser that add_parser would make for `name`."""
    import argparse

    return _add_options(argparse.ArgumentParser(prog=f"zetalab {name}"), name)


def _top_parser() -> argparse.ArgumentParser:
    """The whole tree, for an argv that does not start with a command."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="zetalab",
        description=(
            "Exact zeta-value decompositions of r-fold log-weighted unit-cube "
            "integrals, with certified numerics and Monte Carlo verification. "
            "Defaults: 30-digit precision, 10**5 Monte Carlo samples."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        _add_options(sub.add_parser(name, help=command.help), name)
    return ap


def main(argv=None) -> int:
    # exact results print past Python's 4300-digit int<->str limit (3.10.7+):
    # lift it for the run, and give the caller's limit back even on SystemExit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        args = None if command is None else _read_args(command, argv[1:])
        if args is None:
            if command is None:
                args = _top_parser().parse_args(argv)
                command = args.command
            else:
                args = _command_parser(command).parse_args(argv[1:])
            # argparse drops the "--" of --flag=--, then gives [] (or "--" from
            # Python 3.13 on): refuse it as argparse refuses a flag with no value
            for o in _COMMANDS[command].options:
                if getattr(args, o.dest) in ([], "--"):
                    _command_parser(command).error(f"argument {o.flag}: expected one argument")
        return _COMMANDS[command].handler(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
