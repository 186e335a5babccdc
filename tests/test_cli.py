import contextlib
import dataclasses
import hashlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from zetalab import Poly, crosscheck, decompose, eval_combination, legendre_coeffs, moment_closed_form
from zetalab.cache import DecompositionCache
from zetalab.cli import _COMMANDS, _command_parser, _read_args, main


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "zetalab.cli", *args], capture_output=True, text=True, **kw
    )


def test_poly_json(capsys):
    assert main(["poly", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == ["1", "-6", "6"]


def test_poly_n0(capsys):
    assert main(["poly", "--n", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == ["1"]


def test_poly_csv(capsys):
    assert main(["poly", "--n", "2", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "1,-6,6\r\n"


def test_poly_negative_n_exits_2(capsys):
    assert main(["poly", "--n", "-1"]) == 2
    err = capsys.readouterr().err
    assert "n must be >= 0" in err


def test_moment_json(capsys):
    assert main(["moment", "--n", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {"numerator": ["0", "-1"], "denominator": ["2", "3", "1"]}
    num, den = moment_closed_form(1)
    assert obj == {
        "numerator": [str(c) for c in num.coeffs],
        "denominator": [str(c) for c in den.coeffs],
    }


def test_moment_csv(capsys):
    assert main(["moment", "--n", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        'part,coefficients\r\nnumerator,"[""0"", ""-1""]"\r\n'
        'denominator,"[""2"", ""3"", ""1""]"\r\n'
    )


def test_decompose_json(capsys):
    assert main(["decompose", "--n", "0", "--r", "3", "--v", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["zeta"] == {"5": "12"}
    assert obj["constant"] == "0"
    assert obj["A"] == "0" and obj["B"] == "12" and obj["G"] == "0" and obj["D"] == "1"
    assert obj["div_lcm_n"] is True and obj["div_lcm_n1"] is True


def test_decompose_coeffs_same_as_family(capsys):
    assert main(["decompose", "--coeffs", "1,-2", "--r", "2", "--v", "0"]) == 0
    a = capsys.readouterr().out
    assert main(["decompose", "--n", "1", "--r", "2", "--v", "0"]) == 0
    b = capsys.readouterr().out
    assert a == b


def test_decompose_r1_exits_2(capsys):
    assert main(["decompose", "--n", "0", "--r", "1", "--v", "0"]) == 2
    assert "diverges" in capsys.readouterr().err


def test_decompose_same_stdout_under_python_O():
    args = ["decompose", "--n", "3", "--r", "3", "--v", "2"]
    plain = run_cli(args)
    optimized = subprocess.run(
        [sys.executable, "-O", "-m", "zetalab.cli", *args], capture_output=True, text=True
    )
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout


def test_decompose_csv(capsys):
    assert main(["decompose", "--n", "1", "--r", "3", "--v", "2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.split("\r\n")
    assert lines[0].startswith("n,r,v,zeta,constant,A,B,G,D")
    assert '"{""4"": ""-108"", ""5"": ""-84""}"' in lines[1]


def test_value_json(capsys):
    assert main(["value", "--n", "0", "--r", "2", "--v", "1", "--prec", "20"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"].startswith("2.404113806319188")
    assert float(obj["error_bound"]) < 1e-19


def test_value_csv(capsys):
    argv = ["value", "--n", "0", "--r", "2", "--v", "1", "--prec", "20", "--format", "csv"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "n,r,v,precision,value,error_bound\r\n0,2,1,20,2.4041138063191885708,3.6041222e-30\r\n"
    )


def test_scan_csv_columns(capsys):
    assert main(["scan", "--r", "3", "--v", "2", "--n-max", "1", "--prec", "15"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\r\n")
    assert lines[0] == "n,abs_c,lcm_pow,lcm_scaled,exp_scaled,ratio_to_prev"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1].startswith("12.4431330617")
    assert first[5] == ""  # no ratio at the first record


def test_scan_json(capsys):
    assert main(["scan", "--r", "2", "--v", "1", "--n-max", "1", "--prec", "15", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["n"] for row in rows] == [0, 1]
    assert rows[0]["ratio_to_prev"] is None


def test_scan_rejects_negative_nmax(capsys):
    assert main(["scan", "--r", "2", "--v", "1", "--n-max", "-3"]) == 2


def test_scan_progress_on_stderr_only(capsys):
    assert main(
        ["scan", "--r", "2", "--v", "1", "--n-max", "2", "--prec", "15", "--progress-every", "1"]
    ) == 0
    captured = capsys.readouterr()
    assert "scan: n=" in captured.err
    assert "scan: n=" not in captured.out


def test_verify_pass_exit_codes(capsys):
    code = main(
        ["verify", "--n", "0", "--r", "3", "--v", "2", "--prec", "20",
         "--samples", "100000", "--seed", "42"]
    )
    out = capsys.readouterr().out
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["mc"]["seed"] == 42
    assert obj["mc"]["samples"] == 100000


@pytest.mark.parametrize("prec", [30, 50])
def test_verify_certifies_the_requested_precision(prec, capsys):
    code = main(["verify", "--n", "2", "--r", "2", "--v", "0", "--prec", str(prec),
                 "--samples", "10000", "--seed", "7"])
    obj = json.loads(capsys.readouterr().out)
    assert code == 0 and obj["passed"] is True
    assert obj["verified_digits"] >= prec
    assert float(obj["direct"]["error_bound"]) <= 10.0**-prec
    assert obj["direct_K"] >= 1


@pytest.mark.parametrize(
    "args,resolves,finite",
    [
        (["--n", "2", "--r", "3", "--v", "2"], False, True),  # |c| 3.9e-5, stderr 1.1e-2
        (["--n", "2", "--r", "2", "--v", "0"], True, False),  # E[f**2] diverges at the corner
        (["--n", "1", "--r", "2", "--v", "1"], True, True),
        (["--coeffs=1,-1", "--r", "2", "--v", "0"], True, True),  # R(1) = 0
    ],
)
def test_verify_reports_what_the_monte_carlo_leg_can_show(args, resolves, finite, capsys):
    # the two flags inform; passed and the exit code stay the crosscheck's
    assert main(["verify", *args, "--prec", "20"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["mc"]["samples"] == 100000
    assert obj["mc_resolves_value"] is resolves
    assert obj["mc_variance_finite"] is finite
    assert obj["passed"] is True


def test_verify_same_stdout_under_python_O():
    args = ["verify", "--n", "1", "--r", "2", "--v", "1", "--prec", "30",
            "--samples", "20000", "--seed", "3"]
    plain = run_cli(args)
    optimized = subprocess.run(
        [sys.executable, "-O", "-m", "zetalab.cli", *args], capture_output=True, text=True
    )
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout


def test_verify_coeffs_on_a_non_legendre_polynomial(capsys):
    args = ["--r", "2", "--v", "1", "--prec", "30", "--samples", "10000", "--seed", "5"]
    assert main(["verify", "--coeffs=3,-1,2", *args]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["n"] is None and obj["passed"] is True
    report = crosscheck(Poly([3, -1, 2]), 2, 1, precision=30, samples=10000, seed=5)
    assert obj == {"n": None, **report.to_json_dict()}
    # P_1 = 1 - 2x given by its coefficients reports what --n 1 does, bar "n"
    assert main(["verify", "--coeffs", "1,-2", *args]) == 0
    by_coeffs = json.loads(capsys.readouterr().out)
    assert main(["verify", "--n", "1", *args]) == 0
    by_n = json.loads(capsys.readouterr().out)
    assert by_coeffs == {**by_n, "n": None}


def test_verify_passes_at_n_40():
    # the Monte Carlo oracle evaluates R in the shifted Chebyshev basis;
    # from monomial coefficients its mean at n = 30 was off by ~1e7
    proc = run_cli(["verify", "--n", "40", "--r", "2", "--v", "1"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["exact_vs_mc_ok"] is True and obj["passed"] is True


COMMAND_HELP = [
    ("poly", "print the degree-n family polynomial"),
    ("moment", "print the moment rational function M(s)"),
    ("decompose", "exact zeta-combination report"),
    ("value", "high-precision numeric value of the decomposition"),
    ("scan", "criterion-quantity table over n = 0..n_max"),
    ("verify", "three-path crosscheck; exit 0 on pass, 1 on fail"),
]


def test_malformed_flags_exit_2(monkeypatch, capsys):
    proc = run_cli(["decompose", "--n", "0", "--r"])
    assert proc.returncode == 2
    proc = run_cli(["nonsense"])
    assert proc.returncode == 2

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width

    def exit_code(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code

    assert exit_code([]) == 2
    assert exit_code(["--help"]) == 0
    listed = re.findall(r"^    (\S+) +(.+)$", capsys.readouterr().out, re.MULTILINE)
    assert listed == COMMAND_HELP
    for name, _ in COMMAND_HELP:
        assert exit_code([name, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: zetalab {name} ")
    assert exit_code(["scan", "--r", "2", "--v", "1", "--n-max", "2", "--bogus"]) == 2
    assert "zetalab scan: error: unrecognized arguments: --bogus" in capsys.readouterr().err


def test_verify_help_names_its_defaults(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--prec PREC        decimal digits (default 30)" in out
    assert "--samples SAMPLES  Monte Carlo samples (default 100000)" in out
    assert "--seed SEED        Monte Carlo seed (default 42)" in out


# one well-formed command line per command, in both --flag value and --flag=value forms
VALID_RUNS = [
    ["poly", "--n", "2", "--format=csv"],
    ["moment", "--coeffs=-3,2"],
    ["decompose", "--n", "0", "--r", "2", "--v", "0"],
    ["value", "--coeffs=1,-2", "--r", "2", "--v", "0", "--prec", "15"],
    ["scan", "--r", "2", "--v", "0", "--n-max", "1", "--prec=15"],
    ["verify", "--n", "0", "--r", "2", "--v", "0", "--prec", "15",
     "--samples", "10000", "--seed", "1"],
]


def run_fresh(code):
    """stdout of `code` run in a fresh interpreter after `from zetalab.cli import main`."""
    prelude = "import contextlib, io, sys\nfrom zetalab.cli import main\n"
    proc = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_valid_runs_build_no_parser(monkeypatch, capsys):
    import zetalab.cli as cli

    def no_parser(*args):
        raise AssertionError("a well-formed command line reached argparse")

    monkeypatch.delenv("ZETALAB_CACHE", raising=False)
    monkeypatch.setattr(cli, "_command_parser", no_parser)
    monkeypatch.setattr(cli, "_top_parser", no_parser)
    for argv in VALID_RUNS:
        assert main(argv) == 0, argv
    capsys.readouterr()

    # a fresh interpreter runs all six, a full verify with its Monte Carlo leg
    # among them, without importing argparse or numpy.random; --help and a
    # usage error are what import argparse
    quiet = "contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO())"
    out = run_fresh(
        f"with {quiet}:\n"
        f"    codes = [main(argv) for argv in {VALID_RUNS!r}]\n"
        "print(codes, 'argparse' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    assert out == f"{[0] * len(VALID_RUNS)} False False\n"
    for argv in (["value", "--help"], ["scan", "--r", "2", "--v", "1"]):
        out = run_fresh(
            f"with {quiet}, contextlib.suppress(SystemExit):\n"
            f"    main({argv!r})\n"
            "print('argparse' in sys.modules)\n"
        )
        assert out == "True\n", argv


def _good_value(option):
    """Values that argparse and the reader both take as they are."""
    if option.choices is not None:
        return st.sampled_from(option.choices)
    if option.type is int:
        return st.integers(0, 10**6).map(str)
    return st.text("0123456789,", min_size=1, max_size=8)


# values that are negative, empty, argparse's own syntax or not of the option's type
_ODD_VALUES = st.sampled_from(
    ["-1", "-42", "", "-", "--", "-h", "--help", "x", "1.5", " 7", " -7", "+4", "1_0", "-3,2", "xml"]
)
_DEFECTS = ["omit", "abbreviate", "odd value", "repeat", "no value", "stray token"]


@st.composite
def _command_lines(draw):
    """(name, argv, clean): a well-formed argv, then up to two defects; clean if none."""
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    options = _COMMANDS[name].options
    # [flag, value or None, joined by "="]
    pieces = [
        [o.flag, draw(_good_value(o)), draw(st.booleans())]
        for o in options
        if o.required or draw(st.booleans())
    ]
    defects = draw(st.lists(st.sampled_from(_DEFECTS), max_size=2))
    for defect in defects:
        if defect == "stray token" or not pieces:
            token = draw(st.sampled_from(["-h", "--help", "--bogus", "--", "-", "x", "--n-max", "--n"]))
            pieces.append([token, None, False])
            continue
        k = draw(st.integers(0, len(pieces) - 1))
        flag = pieces[k][0]
        if defect == "omit":
            del pieces[k]
        elif defect == "abbreviate":
            pieces[k][0] = flag[: draw(st.integers(3, max(3, len(flag) - 1)))]
        elif defect == "odd value":
            pieces[k][1] = draw(_ODD_VALUES)
        elif defect == "repeat":
            option = next((o for o in options if o.flag == flag), None)
            value = draw(_good_value(option)) if option else None
            pieces.append([flag, value, draw(st.booleans())])
        else:  # "no value"
            pieces[k][1:] = [None, False]
    pieces = draw(st.permutations(pieces))
    argv = []
    for flag, value, joined in pieces:
        if joined and value is not None:
            argv.append(f"{flag}={value}")
        else:
            argv += [flag] if value is None else [flag, value]
    return name, argv, not defects


@settings(max_examples=300)
@given(line=_command_lines())
# argparse reads "--coeffs=--" as an empty list, "--coeffs -3,2" as a missing
# value and "--s" in verify as ambiguous; "--n" abbreviates scan's --n-max;
# it refuses a flag without its value, an empty int, a non-int and a format
# outside its choices
@example(line=("moment", ["--coeffs=--"], False))
@example(line=("moment", ["--coeffs", "-3,2"], False))
@example(line=("moment", ["--coeffs", "-h"], False))
@example(line=("poly", ["--n", "-1"], False))
@example(line=("verify", ["--n", "1", "--r", "2", "--v", "0", "--s", "5"], False))
@example(line=("scan", ["--r", "2", "--v", "1", "--n", "3"], False))
@example(line=("moment", ["--coeffs"], False))
@example(line=("poly", ["--n="], False))
@example(line=("poly", ["--n", "x"], False))
@example(line=("poly", ["--n", "2", "--format", "xml"], False))
def test_table_reader_agrees_with_argparse(line):
    """The reader declines an argv or returns argparse's namespace for it, and reads clean ones.

    It never accepts an argv that argparse refuses or answers with help.
    """
    name, argv, clean = line
    read = _read_args(name, argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            expected = vars(_command_parser(name).parse_args(argv))
    except SystemExit:
        expected = None
    if clean:
        assert read is not None
    if read is not None:
        assert vars(read) == expected


# small values of each option, so that a command line that runs ends quickly,
# a valid one first (hypothesis favours it); "{cache}" stands for a cache directory
_SMALL_VALUES = {
    "n": ["1", "0", "3", "-1"],
    "coeffs": ["1,-2", "-3,2", "0", "1,x"],
    "r": ["2", "3", "1"],
    "v": ["0", "2"],
    "prec": ["10", "20", "5"],
    "format": ["csv", "json", "xml"],
    "cache": ["{cache}"],
    "n_max": ["0", "3"],
    "progress_every": ["0", "1"],
    "samples": ["10000"],
    "seed": ["0", "7"],
}


@st.composite
def _small_command_lines(draw):
    """A command and its argv over a small alphabet: its flags, "=", "--", "" and small values."""
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    options = _COMMANDS[name].options
    argv = []
    for o in draw(st.permutations(options)):
        if o.required or draw(st.booleans()):
            # one value in four is "--" or "", one form in five has no value
            odd = draw(st.sampled_from([False, False, False, True]))
            value = draw(st.sampled_from(["--", ""] if odd else _SMALL_VALUES[o.dest]))
            form = draw(st.sampled_from(["separate", "separate", "joined", "joined", "bare"]))
            forms = {"separate": [o.flag, value], "joined": [f"{o.flag}={value}"], "bare": [o.flag]}
            argv += forms[form]
    # and one line in four has a stray token
    if draw(st.sampled_from([False, False, False, True])):
        stray = draw(st.sampled_from([*(o.flag for o in options), "=", "--", ""]))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return [name, *argv]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argv=_small_command_lines())
# argparse drops the "--" of --flag=--: before Python 3.13 the value is then
# an empty list, which no handler takes
@example(argv=["decompose", "--coeffs=--", "--r", "2", "--v", "0"])
@example(argv=["poly", "--n=--"])
@example(argv=["value", "--n=--", "--r", "2", "--v", "0"])
@example(argv=["scan", "--r=--", "--v", "1", "--n-max", "2"])
def test_no_command_line_ends_in_a_traceback(argv, tmp_path_factory):
    cache = str(tmp_path_factory.getbasetemp() / "small-argv-cache")
    argv = [a.replace("{cache}", cache) for a in argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code in (0, 2), argv
    else:
        assert code in (0, 1, 2), argv


# (argv, environment); "{tmp}" stands for an existing regular file
BAD_INPUT = [
    (["poly", "--n", "-1"], {}),
    (["moment", "--n", "-1"], {}),
    (["decompose", "--n", "-1", "--r", "2", "--v", "0"], {}),
    (["value", "--n", "-1", "--r", "2", "--v", "0"], {}),
    (["verify", "--n", "-1", "--r", "2", "--v", "0"], {}),
    (["decompose", "--n", "1", "--coeffs", "1,-2", "--r", "2", "--v", "0"], {}),
    (["decompose", "--coeffs", "0,0", "--r", "2", "--v", "0"], {}),
    (["decompose", "--coeffs=1,x", "--r", "2", "--v", "0"], {}),
    (["value", "--r", "2", "--v", "0"], {}),
    (["decompose", "--n", "1", "--r", "1", "--v", "0"], {}),
    (["value", "--n", "1", "--r", "2", "--v", "-1"], {}),
    (["value", "--n", "1", "--r", "2", "--v", "0", "--prec", "5"], {}),
    (["scan", "--r", "2", "--v", "0", "--n-max", "1", "--prec", "5"], {}),
    (["verify", "--n", "1", "--r", "2", "--v", "0", "--prec", "5"], {}),
    (["verify", "--n", "0", "--r", "2", "--v", "0", "--prec", "15", "--samples", "5"], {}),
    (["verify", "--n", "0", "--r", "2", "--v", "0", "--prec", "15", "--samples", "9223372036854775808"], {}),
    (["verify", "--n", "1", "--coeffs", "1,-2", "--r", "2", "--v", "0"], {}),
    (["verify", "--coeffs", "0,0", "--r", "2", "--v", "0"], {}),
    (["scan", "--r", "2", "--v", "0", "--n-max", "-1"], {}),
    (["scan", "--r", "2", "--v", "0", "--n-max", "1", "--progress-every", "-2"], {}),
    (["decompose", "--n", "1", "--r", "2", "--v", "0", "--cache", "{tmp}"], {}),
    (["decompose", "--n", "1", "--r", "2", "--v", "0"], {"ZETALAB_CACHE": "{tmp}"}),
]


@pytest.mark.parametrize(
    "argv,env", BAD_INPUT, ids=[" ".join(a) + "".join(f" ${k}" for k in e) for a, e in BAD_INPUT]
)
def test_bad_input_exits_2_without_traceback(argv, env, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ZETALAB_CACHE", raising=False)
    tmp = tmp_path / "file"
    tmp.write_text("")
    for name, value in env.items():
        monkeypatch.setenv(name, value.format(tmp=tmp))
    assert main([a.format(tmp=tmp) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["value", "verify"])
def test_bad_precision_exits_2_before_any_leg_runs(command, monkeypatch, capsys):
    import zetalab.cli as cli
    from zetalab import verify

    def leg(*args, **kwargs):
        raise AssertionError("a leg ran before the precision was checked")

    for module, name in ((verify, "mc_integral"), (verify, "decompose"), (cli, "decompose")):
        monkeypatch.setattr(module, name, leg)
    monkeypatch.delenv("ZETALAB_CACHE", raising=False)
    assert main([command, "--n", "100", "--r", "3", "--v", "2", "--prec", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: precision must be >= 10\n"
    assert captured.out == ""


def test_verify_failure_exits_1(monkeypatch, capsys):
    import zetalab.cli as cli

    true_crosscheck = cli.crosscheck

    def fake_crosscheck(poly, r, v, precision, samples, seed):
        real = true_crosscheck(poly, r, v, precision=precision, samples=samples, seed=seed)
        return dataclasses.replace(real, exact_vs_mc_ok=False)

    monkeypatch.setattr(cli, "crosscheck", fake_crosscheck)
    code = main(["verify", "--n", "0", "--r", "2", "--v", "0", "--prec", "15",
                 "--samples", "10000", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_scan_determinism_byte_identical():
    args = ["scan", "--r", "2", "--v", "1", "--n-max", "6", "--prec", "30"]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


# SHA-256 of scan's stdout at n_max = 40, past the benchmark's n_max of 15
# and 20; recorded with the Fraction kernels, before the integer ones
SCAN_STDOUT_SHA256 = {
    ("2", "1"): "d2ba79139f44bb019455abf136dc3898a6768a73a84c6a4ff3a9a98c6b942f1b",
    ("3", "2"): "b084cbb354185ce09b310e701f51708f353ddafa2f8a8f1a420b252454ded7e1",
}


@pytest.mark.parametrize("r,v", sorted(SCAN_STDOUT_SHA256))
def test_scan_stdout_pinned_at_n_max_40(r, v, capsys):
    assert main(["scan", "--r", r, "--v", v, "--n-max", "40", "--prec", "50"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_STDOUT_SHA256[(r, v)]


def test_verify_determinism_byte_identical():
    args = [
        "verify", "--n", "1", "--r", "2", "--v", "1", "--prec", "20",
        "--samples", "100000", "--seed", "123",
    ]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_cache_roundtrip_exact(tmp_path: Path, capsys):
    cache = tmp_path / "cache"
    args = ["decompose", "--n", "3", "--r", "3", "--v", "2", "--cache", str(cache)]
    assert main(args) == 0
    fresh = capsys.readouterr().out
    assert len(list(cache.iterdir())) == 1
    # second run hits the cache; output must be byte-identical to fresh
    assert main(args) == 0
    cached = capsys.readouterr().out
    assert cached == fresh
    assert len(list(cache.iterdir())) == 1  # no second entry


def test_cache_survives_a_torn_line(tmp_path: Path, capsys):
    cache = tmp_path / "cache"
    first = ["decompose", "--n", "2", "--r", "2", "--v", "0", "--cache", str(cache)]
    second = ["decompose", "--n", "3", "--r", "3", "--v", "2", "--cache", str(cache)]
    assert main(first) == 0
    (kept,) = cache.iterdir()
    assert main(second) == 0
    expected = capsys.readouterr().out.splitlines(keepends=True)[1]
    (entry,) = set(cache.iterdir()) - {kept}
    # cut the second entry short, as a power loss before it reached the disk could
    entry.write_bytes(entry.read_bytes()[:-20])
    assert main(second) == 0
    out = capsys.readouterr()
    assert out.out == expected
    assert out.err.count("warning") == 1 and entry.name in out.err
    # the recomputed entry replaced the torn one, so the next run reads it
    # without a warning
    files = list(cache.iterdir())
    assert len(files) == 2 and all(json.loads(f.read_text()) for f in files)
    assert main(second) == 0
    out = capsys.readouterr()
    assert out.out == expected and out.err == ""
    reread = DecompositionCache(cache)
    for n, r, v in ((2, 2, 0), (3, 3, 2)):
        assert reread.get(legendre_coeffs(n), r, v) == decompose(legendre_coeffs(n), r, v)


def test_cache_rewrites_an_entry_that_is_not_utf8(tmp_path: Path, capsys):
    cache = tmp_path / "cache"
    args = ["decompose", "--n", "3", "--r", "3", "--v", "2", "--cache", str(cache)]
    assert main(args) == 0
    expected = capsys.readouterr().out
    (entry,) = cache.iterdir()
    entry.write_bytes(b"\xff\xfe garbage")
    assert main(args) == 0
    out = capsys.readouterr()
    assert out.out == expected
    assert out.err.count("\n") == 1 and out.err.startswith("warning: ")
    assert main(args) == 0
    out = capsys.readouterr()
    assert out.out == expected and out.err == ""
    assert list(cache.iterdir()) == [entry]


def test_cli_imports_no_lock_or_hash_module():
    code = "import sys, zetalab.cli; print(sorted({'fcntl', 'hashlib'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_cli_commands_run_without_mpmath(tmp_path: Path):
    # the CLI computes and prints through zetalab._binfloat: a run of every
    # command leaves mpmath unimported, and with mpmath unimportable (a None
    # entry in sys.modules makes every import of it raise) prints the same
    # bytes; the second run reads the first one's cache entry
    runs = [*VALID_RUNS, ["value", "--n", "3", "--r", "3", "--v", "1", "--cache", str(tmp_path)]]
    body = (
        "import contextlib, io, sys\n"
        "from zetalab.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {runs!r}]\n"
        "print(codes, [m for m, mod in sys.modules.items() if 'mpmath' in m and mod is not None])\n"
        "print(out.getvalue(), end='')\n"
    )
    plain, blocked = (
        subprocess.run([sys.executable, "-c", prelude + body], capture_output=True, text=True)
        for prelude in ("", "import sys\nsys.modules['mpmath'] = None\n")
    )
    assert plain.returncode == 0 and blocked.returncode == 0, (plain.stderr, blocked.stderr)
    first, _, rest = plain.stdout.partition("\n")
    assert first == f"{[0] * len(runs)} []"
    assert rest.count("\n") >= len(runs)
    assert blocked.stdout == plain.stdout


def test_value_past_two_to_the_3500_prints_mpmaths_digits(capsys):
    # R = 1 + 10**600 x puts the value near 6.4e1199, past 2**3500, where
    # the formatter first divides by a power of ten found at low precision
    assert main(["value", "--coeffs=1,1" + "0" * 600, "--r", "2", "--v", "0", "--prec", "30"]) == 0
    hp = eval_combination(decompose(Poly([1, 10**600]), 2, 0), 30)
    assert hp.value > mpmath.mpf(2) ** 3500
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"] == mpmath.nstr(hp.value, 30)
    assert obj["error_bound"] == mpmath.nstr(hp.error_bound, 8)


def test_results_wider_than_4300_digits_print_and_round_trip_the_cache(tmp_path: Path):
    # R = 1 + 10**2200 x: the r = 2 coefficients run to about 4400 digits,
    # past the default int <-> str limit of Python 3.10.7+.  Only the CLI
    # lifts that limit: this process compares the printed decimals as
    # strings, and the cache's hexadecimal rationals as ints.
    argv = ["decompose", "--coeffs=1,1" + "0" * 2200, "--r", "2", "--v", "0"]
    cache = tmp_path / "c"
    miss, hit = run_cli([*argv, "--cache", str(cache)]), run_cli([*argv, "--cache", str(cache)])
    for proc in (miss, hit):
        assert proc.returncode == 0 and proc.stderr == ""
    assert hit.stdout == miss.stdout
    report = json.loads(miss.stdout)
    assert max(map(len, report["zeta"].values())) > 4300
    (entry,) = cache.iterdir()
    stored = json.loads(entry.read_text())["combo"]

    def ints(text):
        return tuple(int(x, 16) for x in text.split("/"))

    combo = decompose(Poly([1, 10**2200]), 2, 0)
    assert {int(j): ints(q) for j, q in stored["zeta"].items()} == {
        j: (q.numerator, q.denominator) for j, q in combo.zeta
    }
    assert ints(stored["constant"]) == (combo.constant.numerator, combo.constant.denominator)
    value = run_cli(["value", *argv[1:], "--cache", str(cache)])
    assert value.returncode == 0 and value.stderr == ""
    assert json.loads(value.stdout)["precision"] == 30


def test_cache_value_consistency(tmp_path: Path, capsys):
    cache = tmp_path / "cache.jsonl"
    args = ["value", "--n", "2", "--r", "2", "--v", "1", "--prec", "25", "--cache", str(cache)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cache_env_var(tmp_path: Path, monkeypatch, capsys):
    cache = tmp_path / "envcache.jsonl"
    monkeypatch.setenv("ZETALAB_CACHE", str(cache))
    assert main(["decompose", "--n", "1", "--r", "2", "--v", "0"]) == 0
    capsys.readouterr()
    assert cache.exists()


def test_scan_uses_cache(tmp_path: Path, capsys):
    cache = tmp_path / "scan"
    assert main(["scan", "--r", "2", "--v", "1", "--n-max", "3", "--prec", "15",
                 "--cache", str(cache)]) == 0
    out1 = capsys.readouterr().out
    assert len(list(cache.iterdir())) == 4
    assert main(["scan", "--r", "2", "--v", "1", "--n-max", "3", "--prec", "15",
                 "--cache", str(cache)]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert len(list(cache.iterdir())) == 4
