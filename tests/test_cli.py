import dataclasses
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from zetalab import Poly, crosscheck, decompose, legendre_coeffs, moment_closed_form
from zetalab.cache import DecompositionCache
from zetalab.cli import main


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


def test_only_the_invoked_commands_parser_is_built(monkeypatch, capsys):
    import zetalab.cli as cli

    def no_top_parser():
        raise AssertionError("a valid command reached the top-level parser")

    monkeypatch.delenv("ZETALAB_CACHE", raising=False)
    monkeypatch.setattr(cli, "_top_parser", no_top_parser)
    cli._command_parser.cache_clear()
    runs = [
        ["poly", "--n", "2"],
        ["moment", "--n", "1"],
        ["decompose", "--n", "0", "--r", "2", "--v", "0"],
        ["value", "--n", "0", "--r", "2", "--v", "0", "--prec", "15"],
        ["scan", "--r", "2", "--v", "0", "--n-max", "1", "--prec", "15"],
        ["verify", "--n", "0", "--r", "2", "--v", "0", "--prec", "15",
         "--samples", "10000", "--seed", "1"],
    ]
    for built, argv in enumerate(runs, 1):
        assert main(argv) == 0
        assert cli._command_parser.cache_info().currsize == built
    for argv in runs:
        assert main(argv) == 0
    assert cli._command_parser.cache_info().currsize == len(runs)
    capsys.readouterr()

    # importing builds no parser, and not even a full verify run, Monte Carlo
    # leg included, imports numpy.random
    code = (
        "import sys, zetalab.cli as cli; "
        "print(cli._command_parser.cache_info().currsize, 'numpy.random' in sys.modules); "
        "code = cli.main(['verify', '--n', '0', '--r', '2', '--v', '0', '--prec', '15', "
        "'--samples', '10000', '--seed', '1']); "
        "print(code, 'numpy.random' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("0 False\n") and proc.stdout.endswith("}\n0 False\n"), proc.stdout


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
    (["verify", "--n", "0", "--r", "2", "--v", "0", "--prec", "15", "--samples", "1099511627777"], {}),
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
