"""argparse's help and usage-error texts, pinned byte for byte.

`cli_texts.json` holds, for each argv, the exit code, stdout and stderr that
the CLI printed when argparse parsed every command line, at COLUMNS=80.
They are the same bytes on Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0.  Where
a case lists a second stderr, it is the one later 3.12 and 3.13 releases
print, whose argparse writes choices without quotes (recorded on 3.13.13).
Whatever reads well-formed command lines, help and usage errors must stay
argparse's own.
"""

import json
from pathlib import Path

import pytest

from zetalab.cli import main

CASES = json.loads((Path(__file__).parent / "cli_texts.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) or "(none)" for c in CASES])
def test_help_and_usage_errors_match_the_pinned_texts(case, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as exc:
        main(case["argv"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (case["code"], case["stdout"])
    assert captured.err in case["stderr"]
