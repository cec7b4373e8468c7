"""Byte-exact CLI reports against golden files.

The expected stdout bytes and exit codes under ``tests/golden/`` were
recorded once by running ``python -m degkit.cli`` on each case of
``cases.json``; an argument starting with ``@`` names an input file in that
directory.  Any change to a report, however small, fails here.
"""

import json
from pathlib import Path

import pytest

from degkit.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_golden(case, capsys):
    argv = [
        str(GOLDEN / a[1:]) if a.startswith("@") else a for a in case["argv"]
    ]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_CODES[case["name"]]
    assert out.encode() == (GOLDEN / (case["name"] + ".out")).read_bytes()
