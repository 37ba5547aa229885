"""The CLI's stdout, byte for byte, on fixed calls.

``data/cli_golden.json`` holds the argv, exit code and stdout of each call:
the README examples, an ideal closure with several labels, chain
separations and a small selftest.  A refactor must leave every one of them
unchanged; only a deliberate change of output may rewrite the file.
"""

import json
from pathlib import Path

import pytest

from goldmanab.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"][:2]))
def test_stdout_is_byte_identical(capsys, case):
    code = main(case["argv"])
    assert (code, capsys.readouterr().out) == (case["code"], case["stdout"])
