"""The CLI's argument parser: help text, usage errors, and reuse in one process.

``data/cli_help.json`` holds the exit code, stdout and stderr of ``--help``
at the top level and for every subcommand, and of a few usage errors.
Argparse wraps its text to the terminal width, so every test here fixes
``COLUMNS``; the recordings are argparse's output on Python 3.11.

``cli.main`` builds its parser once per process, so the reuse tests run many
calls in one process and check that no call leaves state for the next.
"""

import json
import random
from pathlib import Path

import pytest

from goldmanab.cli import main

DATA = Path(__file__).parent / "data"
HELP = json.loads((DATA / "cli_help.json").read_text())
GOLDEN = json.loads((DATA / "cli_golden.json").read_text())

USAGE_ERRORS = [case["argv"] for case in HELP if case["code"] == 2]


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def run(capsys, argv):
    """(exit code, stdout, stderr) of one call, whether main returns or exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("case", HELP, ids=lambda case: " ".join(case["argv"]) or "(none)")
def test_help_and_usage_are_byte_identical(capsys, case):
    assert run(capsys, case["argv"]) == (case["code"], case["stdout"], case["stderr"])


def test_golden_calls_repeat_in_any_order_between_usage_errors(capsys):
    cases = GOLDEN * 2
    random.Random(6).shuffle(cases)
    for i, case in enumerate(cases):
        code, out, err = run(capsys, USAGE_ERRORS[i % len(USAGE_ERRORS)])
        assert (code, out) == (2, "") and "error:" in err
        assert run(capsys, case["argv"])[:2] == (case["code"], case["stdout"])


class TestNothingCarriesOver:
    CENTRAL = json.dumps({"ring": "Q", "terms": [{"exp": [0, 0, 1], "coef": "1"}]})
    LABELLED = json.dumps({"ring": "Q", "terms": [{"exp": [1, 0, 0], "coef": "1"}]})

    def test_gen_list_starts_empty_on_every_call(self, capsys):
        closure = ["ideal-closure", "--boundary", "1", "2"]
        code, out, _ = run(capsys, [*closure, "--gen", self.CENTRAL, "--gen", self.LABELLED])
        assert code == 0 and json.loads(out)["labels"] != []
        code, out, _ = run(capsys, [*closure, "--gen", self.CENTRAL])
        assert code == 0 and json.loads(out) == {
            "labels": [],
            "central_basis": [json.loads(self.CENTRAL)],
        }
        assert run(capsys, closure) == (0, '{\n  "labels": [],\n  "central_basis": []\n}\n', "")

    def test_text_format_does_not_stick(self, capsys):
        assert run(capsys, ["--format", "text", "center", "--closed", "1"]) == (
            0, "generators: []\n", ""
        )
        assert run(capsys, ["center", "--closed", "1"]) == (0, '{\n  "generators": []\n}\n', "")

    def test_surface_flags_stay_mutually_exclusive_and_required(self, capsys):
        for _ in range(2):
            assert run(capsys, ["center", "--closed", "1"])[0] == 0
            code, out, err = run(capsys, ["center", "--closed", "1", "--boundary", "1", "2"])
            assert (code, out) == (2, "") and "not allowed with argument --closed" in err
            assert run(capsys, ["center", "--boundary", "1", "2"])[0] == 0
            code, out, err = run(capsys, ["center"])
            assert (code, out) == (2, "") and "one of the arguments" in err
