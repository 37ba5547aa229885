import json
import subprocess
import sys

from goldmanab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestComputeCommands:
    def test_pair(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "--closed", "1", "a1^2 a2", "a1 a2^3")
        assert code == 0
        assert json.loads(out) == {"value": "5"}

    def test_pair_value_is_a_string(self, capsys):
        _, out, _ = run_cli(capsys, "pair", "--closed", "1", "a1", "a1")
        assert json.loads(out) == {"value": "0"}

    def test_center(self, capsys):
        code, out, _ = run_cli(capsys, "center", "--boundary", "1", "3")
        assert code == 0
        assert json.loads(out) == {"generators": ["a3", "a4"]}

    def test_center_closed_is_empty(self, capsys):
        _, out, _ = run_cli(capsys, "center", "--closed", "2")
        assert json.loads(out) == {"generators": []}

    def test_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "bracket", "--closed", "1", "a1^2 a2", "a1 a2^3")
        assert code == 0
        assert json.loads(out) == {
            "ring": "Z",
            "terms": [{"exp": [3, 4], "coef": "5"}],
        }

    def test_ab_cancellation(self, capsys):
        code, out, _ = run_cli(
            capsys, "ab", "--closed", "1", "--coefs", "1,-1", "a1 a2 a1^-1", "a2"
        )
        assert code == 0
        assert json.loads(out) == {"ring": "Z", "terms": []}

    def test_ab_rational_coefficients(self, capsys):
        _, out, _ = run_cli(capsys, "ab", "--closed", "1", "--coefs", "1/2", "a1")
        assert json.loads(out) == {"ring": "Q", "terms": [{"exp": [1, 0], "coef": "1/2"}]}

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "text", "pair", "--closed", "1", "a1", "a2")
        assert code == 0
        assert out == 'value: "1"\n'


class TestIdealCommands:
    def test_ideal_check_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "ideal-check", "--closed", "1", "--rule", "ik",
            "--K", "[(1,0)]", "--box", "10", "--samples", "500", "--seed", "7",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is True
        assert report["seed"] == 7
        assert "counterexample" not in report

    def test_ideal_check_rejects_corrupted_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "ideal-check", "--closed", "1", "--rule", "table",
            "--table", '{"radius": 2, "values": [[[1,0],2],[[1,1],3]]}',
            "--box", "2", "--seed", "1", "--exhaustive",
        )
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] is False
        assert "counterexample" in report

    def test_ik_family(self, capsys):
        code, out, _ = run_cli(capsys, "ik-family", "--K0", "[(1,0)]", "--count", "2")
        assert code == 0
        assert json.loads(out) == {
            "submodules": [{"K": [[1, 0]]}, {"K": [[-2, -2], [1, 0]]}]
        }

    def test_closure_and_membership(self, capsys):
        gen = json.dumps(
            {
                "ring": "Q",
                "terms": [
                    {"exp": [1, 0, 0], "coef": "2"},
                    {"exp": [1, 0, 1], "coef": "3"},
                    {"exp": [0, 0, 2], "coef": "5"},
                ],
            }
        )
        code, out, _ = run_cli(capsys, "ideal-closure", "--boundary", "1", "2", "--gen", gen)
        assert code == 0
        ideal = json.loads(out)
        assert ideal["labels"] == [[{"c": [0, 0, 0], "q": "1"}, {"c": [0, 0, 1], "q": "3/2"}]]
        assert ideal["central_basis"] == [
            {"ring": "Q", "terms": [{"exp": [0, 0, 2], "coef": "1"}]}
        ]

        member = json.dumps({"ring": "Q", "terms": [{"exp": [0, 0, 2], "coef": "9"}]})
        code, out, _ = run_cli(
            capsys, "ideal-member", "--boundary", "1", "2",
            "--ideal", json.dumps(ideal), "--elem", member,
        )
        assert code == 0 and json.loads(out) == {"verdict": True}

        outsider = json.dumps({"ring": "Q", "terms": [{"exp": [0, 0, 1], "coef": "1"}]})
        code, out, _ = run_cli(
            capsys, "ideal-member", "--boundary", "1", "2",
            "--ideal", json.dumps(ideal), "--elem", outsider,
        )
        assert code == 1 and json.loads(out) == {"verdict": False}


class TestChainCommands:
    def test_project(self, capsys):
        code, out, _ = run_cli(capsys, "chain-project", "--n", "1", "--c", "1", "a1^5")
        assert code == 0
        assert json.loads(out) == {"word": "a1"}

    def test_project_identity_output(self, capsys):
        _, out, _ = run_cli(capsys, "chain-project", "--n", "2", "--c", "1", "a1^4")
        assert json.loads(out) == {"word": ""}

    def test_separate_finds_level(self, capsys):
        code, out, _ = run_cli(capsys, "chain-separate", "--c", "1", "--nmax", "12", "a1^4", "")
        assert code == 0
        assert json.loads(out) == {"level": 3}

    def test_separate_conjugate_pair(self, capsys):
        code, out, _ = run_cli(capsys, "chain-separate", "--c", "1", "--nmax", "5", "a1 a2", "a2 a1")
        assert code == 1
        assert json.loads(out) == {"result": "conjugate"}

    def test_separate_budget_exhausted(self, capsys):
        code, out, _ = run_cli(capsys, "chain-separate", "--c", "1", "--nmax", "2", "a1^8", "")
        assert code == 1
        assert json.loads(out) == {"result": "not separated", "nmax": 2}


class TestErrorHandling:
    def test_malformed_word(self, capsys):
        code, out, err = run_cli(capsys, "pair", "--closed", "1", "b1", "a1")
        assert code == 2
        assert out == "" and "malformed" in err

    def test_generator_outside_surface_alphabet(self, capsys):
        code, _, err = run_cli(capsys, "pair", "--closed", "1", "a3", "a1")
        assert code == 2 and "out of range" in err

    def test_bad_surface(self, capsys):
        code, _, err = run_cli(capsys, "center", "--closed", "0")
        assert code == 2 and "genus" in err

    def test_bad_ideal_json(self, capsys):
        code, _, err = run_cli(
            capsys, "ideal-member", "--closed", "1", "--ideal", "{", "--elem", "{}"
        )
        assert code == 2 and "invalid JSON" in err

    def test_generator_json_without_keys(self, capsys):
        code, out, err = run_cli(capsys, "ideal-closure", "--boundary", "1", "2", "--gen", "{}")
        assert code == 2 and out == "" and err.startswith("error:")

    def test_exception_tuple_of_wrong_length(self, capsys):
        code, out, err = run_cli(
            capsys, "ideal-check", "--closed", "1", "--rule", "ik",
            "--K", "[(1,0,0)]", "--seed", "1",
        )
        assert code == 2 and out == "" and "length" in err

    def test_zero_denominator_coefficient(self, capsys):
        code, out, err = run_cli(capsys, "ab", "--closed", "1", "--coefs=1/0", "a1")
        assert code == 2 and out == "" and "coefficient" in err

    def test_zero_denominator_in_element_json(self, capsys):
        elem = json.dumps({"ring": "Q", "terms": [{"exp": [1, 0, 0], "coef": "1/0"}]})
        code, out, _ = run_cli(capsys, "ideal-closure", "--boundary", "1", "2", "--gen", elem)
        assert code == 2 and out == ""

    def test_negative_nmax(self, capsys):
        code, out, err = run_cli(capsys, "chain-separate", "--c", "1", "--nmax", "-3", "a1", "a2")
        assert code == 2 and out == "" and "--nmax" in err

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "goldmanab", "no-such-command"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_missing_seed_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "goldmanab", "selftest"],
            capture_output=True,
        )
        assert proc.returncode == 2


class TestSelftestCommand:
    def test_scale_zero_is_noop_pass(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "1", "--scale", "0")
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert all(s["samples"] == 0 for s in report["suites"])

    def test_small_scale_passes_and_echoes_seed(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--seed", "9", "--scale", "0.01")
        assert code == 0
        report = json.loads(out)
        assert report["seed"] == 9
        assert report["all_passed"] is True

    def test_byte_identical_reports(self):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "goldmanab", "selftest", "--seed", "42",
                 "--scale", "0.02"],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout


class TestInjectedFault:
    def test_flipped_pairing_sign_breaks_jacobi_suite(self, monkeypatch):
        # Mutation check: flip the sign of <a1, a2> inside the bracket's
        # pairing without flipping its mirror entry.  The form stops being
        # antisymmetric, so the bracket suites must fail with a
        # counterexample.
        import importlib

        bracket_mod = importlib.import_module("goldmanab.bracket")
        from goldmanab import selftest as st_mod
        from goldmanab.symplectic import symplectic_product as true_product

        def corrupted(sig, x, y):
            return true_product(sig, x, y) - 2 * x[0] * y[1]

        monkeypatch.setattr(bracket_mod, "symplectic_product", corrupted)
        report = st_mod.run_selftest(3, scale=0.05)
        assert report["all_passed"] is False
        failing = {
            (s["suite"], f["property"])
            for s in report["suites"]
            for f in s["failures"]
        }
        assert ("bracket", "jacobi") in failing
        assert ("bracket", "antisymmetry") in failing
        for suite in report["suites"]:
            for failure in suite["failures"]:
                assert "counterexample" in failure
